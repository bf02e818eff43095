#include "tensor/nn.h"

#include <cmath>
#include <utility>

namespace dlner {

int Module::ParameterCount() const {
  int n = 0;
  for (const Var& p : Parameters()) n += p->value.size();
  return n;
}

std::vector<Var> JoinParameters(const std::vector<const Module*>& modules) {
  std::vector<Var> all;
  for (const Module* m : modules) {
    if (m == nullptr) continue;
    for (const Var& p : m->Parameters()) all.push_back(p);
  }
  return all;
}

namespace {

// The record of this thread's innermost live SkipInitGuard, or null.
thread_local std::vector<std::span<Float>>* g_unwritten = nullptr;

Tensor UniformTensor(std::vector<int> shape, Float scale, Rng* rng) {
  if (g_unwritten != nullptr) {
    Tensor t = Tensor::Uninitialized(std::move(shape));
    g_unwritten->emplace_back(t.data(), t.size());
    return t;
  }
  Tensor t(std::move(shape));
  for (int i = 0; i < t.size(); ++i) t[i] = rng->Uniform(-scale, scale);
  return t;
}

}  // namespace

SkipInitGuard::SkipInitGuard() : prev_(g_unwritten) {
  g_unwritten = &unwritten_;
}

SkipInitGuard::~SkipInitGuard() { g_unwritten = prev_; }

Tensor GlorotMatrix(int rows, int cols, Rng* rng) {
  const Float scale = std::sqrt(6.0 / (rows + cols));
  return UniformMatrix(rows, cols, scale, rng);
}

Tensor UniformMatrix(int rows, int cols, Float scale, Rng* rng) {
  return UniformTensor({rows, cols}, scale, rng);
}

Tensor UniformVector(int n, Float scale, Rng* rng) {
  return UniformTensor({n}, scale, rng);
}

Var SliceVec(const Var& v, int start, int len) {
  DLNER_CHECK_EQ(v->value.dim(), 1);
  DLNER_CHECK_GE(start, 0);
  DLNER_CHECK_GT(len, 0);
  DLNER_CHECK_LE(start + len, v->value.size());
  Tensor out({len});
  for (int i = 0; i < len; ++i) out[i] = v->value[start + i];
  return MakeNode(std::move(out), {v}, [v, start, len](Variable* n) {
    if (!v->requires_grad) return;
    for (int i = 0; i < len; ++i) v->grad[start + i] += n->grad[i];
  });
}

Var Unfold(const Var& m, int width, int dilation) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  DLNER_CHECK_EQ(width % 2, 1);
  DLNER_CHECK_GE(dilation, 1);
  const int t_len = m->value.rows();
  const int d = m->value.cols();
  const int half = width / 2;
  Tensor out({t_len, width * d});
  for (int t = 0; t < t_len; ++t) {
    for (int k = -half; k <= half; ++k) {
      const int src = t + k * dilation;
      if (src < 0 || src >= t_len) continue;
      const int block = (k + half) * d;
      for (int j = 0; j < d; ++j) {
        out.at(t, block + j) = m->value.at(src, j);
      }
    }
  }
  return MakeNode(
      std::move(out), {m}, [m, width, dilation, t_len, d, half](Variable* n) {
        if (!m->requires_grad) return;
        for (int t = 0; t < t_len; ++t) {
          for (int k = -half; k <= half; ++k) {
            const int src = t + k * dilation;
            if (src < 0 || src >= t_len) continue;
            const int block = (k + half) * d;
            for (int j = 0; j < d; ++j) {
              m->grad.at(src, j) += n->grad.at(t, block + j);
            }
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Linear.
// ---------------------------------------------------------------------------

Linear::Linear(int in_dim, int out_dim, Rng* rng, const std::string& name)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(Parameter(GlorotMatrix(in_dim, out_dim, rng), name + ".W")),
      bias_(Parameter(Tensor({out_dim}), name + ".b")) {}

Var Linear::Apply(const Var& x) const { return Affine(x, weight_, bias_); }

Var Linear::ApplyTanh(const Var& x) const {
  return AffineTanh(x, weight_, bias_);
}

// ---------------------------------------------------------------------------
// Embedding.
// ---------------------------------------------------------------------------

Embedding::Embedding(int vocab_size, int dim, Rng* rng,
                     const std::string& name)
    : vocab_size_(vocab_size),
      dim_(dim),
      table_(Parameter(UniformMatrix(vocab_size, dim,
                                     std::sqrt(3.0 / dim), rng),
                       name + ".table")) {}

Var Embedding::Lookup(const std::vector<int>& ids) const {
  return Rows(table_, ids);
}

Var Embedding::LookupOne(int id) const { return Row(table_, id); }

void Embedding::SetRow(int id, const std::vector<Float>& values) {
  DLNER_CHECK_GE(id, 0);
  DLNER_CHECK_LT(id, vocab_size_);
  DLNER_CHECK_EQ(static_cast<int>(values.size()), dim_);
  for (int j = 0; j < dim_; ++j) table_->value.at(id, j) = values[j];
}

// ---------------------------------------------------------------------------
// LayerNorm (fused forward/backward).
// ---------------------------------------------------------------------------

LayerNorm::LayerNorm(int dim, const std::string& name)
    : dim_(dim),
      gain_(Parameter(Tensor::Full({dim}, 1.0), name + ".gain")),
      bias_(Parameter(Tensor({dim}), name + ".bias")) {}

Var LayerNorm::Apply(const Var& x) const {
  DLNER_CHECK_EQ(x->value.dim(), 2);
  DLNER_CHECK_EQ(x->value.cols(), dim_);
  const int rows = x->value.rows();
  const int d = dim_;
  constexpr Float kEps = 1e-5;

  // Cache normalized activations and per-row inverse stddev for backward.
  Tensor xhat({rows, d});
  std::vector<Float> inv_sigma(rows);
  Tensor out({rows, d});
  for (int i = 0; i < rows; ++i) {
    Float mu = 0.0;
    for (int j = 0; j < d; ++j) mu += x->value.at(i, j);
    mu /= d;
    Float var = 0.0;
    for (int j = 0; j < d; ++j) {
      const Float c = x->value.at(i, j) - mu;
      var += c * c;
    }
    var /= d;
    inv_sigma[i] = 1.0 / std::sqrt(var + kEps);
    for (int j = 0; j < d; ++j) {
      xhat.at(i, j) = (x->value.at(i, j) - mu) * inv_sigma[i];
      out.at(i, j) = gain_->value[j] * xhat.at(i, j) + bias_->value[j];
    }
  }

  Var gain = gain_;
  Var bias = bias_;
  return MakeNode(
      std::move(out), {x, gain, bias},
      [x, gain, bias, xhat = std::move(xhat),
       inv_sigma = std::move(inv_sigma), rows, d](Variable* n) {
        for (int i = 0; i < rows; ++i) {
          // dL/dxhat_j = dy_j * gain_j
          Float mean_g = 0.0;
          Float mean_gx = 0.0;
          for (int j = 0; j < d; ++j) {
            const Float gx = n->grad.at(i, j) * gain->value[j];
            mean_g += gx;
            mean_gx += gx * xhat.at(i, j);
          }
          mean_g /= d;
          mean_gx /= d;
          if (x->requires_grad) {
            for (int j = 0; j < d; ++j) {
              const Float gx = n->grad.at(i, j) * gain->value[j];
              x->grad.at(i, j) +=
                  (gx - mean_g - xhat.at(i, j) * mean_gx) * inv_sigma[i];
            }
          }
          if (gain->requires_grad) {
            for (int j = 0; j < d; ++j) {
              gain->grad[j] += n->grad.at(i, j) * xhat.at(i, j);
            }
          }
          if (bias->requires_grad) {
            for (int j = 0; j < d; ++j) bias->grad[j] += n->grad.at(i, j);
          }
        }
      });
}

// ---------------------------------------------------------------------------
// Conv1d.
// ---------------------------------------------------------------------------

Conv1d::Conv1d(int in_dim, int out_dim, int width, int dilation, Rng* rng,
               const std::string& name)
    : width_(width),
      dilation_(dilation),
      weight_(Parameter(GlorotMatrix(width * in_dim, out_dim, rng),
                        name + ".W")),
      bias_(Parameter(Tensor({out_dim}), name + ".b")) {
  DLNER_CHECK_EQ(width % 2, 1);
}

Var Conv1d::Apply(const Var& x) const {
  Var unfolded = Unfold(x, width_, dilation_);
  return Affine(unfolded, weight_, bias_);
}

}  // namespace dlner
