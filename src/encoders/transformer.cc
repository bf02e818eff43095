#include "encoders/transformer.h"

#include <cmath>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::encoders {
namespace {

// Column slice [start, start+len) of a matrix (local fused op).
Var SliceCols(const Var& m, int start, int len) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  const int r = m->value.rows();
  DLNER_CHECK_GE(start, 0);
  DLNER_CHECK_LE(start + len, m->value.cols());
  Tensor out({r, len});
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < len; ++j) out.at(i, j) = m->value.at(i, start + j);
  }
  return MakeNode(std::move(out), {m}, [m, start, len, r](Variable* n) {
    if (!m->requires_grad) return;
    for (int i = 0; i < r; ++i) {
      for (int j = 0; j < len; ++j) {
        m->grad.at(i, start + j) += n->grad.at(i, j);
      }
    }
  });
}

}  // namespace

MultiHeadAttention::MultiHeadAttention(int model_dim, int num_heads, Rng* rng,
                                       const std::string& name)
    : model_dim_(model_dim),
      num_heads_(num_heads),
      head_dim_(model_dim / num_heads),
      wq_(std::make_unique<Linear>(model_dim, model_dim, rng, name + ".wq")),
      wk_(std::make_unique<Linear>(model_dim, model_dim, rng, name + ".wk")),
      wv_(std::make_unique<Linear>(model_dim, model_dim, rng, name + ".wv")),
      wo_(std::make_unique<Linear>(model_dim, model_dim, rng, name + ".wo")) {
  DLNER_CHECK_EQ(model_dim % num_heads, 0);
}

Var MultiHeadAttention::Apply(const Var& x) const {
  DLNER_CHECK_EQ(x->value.cols(), model_dim_);
  Var q = wq_->Apply(x);
  Var k = wk_->Apply(x);
  Var v = wv_->Apply(x);
  const Float scale = 1.0 / std::sqrt(static_cast<Float>(head_dim_));

  std::vector<Var> heads;
  heads.reserve(num_heads_);
  for (int h = 0; h < num_heads_; ++h) {
    Var qh = SliceCols(q, h * head_dim_, head_dim_);
    Var kh = SliceCols(k, h * head_dim_, head_dim_);
    Var vh = SliceCols(v, h * head_dim_, head_dim_);
    Var scores = Scale(MatMul(qh, Transpose(kh)), scale);  // [T, T]
    Var weights = Softmax(scores);
    heads.push_back(MatMul(weights, vh));  // [T, head_dim]
  }
  Var concat = num_heads_ == 1 ? heads[0] : Concat(heads);
  return wo_->Apply(concat);
}

std::vector<Var> MultiHeadAttention::Parameters() const {
  return JoinParameters({wq_.get(), wk_.get(), wv_.get(), wo_.get()});
}

TransformerEncoder::TransformerEncoder(int in_dim, int model_dim,
                                       int num_heads, int ffn_dim,
                                       int num_layers, Float dropout, Rng* rng,
                                       const std::string& name)
    : model_dim_(model_dim), dropout_(dropout), rng_(rng) {
  DLNER_CHECK_GE(num_layers, 1);
  input_proj_ =
      std::make_unique<Linear>(in_dim, model_dim, rng, name + ".in_proj");
  for (int l = 0; l < num_layers; ++l) {
    const std::string prefix = name + ".block" + std::to_string(l);
    Block b;
    b.attention = std::make_unique<MultiHeadAttention>(model_dim, num_heads,
                                                       rng, prefix + ".mha");
    b.ffn1 =
        std::make_unique<Linear>(model_dim, ffn_dim, rng, prefix + ".ffn1");
    b.ffn2 =
        std::make_unique<Linear>(ffn_dim, model_dim, rng, prefix + ".ffn2");
    b.norm1 = std::make_unique<LayerNorm>(model_dim, prefix + ".norm1");
    b.norm2 = std::make_unique<LayerNorm>(model_dim, prefix + ".norm2");
    blocks_.push_back(std::move(b));
  }
}

Tensor TransformerEncoder::PositionEncodings(int t_len) const {
  Tensor pe({t_len, model_dim_});
  for (int pos = 0; pos < t_len; ++pos) {
    for (int i = 0; i < model_dim_; i += 2) {
      const Float angle =
          pos / std::pow(10000.0, static_cast<Float>(i) / model_dim_);
      pe.at(pos, i) = std::sin(angle);
      if (i + 1 < model_dim_) pe.at(pos, i + 1) = std::cos(angle);
    }
  }
  return pe;
}

Var TransformerEncoder::Encode(const Var& input,
                               const std::vector<std::string>& /*tokens*/,
                               bool training) const {
  obs::ScopedSpan span("encode/transformer");
  Var h = input_proj_->Apply(input);
  h = Add(h, Constant(PositionEncodings(h->value.rows())));
  h = Dropout(h, dropout_, rng_, training);
  for (const Block& b : blocks_) {
    Var attended = b.attention->Apply(h);
    attended = Dropout(attended, dropout_, rng_, training);
    h = b.norm1->Apply(Add(h, attended));
    Var ffn = b.ffn2->Apply(Relu(b.ffn1->Apply(h)));
    ffn = Dropout(ffn, dropout_, rng_, training);
    h = b.norm2->Apply(Add(h, ffn));
  }
  return h;
}

std::vector<Var> TransformerEncoder::Parameters() const {
  std::vector<Var> all = input_proj_->Parameters();
  for (const Block& b : blocks_) {
    for (const Module* m :
         {static_cast<const Module*>(b.attention.get()),
          static_cast<const Module*>(b.ffn1.get()),
          static_cast<const Module*>(b.ffn2.get()),
          static_cast<const Module*>(b.norm1.get()),
          static_cast<const Module*>(b.norm2.get())}) {
      for (const Var& p : m->Parameters()) all.push_back(p);
    }
  }
  return all;
}

}  // namespace dlner::encoders
