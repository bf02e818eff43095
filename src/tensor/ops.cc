#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"

namespace dlner {
namespace {

bool AnyRequiresGrad(const std::vector<Var>& parents) {
  for (const Var& p : parents) {
    if (p->requires_grad) return true;
  }
  return false;
}

// Accumulates `delta` into `p`'s gradient if `p` participates in backprop.
void Accum(const Var& p, const Tensor& delta) {
  if (!p->requires_grad) return;
  p->grad.AccumulateFrom(delta);
}

// Accumulates `-delta` into `p`'s gradient if `p` participates in backprop
// (the mirror of Accum used by subtrahend inputs).
void AccumNeg(const Var& p, const Tensor& delta) {
  if (!p->requires_grad) return;
  DLNER_CHECK(p->grad.SameShape(delta));
  Float* g = p->grad.data();
  const Float* d = delta.data();
  const int n = delta.size();
  for (int i = 0; i < n; ++i) g[i] -= d[i];
}

// GEMM kernels live in tensor/gemm.h so the packed-batch inference path
// (batched.cc) runs literally the same code — bit-identical planned vs
// eager results depend on sharing the kernel, not reimplementing it.
using gemm::GemmAccum;
using gemm::GemmAccumGradA;
using gemm::GemmAccumGradB;

// The row-wise ops take a rank-1 tensor [n] as the one-row matrix [1,n]:
// the same values through the same per-element operation sequence, with a
// rank-1 result. Loops over such tensors index flat, because Tensor::at
// (and rows/cols) accept rank 2 only.
struct RowView {
  int rows;
  int cols;
};

RowView AsRows(const Tensor& t) {
  DLNER_CHECK_MSG(t.dim() == 1 || t.dim() == 2, t.ShapeString());
  return t.dim() == 1 ? RowView{1, t.size()} : RowView{t.rows(), t.cols()};
}

// Shape of a result with `cols` entries per row of `like`.
std::vector<int> RowsShape(const Tensor& like, int cols) {
  if (like.dim() == 1) return {cols};
  return {like.rows(), cols};
}

}  // namespace

Var MakeNode(Tensor value, std::vector<Var> parents,
             std::function<void(Variable*)> backward_fn) {
  auto node = std::make_shared<Variable>(std::move(value));
  node->requires_grad = GradModeEnabled() && AnyRequiresGrad(parents);
  if (node->requires_grad) {
    // Value-only nodes (inference, or constant subgraphs) keep no parent
    // edges: the upstream chain is released as soon as the forward pass
    // moves on, which also keeps graph destruction shallow.
    node->parents = std::move(parents);
    node->backward_fn = std::move(backward_fn);
  }
  return node;
}

// ---------------------------------------------------------------------------
// Elementwise arithmetic.
// ---------------------------------------------------------------------------

Var Add(const Var& a, const Var& b) {
  DLNER_CHECK_MSG(a->value.SameShape(b->value),
                  a->value.ShapeString() << " vs " << b->value.ShapeString());
  Tensor out = a->value;
  for (int i = 0; i < out.size(); ++i) out[i] += b->value[i];
  return MakeNode(std::move(out), {a, b}, [a, b](Variable* n) {
    Accum(a, n->grad);
    Accum(b, n->grad);
  });
}

Var Sub(const Var& a, const Var& b) {
  DLNER_CHECK(a->value.SameShape(b->value));
  Tensor out = a->value;
  for (int i = 0; i < out.size(); ++i) out[i] -= b->value[i];
  return MakeNode(std::move(out), {a, b}, [a, b](Variable* n) {
    Accum(a, n->grad);
    AccumNeg(b, n->grad);
  });
}

Var Mul(const Var& a, const Var& b) {
  DLNER_CHECK(a->value.SameShape(b->value));
  Tensor out = a->value;
  for (int i = 0; i < out.size(); ++i) out[i] *= b->value[i];
  return MakeNode(std::move(out), {a, b}, [a, b](Variable* n) {
    if (a->requires_grad) {
      for (int i = 0; i < n->grad.size(); ++i) {
        a->grad[i] += n->grad[i] * b->value[i];
      }
    }
    if (b->requires_grad) {
      for (int i = 0; i < n->grad.size(); ++i) {
        b->grad[i] += n->grad[i] * a->value[i];
      }
    }
  });
}

Var Scale(const Var& a, Float s) {
  Tensor out = a->value;
  for (int i = 0; i < out.size(); ++i) out[i] *= s;
  return MakeNode(std::move(out), {a}, [a, s](Variable* n) {
    if (a->requires_grad) {
      for (int i = 0; i < n->grad.size(); ++i) a->grad[i] += s * n->grad[i];
    }
  });
}

Var Neg(const Var& a) { return Scale(a, -1.0); }

// ---------------------------------------------------------------------------
// Pointwise nonlinearities.
// ---------------------------------------------------------------------------

Var Tanh(const Var& a) {
  Tensor out = a->value;
  simd::Active::Tanh(out.data(), out.size());
  auto node = MakeNode(std::move(out), {a}, nullptr);
  if (node->requires_grad) {
    node->backward_fn = [a](Variable* n) {
      for (int i = 0; i < n->grad.size(); ++i) {
        a->grad[i] += n->grad[i] * (1.0 - n->value[i] * n->value[i]);
      }
    };
  }
  return node;
}

Var Sigmoid(const Var& a) {
  Tensor out = a->value;
  simd::Active::Sigmoid(out.data(), out.size());
  auto node = MakeNode(std::move(out), {a}, nullptr);
  if (node->requires_grad) {
    node->backward_fn = [a](Variable* n) {
      for (int i = 0; i < n->grad.size(); ++i) {
        a->grad[i] += n->grad[i] * n->value[i] * (1.0 - n->value[i]);
      }
    };
  }
  return node;
}

Var Relu(const Var& a) {
  Tensor out = a->value;
  for (int i = 0; i < out.size(); ++i) out[i] = std::max(out[i], 0.0);
  return MakeNode(std::move(out), {a}, [a](Variable* n) {
    if (!a->requires_grad) return;
    for (int i = 0; i < n->grad.size(); ++i) {
      if (a->value[i] > 0.0) a->grad[i] += n->grad[i];
    }
  });
}

Var Log(const Var& a) {
  Tensor out = a->value;
  for (int i = 0; i < out.size(); ++i) {
    DLNER_CHECK_GT(out[i], 0.0);
    out[i] = std::log(out[i]);
  }
  return MakeNode(std::move(out), {a}, [a](Variable* n) {
    if (!a->requires_grad) return;
    for (int i = 0; i < n->grad.size(); ++i) {
      a->grad[i] += n->grad[i] / a->value[i];
    }
  });
}

// ---------------------------------------------------------------------------
// Linear algebra.
// ---------------------------------------------------------------------------

Var MatMul(const Var& a, const Var& b) {
  DLNER_CHECK_EQ(b->value.dim(), 2);
  const auto [m, k] = AsRows(a->value);
  DLNER_CHECK_EQ(k, b->value.rows());
  const int n = b->value.cols();

  Tensor out(RowsShape(a->value, n));
  GemmAccum(a->value.data(), b->value.data(), out.data(), m, k, n);
  return MakeNode(std::move(out), {a, b}, [a, b, m, k, n](Variable* node) {
    if (a->requires_grad) {
      GemmAccumGradA(node->grad.data(), b->value.data(), a->grad.data(), m, k,
                     n);
    }
    if (b->requires_grad) {
      GemmAccumGradB(a->value.data(), node->grad.data(), b->grad.data(), m, k,
                     n);
    }
  });
}

// ---------------------------------------------------------------------------
// Fused affine ops. One graph node instead of a MatMul -> bias add
// (-> activation) chain: the bias is written into the output rows before the
// GEMM accumulates into them, and the optional activation is applied in the
// same pass, saving one full-tensor copy and one node per call — which on
// the RNN hot path means per gate per timestep.
// ---------------------------------------------------------------------------

namespace {

enum class FusedAct { kNone, kTanh };

Var AffineImpl(const Var& x, const Var& w, const Var& b, FusedAct act) {
  DLNER_CHECK_EQ(w->value.dim(), 2);
  DLNER_CHECK_EQ(b->value.dim(), 1);
  const auto [m, k] = AsRows(x->value);
  DLNER_CHECK_EQ(k, w->value.rows());
  const int n = w->value.cols();
  DLNER_CHECK_EQ(n, b->value.size());

  Tensor out(RowsShape(x->value, n));
  Float* c = out.data();
  const Float* bias = b->value.data();
  for (int i = 0; i < m; ++i) {
    std::memcpy(c + static_cast<std::size_t>(i) * n, bias,
                sizeof(Float) * static_cast<std::size_t>(n));
  }
  GemmAccum(x->value.data(), w->value.data(), c, m, k, n);
  if (act == FusedAct::kTanh) simd::Active::Tanh(c, m * n);

  auto node = MakeNode(std::move(out), {x, w, b}, nullptr);
  if (node->requires_grad) {
    node->backward_fn = [x, w, b, act, m, k, n](Variable* nd) {
      // dZ is the gradient at the pre-activation; for the identity case it
      // is nd->grad itself and no temporary is materialized.
      Tensor dz_store;
      const Float* dz = nd->grad.data();
      if (act == FusedAct::kTanh) {
        dz_store = Tensor(nd->value.shape());
        Float* t = dz_store.data();
        const Float* y = nd->value.data();
        const Float* g = nd->grad.data();
        for (int i = 0; i < m * n; ++i) t[i] = g[i] * (1.0 - y[i] * y[i]);
        dz = t;
      }
      if (x->requires_grad) {
        GemmAccumGradA(dz, w->value.data(), x->grad.data(), m, k, n);
      }
      if (w->requires_grad) {
        GemmAccumGradB(x->value.data(), dz, w->grad.data(), m, k, n);
      }
      if (b->requires_grad) {
        Float* bg = b->grad.data();
        for (int i = 0; i < m; ++i) {
          const Float* row = dz + static_cast<std::size_t>(i) * n;
          for (int j = 0; j < n; ++j) bg[j] += row[j];
        }
      }
    };
  }
  return node;
}

}  // namespace

Var Affine(const Var& x, const Var& w, const Var& b) {
  return AffineImpl(x, w, b, FusedAct::kNone);
}

Var AffineTanh(const Var& x, const Var& w, const Var& b) {
  return AffineImpl(x, w, b, FusedAct::kTanh);
}

Var Transpose(const Var& m) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  const int r = m->value.rows();
  const int c = m->value.cols();
  Tensor out({c, r});
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) out.at(j, i) = m->value.at(i, j);
  }
  return MakeNode(std::move(out), {m}, [m, r, c](Variable* n) {
    if (!m->requires_grad) return;
    for (int i = 0; i < r; ++i) {
      for (int j = 0; j < c; ++j) m->grad.at(i, j) += n->grad.at(j, i);
    }
  });
}

Var Dot(const Var& a, const Var& b) {
  DLNER_CHECK_EQ(a->value.dim(), 1);
  DLNER_CHECK(a->value.SameShape(b->value));
  Float s = 0.0;
  for (int i = 0; i < a->value.size(); ++i) s += a->value[i] * b->value[i];
  return MakeNode(Tensor({1}, {s}), {a, b}, [a, b](Variable* n) {
    const Float g = n->grad[0];
    if (a->requires_grad) {
      for (int i = 0; i < a->value.size(); ++i) {
        a->grad[i] += g * b->value[i];
      }
    }
    if (b->requires_grad) {
      for (int i = 0; i < b->value.size(); ++i) {
        b->grad[i] += g * a->value[i];
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Broadcasts.
// ---------------------------------------------------------------------------

Var AddColBroadcast(const Var& m, const Var& v) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  DLNER_CHECK_EQ(v->value.dim(), 1);
  const int r = m->value.rows();
  const int c = m->value.cols();
  DLNER_CHECK_EQ(r, v->value.size());
  Tensor out = m->value;
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) out.at(i, j) += v->value[i];
  }
  return MakeNode(std::move(out), {m, v}, [m, v, r, c](Variable* n) {
    Accum(m, n->grad);
    if (v->requires_grad) {
      for (int i = 0; i < r; ++i) {
        for (int j = 0; j < c; ++j) v->grad[i] += n->grad.at(i, j);
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Reductions.
// ---------------------------------------------------------------------------

Var Sum(const Var& a) {
  Float s = 0.0;
  for (int i = 0; i < a->value.size(); ++i) s += a->value[i];
  return MakeNode(Tensor({1}, {s}), {a}, [a](Variable* n) {
    if (!a->requires_grad) return;
    const Float g = n->grad[0];
    for (int i = 0; i < a->grad.size(); ++i) a->grad[i] += g;
  });
}

Var Mean(const Var& a) {
  DLNER_CHECK_GT(a->value.size(), 0);
  return Scale(Sum(a), 1.0 / a->value.size());
}

Var MaxOverRows(const Var& m) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  const int r = m->value.rows();
  const int c = m->value.cols();
  DLNER_CHECK_GT(r, 0);
  Tensor out({c});
  std::vector<int> argmax(c, 0);
  for (int j = 0; j < c; ++j) {
    Float best = m->value.at(0, j);
    for (int i = 1; i < r; ++i) {
      if (m->value.at(i, j) > best) {
        best = m->value.at(i, j);
        argmax[j] = i;
      }
    }
    out[j] = best;
  }
  return MakeNode(std::move(out), {m},
                  [m, argmax = std::move(argmax), c](Variable* n) {
                    if (!m->requires_grad) return;
                    for (int j = 0; j < c; ++j) {
                      m->grad.at(argmax[j], j) += n->grad[j];
                    }
                  });
}

Var MeanOverRows(const Var& m) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  const int r = m->value.rows();
  const int c = m->value.cols();
  DLNER_CHECK_GT(r, 0);
  Tensor out({c});
  for (int j = 0; j < c; ++j) {
    Float s = 0.0;
    for (int i = 0; i < r; ++i) s += m->value.at(i, j);
    out[j] = s / r;
  }
  return MakeNode(std::move(out), {m}, [m, r, c](Variable* n) {
    if (!m->requires_grad) return;
    for (int j = 0; j < c; ++j) {
      const Float g = n->grad[j] / r;
      for (int i = 0; i < r; ++i) m->grad.at(i, j) += g;
    }
  });
}

Float LogSumExpOf(const Float* x, int n, int stride) {
  DLNER_CHECK_GT(n, 0);
  Float mx = x[0];
  for (int i = 1; i < n; ++i) mx = std::max(mx, x[i * stride]);
  Float s = 0.0;
  for (int i = 0; i < n; ++i) s += std::exp(x[i * stride] - mx);
  return mx + std::log(s);
}

Var LogSumExp(const Var& v) {
  DLNER_CHECK_EQ(v->value.dim(), 1);
  const int n = v->value.size();
  const Float lse = LogSumExpOf(v->value.data(), n, 1);
  return MakeNode(Tensor({1}, {lse}), {v}, [v, n, lse](Variable* node) {
    if (!v->requires_grad) return;
    const Float g = node->grad[0];
    for (int i = 0; i < n; ++i) {
      v->grad[i] += g * std::exp(v->value[i] - lse);
    }
  });
}

Var LogSumExpOverRows(const Var& m) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  const int r = m->value.rows();
  const int c = m->value.cols();
  Tensor out({c});
  for (int j = 0; j < c; ++j) out[j] = LogSumExpOf(m->value.data() + j, r, c);
  auto node = MakeNode(std::move(out), {m}, nullptr);
  if (node->requires_grad) {
    node->backward_fn = [m, r, c](Variable* n) {
      for (int j = 0; j < c; ++j) {
        const Float g = n->grad[j];
        const Float lse = n->value[j];
        for (int i = 0; i < r; ++i) {
          m->grad.at(i, j) += g * std::exp(m->value.at(i, j) - lse);
        }
      }
    };
  }
  return node;
}

// ---------------------------------------------------------------------------
// Softmax family.
// ---------------------------------------------------------------------------

Var Softmax(const Var& x) {
  const auto [r, c] = AsRows(x->value);
  DLNER_CHECK(r == 0 || c > 0);
  Tensor out(x->value.shape());
  for (int i = 0; i < r; ++i) {
    const Float* in = x->value.data() + static_cast<std::size_t>(i) * c;
    Float* y = out.data() + static_cast<std::size_t>(i) * c;
    Float mx = in[0];
    for (int j = 1; j < c; ++j) mx = std::max(mx, in[j]);
    Float s = 0.0;
    for (int j = 0; j < c; ++j) {
      y[j] = std::exp(in[j] - mx);
      s += y[j];
    }
    for (int j = 0; j < c; ++j) y[j] /= s;
  }
  auto node = MakeNode(std::move(out), {x}, nullptr);
  if (node->requires_grad) {
    node->backward_fn = [x, r, c](Variable* n) {
      for (int i = 0; i < r; ++i) {
        const std::size_t row = static_cast<std::size_t>(i) * c;
        const Float* g = n->grad.data() + row;
        const Float* y = n->value.data() + row;
        Float* xg = x->grad.data() + row;
        Float dot = 0.0;
        for (int j = 0; j < c; ++j) dot += g[j] * y[j];
        for (int j = 0; j < c; ++j) xg[j] += y[j] * (g[j] - dot);
      }
    };
  }
  return node;
}

Var LogSoftmax(const Var& v) {
  DLNER_CHECK_EQ(v->value.dim(), 1);
  const int n = v->value.size();
  const Float lse = LogSumExpOf(v->value.data(), n, 1);
  Tensor out({n});
  for (int i = 0; i < n; ++i) out[i] = v->value[i] - lse;
  auto node = MakeNode(std::move(out), {v}, nullptr);
  if (node->requires_grad) {
    node->backward_fn = [v, n](Variable* node_) {
      Float gsum = 0.0;
      for (int i = 0; i < n; ++i) gsum += node_->grad[i];
      for (int i = 0; i < n; ++i) {
        v->grad[i] += node_->grad[i] - std::exp(node_->value[i]) * gsum;
      }
    };
  }
  return node;
}

// ---------------------------------------------------------------------------
// Indexing, reshaping, and structure.
// ---------------------------------------------------------------------------

Var Row(const Var& m, int r) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  DLNER_CHECK_GE(r, 0);
  DLNER_CHECK_LT(r, m->value.rows());
  const int c = m->value.cols();
  Tensor out({c});
  for (int j = 0; j < c; ++j) out[j] = m->value.at(r, j);
  return MakeNode(std::move(out), {m}, [m, r, c](Variable* n) {
    if (!m->requires_grad) return;
    for (int j = 0; j < c; ++j) m->grad.at(r, j) += n->grad[j];
  });
}

Var Rows(const Var& m, const std::vector<int>& ids) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  const int c = m->value.cols();
  const int k = static_cast<int>(ids.size());
  DLNER_CHECK_GT(k, 0);
  Tensor out({k, c});
  for (int i = 0; i < k; ++i) {
    DLNER_CHECK_GE(ids[i], 0);
    DLNER_CHECK_LT(ids[i], m->value.rows());
    for (int j = 0; j < c; ++j) out.at(i, j) = m->value.at(ids[i], j);
  }
  return MakeNode(std::move(out), {m}, [m, ids, k, c](Variable* n) {
    if (!m->requires_grad) return;
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < c; ++j) m->grad.at(ids[i], j) += n->grad.at(i, j);
    }
  });
}

Var StackRows(const std::vector<Var>& rows) {
  DLNER_CHECK(!rows.empty());
  const int c = rows[0]->value.size();
  const int k = static_cast<int>(rows.size());
  Tensor out({k, c});
  for (int i = 0; i < k; ++i) {
    DLNER_CHECK_EQ(rows[i]->value.dim(), 1);
    DLNER_CHECK_EQ(rows[i]->value.size(), c);
    for (int j = 0; j < c; ++j) out.at(i, j) = rows[i]->value[j];
  }
  return MakeNode(std::move(out), rows, [rows, k, c](Variable* n) {
    for (int i = 0; i < k; ++i) {
      if (!rows[i]->requires_grad) continue;
      for (int j = 0; j < c; ++j) rows[i]->grad[j] += n->grad.at(i, j);
    }
  });
}

Var Concat(const std::vector<Var>& parts) {
  DLNER_CHECK(!parts.empty());
  const Tensor& first = parts[0]->value;
  const int r = AsRows(first).rows;
  int total = 0;
  for (const Var& p : parts) {
    DLNER_CHECK_EQ(p->value.dim(), first.dim());
    const RowView v = AsRows(p->value);
    DLNER_CHECK_EQ(v.rows, r);
    total += v.cols;
  }
  Tensor out(RowsShape(first, total));
  int off = 0;
  for (const Var& p : parts) {
    const int c = AsRows(p->value).cols;
    for (int i = 0; i < r; ++i) {
      std::copy_n(p->value.data() + static_cast<std::size_t>(i) * c, c,
                  out.data() + static_cast<std::size_t>(i) * total + off);
    }
    off += c;
  }
  return MakeNode(std::move(out), parts, [parts, r, total](Variable* n) {
    int off = 0;
    for (const Var& p : parts) {
      const int c = AsRows(p->value).cols;
      if (p->requires_grad) {
        for (int i = 0; i < r; ++i) {
          const Float* g =
              n->grad.data() + static_cast<std::size_t>(i) * total + off;
          Float* pg = p->grad.data() + static_cast<std::size_t>(i) * c;
          for (int j = 0; j < c; ++j) pg[j] += g[j];
        }
      }
      off += c;
    }
  });
}

Var Pick(const Var& v, int i) {
  DLNER_CHECK_EQ(v->value.dim(), 1);
  DLNER_CHECK_GE(i, 0);
  DLNER_CHECK_LT(i, v->value.size());
  return MakeNode(Tensor({1}, {v->value[i]}), {v}, [v, i](Variable* n) {
    if (v->requires_grad) v->grad[i] += n->grad[0];
  });
}

Var PickAt(const Var& m, int r, int c) {
  DLNER_CHECK_EQ(m->value.dim(), 2);
  return MakeNode(Tensor({1}, {m->value.at(r, c)}), {m},
                  [m, r, c](Variable* n) {
                    if (m->requires_grad) m->grad.at(r, c) += n->grad[0];
                  });
}

// ---------------------------------------------------------------------------
// Regularization.
// ---------------------------------------------------------------------------

Var Dropout(const Var& a, Float p, Rng* rng, bool training) {
  DLNER_CHECK_GE(p, 0.0);
  DLNER_CHECK_LT(p, 1.0);
  if (!training || p == 0.0) return a;
  DLNER_CHECK(rng != nullptr);
  const Float keep = 1.0 - p;
  std::vector<Float> mask(a->value.size());
  Tensor out = a->value;
  for (int i = 0; i < out.size(); ++i) {
    mask[i] = rng->Bernoulli(p) ? 0.0 : 1.0 / keep;
    out[i] *= mask[i];
  }
  return MakeNode(std::move(out), {a},
                  [a, mask = std::move(mask)](Variable* n) {
                    if (!a->requires_grad) return;
                    for (int i = 0; i < n->grad.size(); ++i) {
                      a->grad[i] += n->grad[i] * mask[i];
                    }
                  });
}

// ---------------------------------------------------------------------------
// Losses.
// ---------------------------------------------------------------------------

Var CrossEntropyWithLogits(const Var& logits, int target) {
  DLNER_CHECK_EQ(logits->value.dim(), 1);
  DLNER_CHECK_GE(target, 0);
  DLNER_CHECK_LT(target, logits->value.size());
  return Neg(Pick(LogSoftmax(logits), target));
}

}  // namespace dlner
