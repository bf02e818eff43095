#include "tensor/batched.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"

namespace dlner::batched {
namespace {

inline Float SigmoidScalar(Float v) { return 1.0 / (1.0 + std::exp(-v)); }

}  // namespace

int BatchLayout::max_len() const {
  int m = 0;
  for (int b = 0; b < batch(); ++b) m = std::max(m, len(b));
  return m;
}

// Activation epilogue shared by the affine/conv kernels. ReLU is a
// comparison-select (vectorizable with scalar-identical semantics); tanh
// stays a scalar libm call on every ISA so results never depend on a
// vector polynomial approximation.
template <class Isa>
void ApplyAct(Float* x, int n, Act act) {
  switch (act) {
    case Act::kNone:
      break;
    case Act::kRelu:
      Isa::Relu(x, n);
      break;
    case Act::kTanh:
      for (int i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      break;
  }
}

template <class Isa>
void Affine(const Float* x, int rows, const Tensor& w, const Tensor& b,
            Float* out, Act act) {
  DLNER_CHECK_EQ(w.dim(), 2);
  DLNER_CHECK_EQ(b.dim(), 1);
  const int k = w.rows();
  const int n = w.cols();
  DLNER_CHECK_EQ(n, b.size());
  const Float* bias = b.data();
  for (int i = 0; i < rows; ++i) {
    std::memcpy(out + static_cast<std::size_t>(i) * n, bias,
                sizeof(Float) * static_cast<std::size_t>(n));
  }
  gemm::GemmAccum<Isa>(x, w.data(), out, rows, k, n);
  ApplyAct<Isa>(out, rows * n, act);
}

template <class Isa>
void ConvSegments(const Float* x, int d, const BatchLayout& layout,
                  int width, int dilation, const Tensor& w, const Tensor& b,
                  Float* out, Act act) {
  DLNER_CHECK_EQ(width % 2, 1);
  DLNER_CHECK_GE(dilation, 1);
  DLNER_CHECK_EQ(w.rows(), width * d);
  const int half = width / 2;
  const int n = w.cols();
  DLNER_CHECK_EQ(n, b.size());
  const Float* wm = w.data();
  const Float* bias = b.data();
  for (int seg = 0; seg < layout.batch(); ++seg) {
    const int off = layout.offset(seg);
    const int len = layout.len(seg);
    if (len == 0) continue;
    Float* cseg = out + static_cast<std::size_t>(off) * n;
    for (int t = 0; t < len; ++t) {
      std::memcpy(cseg + static_cast<std::size_t>(t) * n, bias,
                  static_cast<std::size_t>(n) * sizeof(Float));
    }
    // One strided GEMM per window offset: slab k covers unfolded columns
    // [(k+half)*d, (k+half+1)*d), and slabs run in ascending k, so every
    // output element still accumulates in ascending unfolded-column order.
    // Tokens whose offset-k neighbor falls outside the segment are simply
    // excluded from that slab's row range — those are exactly the
    // zero-padded slots the dense kernel would have skipped.
    for (int k = -half; k <= half; ++k) {
      const int ko = k * dilation;
      const int t0 = std::max(0, -ko);
      const int t1 = std::min(len, len - ko);
      if (t1 <= t0) continue;
      gemm::GemmAccumStrided<Isa>(
          x + static_cast<std::size_t>(off + t0 + ko) * d, d,
          wm + static_cast<std::size_t>(k + half) * d * n,
          cseg + static_cast<std::size_t>(t0) * n, t1 - t0, d, n);
    }
    ApplyAct<Isa>(cseg, len * n, act);
  }
}

template <class Isa>
void LayerNormRows(const Float* x, int rows, int d, const Tensor& gain,
                   const Tensor& bias, Float* out) {
  DLNER_CHECK_EQ(gain.size(), d);
  DLNER_CHECK_EQ(bias.size(), d);
  constexpr Float kEps = 1e-5;  // must match LayerNorm::Apply
  const Float* g = gain.data();
  const Float* be = bias.data();
  for (int i = 0; i < rows; ++i) {
    const Float* row = x + static_cast<std::size_t>(i) * d;
    Float* orow = out + static_cast<std::size_t>(i) * d;
    // Mean/variance reductions stay scalar: vector partial sums would
    // reassociate the additions and break bit-identity with the eager
    // LayerNorm::Apply. Only the per-element epilogue vectorizes.
    Float mu = 0.0;
    for (int j = 0; j < d; ++j) mu += row[j];
    mu /= d;
    Float var = 0.0;
    for (int j = 0; j < d; ++j) {
      const Float c = row[j] - mu;
      var += c * c;
    }
    var /= d;
    const Float inv_sigma = 1.0 / std::sqrt(var + kEps);
    Isa::NormApply(row, mu, inv_sigma, g, be, orow, d);
  }
}

namespace {

// Column-wise max over `len` rows of h [len, d] into best[d]. Row 0 seeds
// the running max, then rows fold in ascending order — per column that is
// exactly the scalar `if (v > best)` scan of MaxOverRows, and max is exact
// in any order, so the row-major rewrite is bit-identical.
template <class Isa>
void FoldRowMax(const Float* h, int len, int d, Float* best) {
  std::memcpy(best, h, static_cast<std::size_t>(d) * sizeof(Float));
  for (int t = 1; t < len; ++t) {
    Isa::RowMax(h + static_cast<std::size_t>(t) * d, best, d);
  }
}

}  // namespace

template <class Isa>
void GlobalMaxConcat(const Float* h, int d, const BatchLayout& layout,
                     Float* out) {
  const int od = 2 * d;
  for (int b = 0; b < layout.batch(); ++b) {
    const int off = layout.offset(b);
    const int len = layout.len(b);
    if (len == 0) continue;
    for (int t = 0; t < len; ++t) {
      std::memcpy(out + static_cast<std::size_t>(off + t) * od,
                  h + static_cast<std::size_t>(off + t) * d,
                  static_cast<std::size_t>(d) * sizeof(Float));
    }
    // The segment max is written once into the first row's second half and
    // copied to the rest (no scratch allocation).
    Float* global = out + static_cast<std::size_t>(off) * od + d;
    FoldRowMax<Isa>(h + static_cast<std::size_t>(off) * d, len, d, global);
    for (int t = 1; t < len; ++t) {
      std::memcpy(out + static_cast<std::size_t>(off + t) * od + d, global,
                  static_cast<std::size_t>(d) * sizeof(Float));
    }
  }
}

template <class Isa>
void MaxOverSegments(const Float* h, int d, const BatchLayout& layout,
                     Float* out, int out_stride) {
  for (int b = 0; b < layout.batch(); ++b) {
    DLNER_CHECK_GT(layout.len(b), 0);
    FoldRowMax<Isa>(h + static_cast<std::size_t>(layout.offset(b)) * d,
                    layout.len(b), d,
                    out + static_cast<std::size_t>(b) * out_stride);
  }
}

namespace {

// One direction of a packed-batch LSTM layer. At step s every segment with
// len > s is "active"; active lanes are compacted (in segment order) into
// one gate GEMM, then stepped with exactly the eager cell's per-element
// arithmetic: gates order i,f,o,g; c = f*c + i*g; h = o*tanh(c). The step
// is phased — all gate nonlinearities first (scalar libm), then the state
// update as vector primitives — which changes only loop structure, never
// any element's value or operand order, so bit-identity with the eager
// LstmCell holds on every ISA.
template <class Isa>
void RunLstmDir(const Float* x, int in_dim, int hidden,
                const BatchLayout& layout, const LstmDir& dir, bool reverse,
                Float* out, int out_stride, int col0, Arena* arena) {
  const int batch = layout.batch();
  const int zdim = in_dim + hidden;
  const int gdim = 4 * hidden;
  Float* h_prev = arena->AllocZero(static_cast<std::size_t>(batch) * hidden);
  Float* c_prev = arena->AllocZero(static_cast<std::size_t>(batch) * hidden);
  Float* z = arena->Alloc(static_cast<std::size_t>(batch) * zdim);
  Float* gates = arena->Alloc(static_cast<std::size_t>(batch) * gdim);
  std::vector<int> lanes(batch);
  const int max_len = layout.max_len();
  for (int s = 0; s < max_len; ++s) {
    int na = 0;
    for (int b = 0; b < batch; ++b) {
      const int len = layout.len(b);
      if (len <= s) continue;
      const int t = reverse ? len - 1 - s : s;
      Float* zrow = z + static_cast<std::size_t>(na) * zdim;
      std::memcpy(zrow, x + static_cast<std::size_t>(layout.offset(b) + t) * in_dim,
                  static_cast<std::size_t>(in_dim) * sizeof(Float));
      std::memcpy(zrow + in_dim, h_prev + static_cast<std::size_t>(b) * hidden,
                  static_cast<std::size_t>(hidden) * sizeof(Float));
      lanes[na++] = b;
    }
    Affine<Isa>(z, na, *dir.w, *dir.b, gates, Act::kNone);
    for (int a = 0; a < na; ++a) {
      const int b = lanes[a];
      Float* g = gates + static_cast<std::size_t>(a) * gdim;
      Float* hp = h_prev + static_cast<std::size_t>(b) * hidden;
      Float* cp = c_prev + static_cast<std::size_t>(b) * hidden;
      const int t = reverse ? layout.len(b) - 1 - s : s;
      Float* orow =
          out + static_cast<std::size_t>(layout.offset(b) + t) * out_stride +
          col0;
      for (int j = 0; j < 3 * hidden; ++j) g[j] = SigmoidScalar(g[j]);
      for (int j = 3 * hidden; j < gdim; ++j) g[j] = std::tanh(g[j]);
      // c = f*c_prev + i*g, in place over c_prev (same-offset aliasing is
      // allowed by the primitive contract).
      Isa::MulMulAdd(g + hidden, cp, g, g + 3 * hidden, cp, hidden);
      for (int j = 0; j < hidden; ++j) {
        const Float h = g[2 * hidden + j] * std::tanh(cp[j]);
        hp[j] = h;
        orow[j] = h;
      }
    }
  }
}

// One direction of a packed-batch GRU layer; mirrors GruCell::Step:
// r,z gates from [x, h]; candidate from [x, r*h]; h = (1-z)*h + z*h~.
// Phased like the LSTM step: sigmoids/tanh in place first, then the
// elementwise products and interpolation as vector primitives.
template <class Isa>
void RunGruDir(const Float* x, int in_dim, int hidden,
               const BatchLayout& layout, const GruDir& dir, bool reverse,
               Float* out, int out_stride, int col0, Arena* arena) {
  const int batch = layout.batch();
  const int zdim = in_dim + hidden;
  const int rdim = 2 * hidden;
  Float* h_prev = arena->AllocZero(static_cast<std::size_t>(batch) * hidden);
  Float* z = arena->Alloc(static_cast<std::size_t>(batch) * zdim);
  Float* rz = arena->Alloc(static_cast<std::size_t>(batch) * rdim);
  Float* zc = arena->Alloc(static_cast<std::size_t>(batch) * zdim);
  Float* cand = arena->Alloc(static_cast<std::size_t>(batch) * hidden);
  std::vector<int> lanes(batch);
  const int max_len = layout.max_len();
  for (int s = 0; s < max_len; ++s) {
    int na = 0;
    for (int b = 0; b < batch; ++b) {
      const int len = layout.len(b);
      if (len <= s) continue;
      const int t = reverse ? len - 1 - s : s;
      Float* zrow = z + static_cast<std::size_t>(na) * zdim;
      std::memcpy(zrow, x + static_cast<std::size_t>(layout.offset(b) + t) * in_dim,
                  static_cast<std::size_t>(in_dim) * sizeof(Float));
      std::memcpy(zrow + in_dim, h_prev + static_cast<std::size_t>(b) * hidden,
                  static_cast<std::size_t>(hidden) * sizeof(Float));
      lanes[na++] = b;
    }
    Affine<Isa>(z, na, *dir.rz_w, *dir.rz_b, rz, Act::kNone);
    for (int a = 0; a < na; ++a) {
      const int b = lanes[a];
      Float* rzrow = rz + static_cast<std::size_t>(a) * rdim;
      const Float* hp = h_prev + static_cast<std::size_t>(b) * hidden;
      Float* zcrow = zc + static_cast<std::size_t>(a) * zdim;
      std::memcpy(zcrow, z + static_cast<std::size_t>(a) * zdim,
                  static_cast<std::size_t>(in_dim) * sizeof(Float));
      for (int j = 0; j < hidden; ++j) rzrow[j] = SigmoidScalar(rzrow[j]);
      Isa::Mul(rzrow, hp, zcrow + in_dim, hidden);
    }
    Affine<Isa>(zc, na, *dir.cand_w, *dir.cand_b, cand, Act::kNone);
    for (int a = 0; a < na; ++a) {
      const int b = lanes[a];
      Float* rzrow = rz + static_cast<std::size_t>(a) * rdim;
      Float* crow = cand + static_cast<std::size_t>(a) * hidden;
      Float* hp = h_prev + static_cast<std::size_t>(b) * hidden;
      const int t = reverse ? layout.len(b) - 1 - s : s;
      Float* orow =
          out + static_cast<std::size_t>(layout.offset(b) + t) * out_stride +
          col0;
      for (int j = 0; j < hidden; ++j) {
        rzrow[hidden + j] = SigmoidScalar(rzrow[hidden + j]);
      }
      for (int j = 0; j < hidden; ++j) crow[j] = std::tanh(crow[j]);
      // h = (1-z)*h_prev + z*h~, into the output row, then carried forward.
      Isa::Blend(rzrow + hidden, hp, crow, orow, hidden);
      std::memcpy(hp, orow, static_cast<std::size_t>(hidden) * sizeof(Float));
    }
  }
}

}  // namespace

template <class Isa>
void BiLstm(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
            const LstmDir& fwd, const LstmDir& bwd, Float* out, Arena* arena) {
  const int stride = 2 * hidden;
  RunLstmDir<Isa>(x, in_dim, hidden, layout, fwd, /*reverse=*/false, out,
                  stride, /*col0=*/0, arena);
  RunLstmDir<Isa>(x, in_dim, hidden, layout, bwd, /*reverse=*/true, out,
                  stride, /*col0=*/hidden, arena);
}

template <class Isa>
void BiGru(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
           const GruDir& fwd, const GruDir& bwd, Float* out, Arena* arena) {
  const int stride = 2 * hidden;
  RunGruDir<Isa>(x, in_dim, hidden, layout, fwd, /*reverse=*/false, out,
                 stride, /*col0=*/0, arena);
  RunGruDir<Isa>(x, in_dim, hidden, layout, bwd, /*reverse=*/true, out,
                 stride, /*col0=*/hidden, arena);
}

// Explicit instantiations: plain calls use simd::Active, and the
// differential suite and bench_throughput also call simd::Scalar, the
// reference every ISA must match. On a scalar build the two are one type.
#define DLNER_BATCHED_INSTANTIATE(Isa)                                       \
  template void Affine<Isa>(const Float*, int, const Tensor&, const Tensor&, \
                            Float*, Act);                                    \
  template void ConvSegments<Isa>(const Float*, int, const BatchLayout&,     \
                                  int, int, const Tensor&, const Tensor&,    \
                                  Float*, Act);                              \
  template void LayerNormRows<Isa>(const Float*, int, int, const Tensor&,    \
                                   const Tensor&, Float*);                   \
  template void GlobalMaxConcat<Isa>(const Float*, int, const BatchLayout&,  \
                                     Float*);                                \
  template void MaxOverSegments<Isa>(const Float*, int, const BatchLayout&,  \
                                     Float*, int);                           \
  template void BiLstm<Isa>(const Float*, int, int, const BatchLayout&,      \
                            const LstmDir&, const LstmDir&, Float*, Arena*); \
  template void BiGru<Isa>(const Float*, int, int, const BatchLayout&,       \
                           const GruDir&, const GruDir&, Float*, Arena*);

DLNER_BATCHED_INSTANTIATE(simd::Scalar)
#ifdef __AVX2__
DLNER_BATCHED_INSTANTIATE(simd::Active)
#endif
#undef DLNER_BATCHED_INSTANTIATE

}  // namespace dlner::batched
