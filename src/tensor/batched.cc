#include "tensor/batched.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "tensor/gemm.h"

namespace dlner::batched {

Tensor PackedBatch::SegmentRows(const Float* x, int d, int b) const {
  Tensor m({layout->len(b), d});
  std::memcpy(m.data(), x + static_cast<std::size_t>(layout->offset(b)) * d,
              static_cast<std::size_t>(m.size()) * sizeof(Float));
  return m;
}

// Activation epilogue shared by the affine/conv kernels. Both activations
// are ISA primitives whose every ISA matches the scalar reference bit for
// bit: ReLU a comparison-select, tanh the fixed expm1 sequence of
// kernels_scalar.h (the eager Tanh/AffineTanh run the same one).
template <class Isa>
void ApplyAct(Float* x, int n, Act act) {
  switch (act) {
    case Act::kNone:
      break;
    case Act::kRelu:
      Isa::Relu(x, n);
      break;
    case Act::kTanh:
      Isa::Tanh(x, n);
      break;
  }
}

namespace {

// out[rows, n] = bias + x[rows, k] . w[k, n], with w's rows n floats apart:
// every row starts from the bias, then accumulates in ascending k.
template <class Isa>
void BiasGemm(const Float* x, int rows, int k, const Float* w, int n,
              const Float* bias, Float* out) {
  for (int i = 0; i < rows; ++i) {
    std::memcpy(out + static_cast<std::size_t>(i) * n, bias,
                sizeof(Float) * static_cast<std::size_t>(n));
  }
  gemm::GemmAccum<Isa>(x, w, out, rows, k, n);
}

}  // namespace

template <class Isa>
void Affine(const Float* x, int rows, const Tensor& w, const Tensor& b,
            Float* out, Act act) {
  DLNER_CHECK_EQ(w.dim(), 2);
  DLNER_CHECK_EQ(b.dim(), 1);
  const int n = w.cols();
  DLNER_CHECK_EQ(n, b.size());
  BiasGemm<Isa>(x, rows, w.rows(), w.data(), n, b.data(), out);
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

// Lanes of a packed layout for the recurrent kernels: segment indices
// ordered by descending length (stable), so the segments still active at
// step s are always a prefix of the order and per-lane state rows stay
// contiguous without compaction. Rows of a GEMM are independent, so the
// lane order never changes a value.
struct Lanes {
  explicit Lanes(const BatchLayout& layout) : layout(layout) {
    order.resize(layout.batch());
    for (int b = 0; b < layout.batch(); ++b) order[b] = b;
    std::stable_sort(order.begin(), order.end(), [&](int x, int y) {
      return layout.len(x) > layout.len(y);
    });
  }
  // Lanes active at step s, given the na active at step s - 1.
  int ActiveAt(int s, int na) const {
    while (na > 0 && layout.len(order[na - 1]) <= s) --na;
    return na;
  }
  // Packed row of lane a at step s.
  std::size_t Row(int a, int s, bool reverse) const {
    const int b = order[a];
    return static_cast<std::size_t>(layout.offset(b) +
                                    (reverse ? layout.len(b) - 1 - s : s));
  }

  const BatchLayout& layout;
  std::vector<int> order;
};

// Copies each active lane's pre-projected row into dst (rows n apart).
void GatherPre(const Lanes& lanes, int na, int s, bool reverse,
               const Float* pre, int n, Float* dst) {
  for (int a = 0; a < na; ++a) {
    std::memcpy(dst + static_cast<std::size_t>(a) * n,
                pre + lanes.Row(a, s, reverse) * n,
                static_cast<std::size_t>(n) * sizeof(Float));
  }
}

// One direction of a packed-batch LSTM layer. The eager cell computes
// gates = b + [x_t, h] . W in ascending row order of W, so the input
// projection pre = b + x . W[0:in] is hoisted out of the recurrence as one
// GEMM over every row of the layout; each step then copies the active
// lanes' pre rows and accumulates h . W[in:] onto them with one GEMM over
// the active lanes. Every element keeps its operation sequence (bias, the
// x terms, then the h terms, each ascending), so the hoist is bit-identical.
// The step then applies exactly the eager cell's per-element arithmetic:
// gates order i,f,o,g; c = f*c + i*g; h = o*tanh(c) — all gate
// nonlinearities first, then the state update, every step an ISA
// primitive. `pre` is [rows, 4*hidden] scratch; `h`, `c` and `gates` hold
// one row per lane.
template <class Isa>
void RunLstmDir(const Float* x, int in_dim, int hidden, const Lanes& lanes,
                const LstmDir& dir, bool reverse, Float* pre, Float* h,
                Float* c, Float* gates, Float* out, int out_stride,
                int col0) {
  const BatchLayout& layout = lanes.layout;
  const int gdim = 4 * hidden;
  const Tensor& w = *dir.w;
  DLNER_CHECK_EQ(w.rows(), in_dim + hidden);
  DLNER_CHECK_EQ(w.cols(), gdim);
  DLNER_CHECK_EQ(dir.b->size(), gdim);
  const Float* w_h = w.data() + static_cast<std::size_t>(in_dim) * gdim;
  BiasGemm<Isa>(x, layout.rows(), in_dim, w.data(), gdim, dir.b->data(), pre);
  const std::size_t state = static_cast<std::size_t>(layout.batch()) * hidden;
  std::memset(h, 0, state * sizeof(Float));
  std::memset(c, 0, state * sizeof(Float));
  int na = layout.batch();
  for (int s = 0; (na = lanes.ActiveAt(s, na)) > 0; ++s) {
    GatherPre(lanes, na, s, reverse, pre, gdim, gates);
    gemm::GemmAccum<Isa>(h, w_h, gates, na, hidden, gdim);
    for (int a = 0; a < na; ++a) {
      Float* g = gates + static_cast<std::size_t>(a) * gdim;
      Float* hp = h + static_cast<std::size_t>(a) * hidden;
      Float* cp = c + static_cast<std::size_t>(a) * hidden;
      Float* orow = out + lanes.Row(a, s, reverse) * out_stride + col0;
      Isa::Sigmoid(g, 3 * hidden);
      Isa::Tanh(g + 3 * hidden, hidden);
      // c = f*c_prev + i*g, in place over c_prev (same-offset aliasing is
      // allowed by the primitive contract).
      Isa::MulMulAdd(g + hidden, cp, g, g + 3 * hidden, cp, hidden);
      // h = o*tanh(c), with tanh(c) in the spent i gate's slot.
      std::memcpy(g, cp, static_cast<std::size_t>(hidden) * sizeof(Float));
      Isa::Tanh(g, hidden);
      Isa::Mul(g + 2 * hidden, g, hp, hidden);
      std::memcpy(orow, hp, static_cast<std::size_t>(hidden) * sizeof(Float));
    }
  }
}

// One direction of a packed-batch GRU layer; mirrors GruCell::Step:
// r,z gates from [x, h]; candidate from [x, r*h]; h = (1-z)*h + z*h~.
// Both input projections are hoisted as in RunLstmDir (pre_rz and pre_c
// hold b + x . W[0:in] for every row), and each step accumulates h . W[in:]
// and (r*h) . W[in:] onto copies of the lanes' rows. Phased like the LSTM
// step: sigmoids/tanh in place first, then the elementwise products and
// interpolation, all as ISA primitives.
template <class Isa>
void RunGruDir(const Float* x, int in_dim, int hidden, const Lanes& lanes,
               const GruDir& dir, bool reverse, Float* pre_rz, Float* pre_c,
               Float* h, Float* rz, Float* rh, Float* cand, Float* out,
               int out_stride, int col0) {
  const BatchLayout& layout = lanes.layout;
  const int rdim = 2 * hidden;
  const Tensor& rz_w = *dir.rz_w;
  const Tensor& cand_w = *dir.cand_w;
  DLNER_CHECK_EQ(rz_w.rows(), in_dim + hidden);
  DLNER_CHECK_EQ(rz_w.cols(), rdim);
  DLNER_CHECK_EQ(cand_w.rows(), in_dim + hidden);
  DLNER_CHECK_EQ(cand_w.cols(), hidden);
  DLNER_CHECK_EQ(dir.rz_b->size(), rdim);
  DLNER_CHECK_EQ(dir.cand_b->size(), hidden);
  const Float* rz_wh = rz_w.data() + static_cast<std::size_t>(in_dim) * rdim;
  const Float* cand_wh =
      cand_w.data() + static_cast<std::size_t>(in_dim) * hidden;
  BiasGemm<Isa>(x, layout.rows(), in_dim, rz_w.data(), rdim,
                dir.rz_b->data(), pre_rz);
  BiasGemm<Isa>(x, layout.rows(), in_dim, cand_w.data(), hidden,
                dir.cand_b->data(), pre_c);
  std::memset(h, 0,
              static_cast<std::size_t>(layout.batch()) * hidden *
                  sizeof(Float));
  int na = layout.batch();
  for (int s = 0; (na = lanes.ActiveAt(s, na)) > 0; ++s) {
    GatherPre(lanes, na, s, reverse, pre_rz, rdim, rz);
    gemm::GemmAccum<Isa>(h, rz_wh, rz, na, hidden, rdim);
    for (int a = 0; a < na; ++a) {
      Float* rzrow = rz + static_cast<std::size_t>(a) * rdim;
      Isa::Sigmoid(rzrow, hidden);
      Isa::Mul(rzrow, h + static_cast<std::size_t>(a) * hidden,
               rh + static_cast<std::size_t>(a) * hidden, hidden);
    }
    GatherPre(lanes, na, s, reverse, pre_c, hidden, cand);
    gemm::GemmAccum<Isa>(rh, cand_wh, cand, na, hidden, hidden);
    for (int a = 0; a < na; ++a) {
      Float* rzrow = rz + static_cast<std::size_t>(a) * rdim;
      Float* crow = cand + static_cast<std::size_t>(a) * hidden;
      Float* hp = h + static_cast<std::size_t>(a) * hidden;
      Float* orow = out + lanes.Row(a, s, reverse) * out_stride + col0;
      Isa::Sigmoid(rzrow + hidden, hidden);
      Isa::Tanh(crow, hidden);
      // h = (1-z)*h_prev + z*h~, into the output row, then carried forward.
      Isa::Blend(rzrow + hidden, hp, crow, orow, hidden);
      std::memcpy(hp, orow, static_cast<std::size_t>(hidden) * sizeof(Float));
    }
  }
}

}  // namespace

// Both directions share one layer's scratch: the hoisted projection is
// recomputed into the same `pre` rows by the backward pass, and the lane
// state is re-zeroed, so the arena holds one copy, not two, and frees it
// when the layer returns.
template <class Isa>
void BiLstm(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
            const LstmDir& fwd, const LstmDir& bwd, Float* out, Arena* arena) {
  const Arena::Scope scratch(arena);
  const Lanes lanes(layout);
  const std::size_t batch = layout.batch();
  const std::size_t gdim = 4 * static_cast<std::size_t>(hidden);
  Float* pre = arena->Alloc(static_cast<std::size_t>(layout.rows()) * gdim);
  Float* h = arena->Alloc(batch * hidden);
  Float* c = arena->Alloc(batch * hidden);
  Float* gates = arena->Alloc(batch * gdim);
  const int stride = 2 * hidden;
  RunLstmDir<Isa>(x, in_dim, hidden, lanes, fwd, /*reverse=*/false, pre, h,
                  c, gates, out, stride, /*col0=*/0);
  RunLstmDir<Isa>(x, in_dim, hidden, lanes, bwd, /*reverse=*/true, pre, h, c,
                  gates, out, stride, /*col0=*/hidden);
}

template <class Isa>
void BiGru(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
           const GruDir& fwd, const GruDir& bwd, Float* out, Arena* arena) {
  const Arena::Scope scratch(arena);
  const Lanes lanes(layout);
  const std::size_t batch = layout.batch();
  const std::size_t rows = layout.rows();
  Float* pre_rz = arena->Alloc(rows * 2 * hidden);
  Float* pre_c = arena->Alloc(rows * hidden);
  Float* h = arena->Alloc(batch * hidden);
  Float* rz = arena->Alloc(batch * 2 * hidden);
  Float* rh = arena->Alloc(batch * hidden);
  Float* cand = arena->Alloc(batch * hidden);
  const int stride = 2 * hidden;
  RunGruDir<Isa>(x, in_dim, hidden, lanes, fwd, /*reverse=*/false, pre_rz,
                 pre_c, h, rz, rh, cand, out, stride, /*col0=*/0);
  RunGruDir<Isa>(x, in_dim, hidden, lanes, bwd, /*reverse=*/true, pre_rz,
                 pre_c, h, rz, rh, cand, out, stride, /*col0=*/hidden);
}

// Explicit instantiations: every ISA the compile target supports. Plain
// calls use simd::Active; the differential suite pits each ISA against
// simd::Scalar, the reference every ISA must match, and bench_throughput
// times Active against Scalar.
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
DLNER_BATCHED_INSTANTIATE(simd::Avx2)
#endif
#ifdef __AVX512F__
DLNER_BATCHED_INSTANTIATE(simd::Avx512)
#endif
#undef DLNER_BATCHED_INSTANTIATE

}  // namespace dlner::batched
