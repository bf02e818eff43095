// Packed-batch forward kernels for the compiled inference plan.
//
// A micro-batch of B sentences is laid out *packed* (ragged), not padded:
// sentence b occupies rows [offsets[b], offsets[b+1]) of one [sum(T_b), d]
// row-major buffer. Because the shared GEMM kernel (tensor/gemm.h)
// accumulates every output row independently in ascending-k order, one
// GEMM over the packed buffer is bit-identical to B per-sentence
// GEMMs — which is what makes planned-vs-eager differential tests exact
// and makes results independent of batch composition (batch-order and
// thread-count invariance come for free).
//
// Sequence structure (convolution windows, recurrent steps, max-pooling)
// is handled per segment: windows never cross a sentence boundary, and the
// recurrent kernels step time per segment with an active-lane mask, so no
// padding rows ever enter a computation.
//
// Every kernel replicates the corresponding eager module's per-element
// operation order exactly; any change here must keep the planned-vs-eager
// differential suite (tests/differential_test.cc) bit-identical.
#ifndef DLNER_TENSOR_BATCHED_H_
#define DLNER_TENSOR_BATCHED_H_

#include <vector>

#include "tensor/arena.h"
#include "tensor/tensor.h"

namespace dlner::batched {

/// Ragged layout of a packed micro-batch: sentence b occupies rows
/// [offsets[b], offsets[b+1]) of the packed buffer.
struct BatchLayout {
  std::vector<int> offsets{0};

  void Add(int len) { offsets.push_back(offsets.back() + len); }
  int batch() const { return static_cast<int>(offsets.size()) - 1; }
  int rows() const { return offsets.back(); }
  int offset(int b) const { return offsets[b]; }
  int len(int b) const { return offsets[b + 1] - offsets[b]; }
  int max_len() const;
};

enum class Act { kNone, kRelu, kTanh };

/// out[rows,n] = act(x[rows,k] . w[k,n] + b[n]). Same bias-first,
/// ascending-k accumulation as the eager Affine/AffineVec ops.
void Affine(const Float* x, int rows, const Tensor& w, const Tensor& b,
            Float* out, Act act = Act::kNone);

/// In-place ReLU over a flat buffer (matches the eager Relu op).
void ReluInPlace(Float* x, int n);

/// Segment-aware im2col: the eager Unfold applied independently to every
/// segment (windows zero-padded at segment boundaries). x is [rows, d],
/// out is [rows, width*d]; width must be odd.
void UnfoldSegments(const Float* x, int d, const BatchLayout& layout,
                    int width, int dilation, Float* out);

/// Implicit 1-D convolution over every segment: exactly Affine(unfold(x))
/// with w [width*d, n] / b [n], but the window rows are read from x in
/// place instead of materializing the unfolded buffer. Accumulation per
/// output row runs in the same ascending-p order with the same zero-skip
/// as the GEMM kernel over an unfolded row (out-of-segment window slots
/// are the zeros the kernel would have skipped), so results are
/// bit-identical to UnfoldSegments + Affine.
void ConvSegments(const Float* x, int d, const BatchLayout& layout,
                  int width, int dilation, const Tensor& w, const Tensor& b,
                  Float* out, Act act = Act::kNone);

/// Per-row layer normalization replicating LayerNorm::Apply's forward
/// arithmetic (mean, biased variance, eps = 1e-5, gain/bias).
void LayerNormRows(const Float* x, int rows, int d, const Tensor& gain,
                   const Tensor& bias, Float* out);

/// CnnEncoder's global feature: for each segment, the column-wise max over
/// the segment's rows of h [rows, d] is appended to every row of that
/// segment; out is [rows, 2*d].
void GlobalMaxConcat(const Float* h, int d, const BatchLayout& layout,
                     Float* out);

/// Max-pooling over every segment, as the eager MaxOverRows per segment:
/// out row b (rows `out_stride` floats apart) is the column-wise max of
/// h's [rows, d] rows [offset(b), offset(b+1)) — seeded with the first row,
/// then the strict `>` scan in ascending row order. Every segment must be
/// non-empty.
void MaxOverSegments(const Float* h, int d, const BatchLayout& layout,
                     Float* out, int out_stride);

/// One direction of an LSTM/GRU layer, expressed by its fused parameter
/// matrices (same layout as the eager cells in tensor/rnn.h).
struct LstmDir {
  const Tensor* w = nullptr;  // [in+hid, 4*hid], gate order i, f, o, g
  const Tensor* b = nullptr;  // [4*hid]
};
struct GruDir {
  const Tensor* rz_w = nullptr;    // [in+hid, 2*hid], order r, z
  const Tensor* rz_b = nullptr;    // [2*hid]
  const Tensor* cand_w = nullptr;  // [in+hid, hid]
  const Tensor* cand_b = nullptr;  // [hid]
};

/// Bidirectional LSTM over the packed batch: time steps run across all
/// still-active segments at once (one gate GEMM per step instead of one
/// per sentence). x is [rows, in_dim], out is [rows, 2*hidden] with
/// forward states in columns [0, hidden) and backward states in
/// [hidden, 2*hidden), rows aligned with the input (as in BiRnn::Apply).
/// Scratch state comes from `arena`.
void BiLstm(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
            const LstmDir& fwd, const LstmDir& bwd, Float* out, Arena* arena);

/// Bidirectional GRU; same contract as BiLstm.
void BiGru(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
           const GruDir& fwd, const GruDir& bwd, Float* out, Arena* arena);

// --- ISA-templated variants -----------------------------------------------
//
// Each kernel above is a thin wrapper over a template parameterized on the
// SIMD primitive set (tensor/simd/simd.h). Every instantiation is
// bit-identical by contract; the differential suite checks simd::Active
// against simd::Scalar over random shapes and ragged segment mixes.
// Instantiations for simd::Scalar and simd::Active are provided by
// batched.cc.
template <class Isa>
void AffineT(const Float* x, int rows, const Tensor& w, const Tensor& b,
             Float* out, Act act = Act::kNone);
template <class Isa>
void ReluInPlaceT(Float* x, int n);
template <class Isa>
void ConvSegmentsT(const Float* x, int d, const BatchLayout& layout,
                   int width, int dilation, const Tensor& w, const Tensor& b,
                   Float* out, Act act = Act::kNone);
template <class Isa>
void LayerNormRowsT(const Float* x, int rows, int d, const Tensor& gain,
                    const Tensor& bias, Float* out);
template <class Isa>
void GlobalMaxConcatT(const Float* h, int d, const BatchLayout& layout,
                      Float* out);
template <class Isa>
void MaxOverSegmentsT(const Float* h, int d, const BatchLayout& layout,
                      Float* out, int out_stride);
template <class Isa>
void BiLstmT(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
             const LstmDir& fwd, const LstmDir& bwd, Float* out, Arena* arena);
template <class Isa>
void BiGruT(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
            const GruDir& fwd, const GruDir& bwd, Float* out, Arena* arena);

/// Benchmark hook: routes the non-template entry points above through the
/// simd::Scalar instantiations, so one binary can A/B planned-SIMD against
/// planned-scalar end to end (bench_throughput's bench.simd_speedup.*
/// series). Outputs are bit-identical either way — this only trades speed.
/// Process-wide; not meant for production use.
void ForceScalarKernels(bool force);
bool ScalarKernelsForced();

}  // namespace dlner::batched

#endif  // DLNER_TENSOR_BATCHED_H_
