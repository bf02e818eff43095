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

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/arena.h"
#include "tensor/simd/simd.h"
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
};

/// One packed micro-batch as the modules' packed hooks see it
/// (TokenFeature::FillPacked, ContextEncoder::EncodePacked,
/// TagDecoder::DecodePacked): the scratch arena, the ragged layout, and the
/// token sequence of every segment (all non-empty).
struct PackedBatch {
  Arena* arena = nullptr;
  const BatchLayout* layout = nullptr;
  const std::vector<const std::vector<std::string>*>* sentences = nullptr;

  int batch() const { return layout->batch(); }
  int rows() const { return layout->rows(); }
  const std::vector<std::string>& tokens(int b) const {
    return *(*sentences)[b];
  }
  /// Uninitialized arena storage for [rows(), cols].
  Float* AllocRows(int cols) const {
    return arena->Alloc(static_cast<std::size_t>(rows()) * cols);
  }
  /// Copy of segment b's rows of the packed [rows(), d] buffer x, as the
  /// [len(b), d] matrix an eager forward takes.
  Tensor SegmentRows(const Float* x, int d, int b) const;
};

enum class Act { kNone, kRelu, kTanh };

// Every kernel is a template over the SIMD primitive set
// (tensor/simd/simd.h), defaulting to the build's simd::Active, so plain
// calls run the ISA the compile target selected. Every instantiation is
// bit-identical by contract; the differential suite checks simd::Active
// against simd::Scalar over random shapes and ragged segment mixes.
// batched.cc instantiates both simd::Scalar and simd::Active.

/// out[rows,n] = act(x[rows,k] . w[k,n] + b[n]). Same bias-first,
/// ascending-k accumulation as the eager Affine op.
template <class Isa = simd::Active>
void Affine(const Float* x, int rows, const Tensor& w, const Tensor& b,
            Float* out, Act act = Act::kNone);

/// Implicit 1-D convolution over every segment: exactly Affine over the
/// eager Unfold (im2col) of each segment, with w [width*d, n] / b [n] and
/// windows zero-padded at segment boundaries, but the window rows are read
/// from x in place instead of materializing the unfolded buffer.
/// Accumulation per output row runs in the same ascending-p order with the
/// same zero-skip as the GEMM kernel over an unfolded row (out-of-segment
/// window slots are the zeros the kernel would have skipped), so results
/// are bit-identical to the eager Conv1d. width must be odd.
template <class Isa = simd::Active>
void ConvSegments(const Float* x, int d, const BatchLayout& layout,
                  int width, int dilation, const Tensor& w, const Tensor& b,
                  Float* out, Act act = Act::kNone);

/// Per-row layer normalization replicating LayerNorm::Apply's forward
/// arithmetic (mean, biased variance, eps = 1e-5, gain/bias).
template <class Isa = simd::Active>
void LayerNormRows(const Float* x, int rows, int d, const Tensor& gain,
                   const Tensor& bias, Float* out);

/// CnnEncoder's global feature: for each segment, the column-wise max over
/// the segment's rows of h [rows, d] is appended to every row of that
/// segment; out is [rows, 2*d].
template <class Isa = simd::Active>
void GlobalMaxConcat(const Float* h, int d, const BatchLayout& layout,
                     Float* out);

/// Max-pooling over every segment, as the eager MaxOverRows per segment:
/// out row b (rows `out_stride` floats apart) is the column-wise max of
/// h's [rows, d] rows [offset(b), offset(b+1)) — seeded with the first row,
/// then the strict `>` scan in ascending row order. Every segment must be
/// non-empty.
template <class Isa = simd::Active>
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
/// Scratch comes from `arena` and is freed before returning.
template <class Isa = simd::Active>
void BiLstm(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
            const LstmDir& fwd, const LstmDir& bwd, Float* out, Arena* arena);

/// Bidirectional GRU; same contract as BiLstm.
template <class Isa = simd::Active>
void BiGru(const Float* x, int in_dim, int hidden, const BatchLayout& layout,
           const GruDir& fwd, const GruDir& bwd, Float* out, Arena* arena);

}  // namespace dlner::batched

#endif  // DLNER_TENSOR_BATCHED_H_
