// Reusable neural-network building blocks on top of the autograd ops.
//
// Modules own their Parameter Variables and expose them through
// Parameters(); optimizers and serializers operate on those lists. Modules
// are identity objects (non-copyable), mirroring the style-guide rule that
// classes with ownership semantics make copyability explicit.
#ifndef DLNER_TENSOR_NN_H_
#define DLNER_TENSOR_NN_H_

#include <span>
#include <string>
#include <vector>

#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/variable.h"

namespace dlner {

/// Base class for anything that owns trainable parameters.
class Module {
 public:
  virtual ~Module() = default;
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module (and submodules).
  virtual std::vector<Var> Parameters() const = 0;

  /// Total scalar parameter count.
  int ParameterCount() const;
};

/// Concatenates the parameter lists of several modules.
std::vector<Var> JoinParameters(
    const std::vector<const Module*>& modules);

// ---------------------------------------------------------------------------
// Initialization helpers.
// ---------------------------------------------------------------------------

/// Glorot/Xavier-uniform matrix [rows, cols].
Tensor GlorotMatrix(int rows, int cols, Rng* rng);
/// Uniform matrix in [-scale, scale].
Tensor UniformMatrix(int rows, int cols, Float scale, Rng* rng);
/// Uniform vector in [-scale, scale].
Tensor UniformVector(int n, Float scale, Rng* rng);

/// RAII guard for building modules whose every parameter a checkpoint is
/// about to overwrite (Pipeline::Load and the LM loaders). While one is
/// alive on the current thread, the three helpers above leave the Rng
/// untouched and return Tensor::Uninitialized storage, which the innermost
/// guard records in unwritten(). The owner writes that storage before
/// anything reads it: Pipeline::Load zero-fills it on every runtime thread,
/// and the LM loaders, whose modules make nothing but parameters, discard
/// the module unless LoadParameters restored every parameter. Training
/// never runs under it.
class SkipInitGuard {
 public:
  SkipInitGuard();
  ~SkipInitGuard();
  SkipInitGuard(const SkipInitGuard&) = delete;
  SkipInitGuard& operator=(const SkipInitGuard&) = delete;

  /// The storage of every tensor the helpers returned unwritten while this
  /// was the innermost guard, in creation order. Each span stays valid
  /// while its tensor lives (a move keeps the buffer).
  const std::vector<std::span<Float>>& unwritten() const { return unwritten_; }

 private:
  std::vector<std::span<Float>>* prev_;
  std::vector<std::span<Float>> unwritten_;
};

// ---------------------------------------------------------------------------
// Extra structural ops used by modules (fused for efficiency).
// ---------------------------------------------------------------------------

/// Contiguous slice [start, start+len) of a vector.
Var SliceVec(const Var& v, int start, int len);

/// im2col for 1-D convolution over time: input [T, D] -> [T, width*D],
/// where output row t concatenates rows t + k*dilation for the window
/// offsets k in [-(width/2), width/2], zero-padded outside the sequence.
/// `width` must be odd.
Var Unfold(const Var& m, int width, int dilation);

// ---------------------------------------------------------------------------
// Modules.
// ---------------------------------------------------------------------------

/// Affine map y = xW + b.
class Linear : public Module {
 public:
  Linear(int in_dim, int out_dim, Rng* rng, const std::string& name = "linear");

  /// Applies to a matrix [T, in] -> [T, out], or to a vector [in] -> [out].
  Var Apply(const Var& x) const;
  /// Apply followed by tanh, fused into one graph node.
  Var ApplyTanh(const Var& x) const;

  std::vector<Var> Parameters() const override { return {weight_, bias_}; }
  int in_dim() const { return in_dim_; }
  int out_dim() const { return out_dim_; }
  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }

 private:
  int in_dim_;
  int out_dim_;
  Var weight_;  // [in, out]
  Var bias_;    // [out]
};

/// Token-id to vector lookup table.
class Embedding : public Module {
 public:
  Embedding(int vocab_size, int dim, Rng* rng,
            const std::string& name = "embedding");

  /// Looks up a sequence of ids -> [ids.size(), dim].
  Var Lookup(const std::vector<int>& ids) const;
  /// Looks up a single id -> [dim].
  Var LookupOne(int id) const;

  /// Overwrites row `id` with the given vector (used to load pre-trained
  /// embeddings).
  void SetRow(int id, const std::vector<Float>& values);

  /// Freezes (or unfreezes) the table: frozen tables receive no gradient
  /// updates, matching the "pre-trained embeddings kept fixed" option
  /// discussed in the survey (Section 3.2.1).
  void set_trainable(bool trainable) { table_->requires_grad = trainable; }
  bool trainable() const { return table_->requires_grad; }

  /// The table is always reported (so serialization captures frozen
  /// pre-trained vectors); optimizers skip parameters whose requires_grad
  /// is false.
  std::vector<Var> Parameters() const override { return {table_}; }
  int vocab_size() const { return vocab_size_; }
  int dim() const { return dim_; }
  const Var& table() const { return table_; }

 private:
  int vocab_size_;
  int dim_;
  Var table_;  // [V, dim]
};

/// Per-row layer normalization with learned gain and bias.
class LayerNorm : public Module {
 public:
  explicit LayerNorm(int dim, const std::string& name = "layernorm");

  /// Normalizes each row of [T, dim].
  Var Apply(const Var& x) const;

  std::vector<Var> Parameters() const override { return {gain_, bias_}; }
  const Var& gain() const { return gain_; }
  const Var& bias() const { return bias_; }

 private:
  int dim_;
  Var gain_;  // [dim]
  Var bias_;  // [dim]
};

/// 1-D convolution over the time axis with zero padding (same length) and
/// optional dilation; the workhorse of char-CNNs (Fig. 3a), the sentence
/// approach network (Fig. 5), and ID-CNN blocks (Fig. 6).
class Conv1d : public Module {
 public:
  Conv1d(int in_dim, int out_dim, int width, int dilation, Rng* rng,
         const std::string& name = "conv1d");

  /// Input [T, in] -> output [T, out].
  Var Apply(const Var& x) const;

  std::vector<Var> Parameters() const override { return {weight_, bias_}; }
  int width() const { return width_; }
  int dilation() const { return dilation_; }
  const Var& weight() const { return weight_; }
  const Var& bias() const { return bias_; }

 private:
  int width_;
  int dilation_;
  Var weight_;  // [width*in, out]
  Var bias_;    // [out]
};

}  // namespace dlner

#endif  // DLNER_TENSOR_NN_H_
