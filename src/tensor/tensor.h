// Dense row-major tensor of doubles.
//
// The library's workloads are sentence-scale NER models, so tensors are
// small (at most a few thousand elements); the representation favors
// simplicity and numerical robustness (double precision keeps CRF dynamic
// programs and finite-difference gradient checks stable) over SIMD
// micro-optimization.
#ifndef DLNER_TENSOR_TENSOR_H_
#define DLNER_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "tensor/check.h"

namespace dlner {

/// Scalar type used throughout the library.
using Float = double;

/// std::allocator, except that construction without a value
/// default-initializes: std::vector<Float, DefaultInitAllocator<Float>>(n)
/// allocates n doubles without writing them, so no page of a large buffer
/// is touched before its owner writes it.
template <typename T>
class DefaultInitAllocator : public std::allocator<T> {
 public:
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  // Construction from values falls back to std::construct_at.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

/// A dense row-major tensor. Rank 1 and 2 cover every model in the toolkit;
/// higher ranks are representable but no op requires them.
class Tensor {
 public:
  /// Element storage: a vector whose sized construction leaves the
  /// elements unwritten (see Uninitialized).
  using Storage = std::vector<Float, DefaultInitAllocator<Float>>;

  Tensor() = default;

  /// Zero-filled tensor with the given shape.
  explicit Tensor(std::vector<int> shape);

  /// Tensor with the given shape and explicit contents (row-major).
  Tensor(std::vector<int> shape, Storage data);

  /// Tensor with the given shape whose elements are allocated but not
  /// written: reading one before writing it is undefined. For buffers
  /// every element of which is about to be overwritten.
  static Tensor Uninitialized(std::vector<int> shape);

  // Copies/moves participate in the allocation accounting below. Defined
  // inline so the disabled path stays as cheap as the defaulted members:
  // one relaxed load (copy), one integer move (move), one member branch
  // (destructor) — no out-of-line call on the hot path.
  Tensor(const Tensor& other) : shape_(other.shape_), data_(other.data_) {
    if (obs::MetricsEnabled()) TrackAlloc();
  }
  Tensor(Tensor&& other) noexcept
      : shape_(std::move(other.shape_)),
        data_(std::move(other.data_)),
        tracked_bytes_(other.tracked_bytes_) {
    other.tracked_bytes_ = 0;
  }
  Tensor& operator=(const Tensor& other) {
    if (this == &other) return *this;
    if (tracked_bytes_ != 0) ReleaseTracked();
    shape_ = other.shape_;
    data_ = other.data_;
    if (obs::MetricsEnabled()) TrackAlloc();
    return *this;
  }
  Tensor& operator=(Tensor&& other) noexcept {
    if (this == &other) return *this;
    if (tracked_bytes_ != 0) ReleaseTracked();
    shape_ = std::move(other.shape_);
    data_ = std::move(other.data_);
    tracked_bytes_ = other.tracked_bytes_;
    other.tracked_bytes_ = 0;
    return *this;
  }
  ~Tensor() {
    if (tracked_bytes_ != 0) ReleaseTracked();
  }

  /// Rank-1 tensor from values.
  static Tensor FromVector(const std::vector<Float>& values);
  /// Tensor of the given shape filled with a constant.
  static Tensor Full(std::vector<int> shape, Float value);

  int dim() const { return static_cast<int>(shape_.size()); }
  const std::vector<int>& shape() const { return shape_; }
  int shape(int axis) const;
  int size() const { return static_cast<int>(data_.size()); }
  bool empty() const { return data_.empty(); }

  /// Number of rows / columns; requires rank 2.
  int rows() const;
  int cols() const;

  Float* data() { return data_.data(); }
  const Float* data() const { return data_.data(); }

  /// Flat element access.
  Float& operator[](int i);
  Float operator[](int i) const;

  /// 2-D element access; requires rank 2.
  Float& at(int r, int c);
  Float at(int r, int c) const;

  /// Sets every element to the given value.
  void Fill(Float value);

  /// Adds `other` elementwise into this tensor. Shapes must match.
  void AccumulateFrom(const Tensor& other);

  /// Euclidean norm of all elements.
  Float Norm() const;

  /// Order- and bit-sensitive FNV-1a hash over the shape and the raw bytes
  /// of every element. Two tensors fingerprint equally iff their shapes
  /// match and every element is bit-identical (distinguishing signed zeros
  /// and NaN payloads), which is what the determinism and round-trip
  /// invariance tests compare.
  std::uint64_t Fingerprint() const;

  /// True when shapes and all elements match exactly.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Human-readable short description, e.g. "[3x4]".
  std::string ShapeString() const;

 private:
  // Registers this tensor's payload with the process-wide allocation
  // metrics (obs::Metrics "tensor.*" series) when metric collection is on.
  void TrackAlloc();
  // Unregisters exactly what TrackAlloc registered, keeping the live-bytes
  // gauge balanced even when metrics toggle mid-lifetime.
  void ReleaseTracked();

  std::vector<int> shape_;
  Storage data_;
  // Bytes this tensor added to the live-bytes gauge; 0 when it was created
  // with metrics disabled (then the destructor is branch-only).
  std::int64_t tracked_bytes_ = 0;
};

}  // namespace dlner

#endif  // DLNER_TENSOR_TENSOR_H_
