#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"

namespace dlner {
namespace {

int NumElements(const std::vector<int>& shape) {
  int n = 1;
  for (int d : shape) {
    DLNER_CHECK_GE(d, 0);
    n *= d;
  }
  return n;
}

// Cached instrument pointers (stable for the process lifetime) so the
// enabled path of allocation accounting is four relaxed atomic ops, not a
// registry lookup.
struct TensorMetrics {
  obs::Counter* allocs;
  obs::Counter* alloc_bytes;
  obs::Gauge* live_bytes;
  obs::Gauge* peak_bytes;
};

const TensorMetrics& Tm() {
  static const TensorMetrics tm = [] {
    obs::Metrics& m = obs::Metrics::Get();
    return TensorMetrics{m.counter("tensor.allocs"),
                         m.counter("tensor.alloc_bytes"),
                         m.gauge("tensor.live_bytes"),
                         m.gauge("tensor.peak_bytes")};
  }();
  return tm;
}

}  // namespace

void Tensor::TrackAlloc() {
  if (!obs::MetricsEnabled()) return;
  tracked_bytes_ =
      static_cast<std::int64_t>(data_.size() * sizeof(Float));
  const TensorMetrics& tm = Tm();
  tm.allocs->Add(1);
  tm.alloc_bytes->Add(tracked_bytes_);
  tm.peak_bytes->SetMax(
      tm.live_bytes->Add(static_cast<double>(tracked_bytes_)));
}

void Tensor::ReleaseTracked() {
  if (tracked_bytes_ == 0) return;
  Tm().live_bytes->Add(-static_cast<double>(tracked_bytes_));
  tracked_bytes_ = 0;
}

Tensor::Tensor(std::vector<int> shape)
    : shape_(std::move(shape)), data_(NumElements(shape_), 0.0) {
  TrackAlloc();
}

Tensor::Tensor(std::vector<int> shape, Storage data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  DLNER_CHECK_EQ(NumElements(shape_), static_cast<int>(data_.size()));
  TrackAlloc();
}

Tensor Tensor::Uninitialized(std::vector<int> shape) {
  const int n = NumElements(shape);
  return Tensor(std::move(shape), Storage(n));
}

Tensor Tensor::Full(std::vector<int> shape, Float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

int Tensor::shape(int axis) const {
  DLNER_CHECK_GE(axis, 0);
  DLNER_CHECK_LT(axis, dim());
  return shape_[axis];
}

int Tensor::rows() const {
  DLNER_CHECK_EQ(dim(), 2);
  return shape_[0];
}

int Tensor::cols() const {
  DLNER_CHECK_EQ(dim(), 2);
  return shape_[1];
}

Float& Tensor::operator[](int i) {
  DLNER_CHECK_GE(i, 0);
  DLNER_CHECK_LT(i, size());
  return data_[i];
}

Float Tensor::operator[](int i) const {
  DLNER_CHECK_GE(i, 0);
  DLNER_CHECK_LT(i, size());
  return data_[i];
}

Float& Tensor::at(int r, int c) {
  DLNER_CHECK_EQ(dim(), 2);
  DLNER_CHECK_GE(r, 0);
  DLNER_CHECK_LT(r, shape_[0]);
  DLNER_CHECK_GE(c, 0);
  DLNER_CHECK_LT(c, shape_[1]);
  return data_[r * shape_[1] + c];
}

Float Tensor::at(int r, int c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

void Tensor::Fill(Float value) {
  for (Float& x : data_) x = value;
}

void Tensor::AccumulateFrom(const Tensor& other) {
  DLNER_CHECK_MSG(SameShape(other), ShapeString() << " vs "
                                                  << other.ShapeString());
  for (int i = 0; i < size(); ++i) data_[i] += other.data_[i];
}

Float Tensor::Norm() const {
  Float s = 0.0;
  for (Float x : data_) s += x * x;
  return std::sqrt(s);
}

std::string Tensor::ShapeString() const {
  std::ostringstream oss;
  oss << "[";
  for (int i = 0; i < dim(); ++i) {
    if (i > 0) oss << "x";
    oss << shape_[i];
  }
  oss << "]";
  return oss.str();
}

}  // namespace dlner
