#include "support/reference_kernels.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"
#include "tensor/simd/simd.h"

namespace dlner::testsup {

Tensor RandomTensor(std::vector<int> shape, Rng* rng, Float lo, Float hi,
                    double zero_prob) {
  Tensor t(std::move(shape));
  for (int i = 0; i < t.size(); ++i) {
    t[i] = rng->Bernoulli(zero_prob) ? 0.0 : rng->Uniform(lo, hi);
  }
  return t;
}

Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  DLNER_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor c({m, n});
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      Float s = 0.0;
      for (int p = 0; p < k; ++p) s += a.at(i, p) * b.at(p, j);
      c.at(i, j) = s;
    }
  }
  return c;
}

Tensor NaiveAffine(const Tensor& x, const Tensor& w, const Tensor& b) {
  Tensor c = NaiveMatMul(x, w);
  DLNER_CHECK_EQ(b.size(), c.cols());
  for (int i = 0; i < c.rows(); ++i) {
    for (int j = 0; j < c.cols(); ++j) c.at(i, j) += b[j];
  }
  return c;
}

Tensor NaiveAffineVec(const Tensor& x, const Tensor& w, const Tensor& b) {
  DLNER_CHECK_EQ(x.size(), w.rows());
  DLNER_CHECK_EQ(b.size(), w.cols());
  Tensor out({w.cols()});
  for (int j = 0; j < w.cols(); ++j) {
    Float s = b[j];
    for (int p = 0; p < w.rows(); ++p) s += x[p] * w.at(p, j);
    out[j] = s;
  }
  return out;
}

Float NaiveLogSumExp(const std::vector<Float>& scores) {
  DLNER_CHECK(!scores.empty());
  Float mx = scores[0];
  for (Float s : scores) mx = std::max(mx, s);
  Float acc = 0.0;
  for (Float s : scores) acc += std::exp(s - mx);
  return mx + std::log(acc);
}

namespace {
template <typename F>
Tensor Elementwise(const Tensor& t, F f) {
  Tensor out = t;
  for (int i = 0; i < out.size(); ++i) out[i] = f(out[i]);
  return out;
}
}  // namespace

Tensor NaiveTanh(const Tensor& t) {
  Tensor out = t;
  simd::Scalar::Tanh(out.data(), out.size());
  return out;
}

Tensor NaiveSigmoid(const Tensor& t) {
  Tensor out = t;
  simd::Scalar::Sigmoid(out.data(), out.size());
  return out;
}

Tensor NaiveRelu(const Tensor& t) {
  return Elementwise(t, [](Float x) { return x > 0.0 ? x : 0.0; });
}

Float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  DLNER_CHECK_MSG(a.SameShape(b), a.ShapeString() << " vs "
                                                  << b.ShapeString());
  Float worst = 0.0;
  for (int i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

}  // namespace dlner::testsup
