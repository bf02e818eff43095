// Naive reference implementations of the tensor hot kernels.
//
// These are deliberately the textbook forms — O(n^3) triple-loop MatMul
// with no blocking or zero-skipping, and unfused affine + activation
// compositions — so the differential suite can pit every fused/blocked
// fast path in src/tensor/ops.cc against an implementation too simple to
// share its bugs.
#ifndef DLNER_TESTS_SUPPORT_REFERENCE_KERNELS_H_
#define DLNER_TESTS_SUPPORT_REFERENCE_KERNELS_H_

#include <vector>

#include "tensor/rng.h"
#include "tensor/tensor.h"

namespace dlner::testsup {

/// Random tensor with entries uniform in [lo, hi); each entry is
/// independently zeroed with probability `zero_prob` so the zero-skipping
/// GEMM branch is exercised.
Tensor RandomTensor(std::vector<int> shape, Rng* rng, Float lo, Float hi,
                    double zero_prob = 0.0);

/// C[m,n] = A[m,k] * B[k,n], textbook triple loop.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b);

/// x [m,k] * w [k,n] + row-broadcast b [n].
Tensor NaiveAffine(const Tensor& x, const Tensor& w, const Tensor& b);

/// x [k] * w [k,n] + b [n].
Tensor NaiveAffineVec(const Tensor& x, const Tensor& w, const Tensor& b);

/// log(sum(exp(scores))) with the usual max shift, over a whole vector.
Float NaiveLogSumExp(const std::vector<Float>& scores);

// Elementwise references for the fused/in-place activation paths. Tanh and
// Sigmoid apply the scalar reference sequence (simd::Scalar) element by
// element; its closeness to libm is tested on its own (differential_test's
// ScalarIsWithinFourUlpOfLibm).
Tensor NaiveTanh(const Tensor& t);
Tensor NaiveSigmoid(const Tensor& t);
Tensor NaiveRelu(const Tensor& t);

/// Largest elementwise |a - b|; requires equal shapes.
Float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace dlner::testsup

#endif  // DLNER_TESTS_SUPPORT_REFERENCE_KERNELS_H_
