// Scalar reference implementation of the SIMD primitive set.
//
// The per-element arithmetic here IS the contract: every vector ISA
// (simd::Vector in kernels_vector.h, at the lane widths of kernels_avx2.h
// and kernels_avx512.h) must produce bit-identical results, element for
// element, which the differential suite enforces by comparing each
// compiled ISA against simd::Scalar. This file is written by hand and
// never built from kernels_vector.h, so the reference shares no code with
// what it checks. Practical rules that follow (docs/PERFORMANCE.md, "SIMD
// kernels"):
//
//  * Multiplies and adds stay separate operations — never FMA — because
//    the whole tree builds with -ffp-contract=off and the planned-vs-eager
//    bit-identity contract depends on it.
//  * Additive reductions keep their exact order; only max-based reductions
//    (RowMax), which are exact in any evaluation order, may be
//    reassociated by a vector ISA.
//  * Comparison-select semantics (Relu, RowMax, clamps) are part of the
//    contract, including NaN and signed-zero behavior: each primitive
//    documents the exact scalar expression vector code must reproduce.
//  * The transcendentals (Sigmoid, Tanh) are defined here as one fixed
//    operation sequence (a Cody–Waite reduction, a Horner polynomial and
//    exponent-bit scaling), not as libm calls, so their results depend on
//    neither the ISA nor the host's libm.
//
// Unless noted otherwise, `out` may alias an input pointer at the SAME
// element offset (in-place update); partially overlapping buffers are not
// allowed.
#ifndef DLNER_TENSOR_SIMD_KERNELS_SCALAR_H_
#define DLNER_TENSOR_SIMD_KERNELS_SCALAR_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>

// Keep the reference truly scalar: without this, -march=native lets the
// compiler auto-vectorize these loops into the same code as the explicit
// ISA kernels, and both the simd-vs-scalar differential suite and the
// bench.scalar.* kernel series would be comparing SIMD against SIMD.
// Auto-vectorization is value-preserving (we build with -ffp-contract=off
// and without -ffast-math), so disabling it cannot change results — only
// make the scalar fallback honest about its cost.
#if defined(__GNUC__) && !defined(__clang__)
#define DLNER_SCALAR_ONLY \
  __attribute__((optimize("no-tree-vectorize", "no-tree-slp-vectorize")))
#else
#define DLNER_SCALAR_ONLY
#endif

namespace dlner::simd {

// Constants of the e^t sequence behind Sigmoid and Tanh (Scalar::ExpReduce
// spells it out). Every ISA reads them from here.
namespace exp_seq {
// 1.5 * 2^52: t * log2(e) + kShift rounds to the nearest integer k, which
// then sits in the low mantissa bits of the sum.
inline constexpr double kShift = 0x1.8p52;
inline constexpr double kLog2e = 0x1.71547652b82fep0;
// ln 2 = kLn2Hi + kLn2Lo; kLn2Hi has 32 significant bits, so k * kLn2Hi is
// exact for |k| < 2^21.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
// Taylor coefficients of e^r - 1 = r * (1 + r/2! + ... + r^12/13!), in
// Horner order (1/13! first). On |r| <= ln2/2 the truncation error is below
// 6e-18, 0.2 ulp of e^r - 1.
inline constexpr double kPoly[] = {
    1.0 / 6227020800.0, 1.0 / 479001600.0, 1.0 / 39916800.0,
    1.0 / 3628800.0,    1.0 / 362880.0,    1.0 / 40320.0,
    1.0 / 5040.0,       1.0 / 720.0,       1.0 / 120.0,
    1.0 / 24.0,         1.0 / 6.0,         1.0 / 2.0,
    1.0};
// Sigmoid's exponent t = -x is clamped to [kSigmoidMin, kSigmoidMax]:
// e^-40 < 2^-53, so 1 + e^t rounds to 1 below the clamp exactly as it
// would unclamped, and e^710 overflows to +inf, so 1 / (1 + e^t) is +0.
inline constexpr double kSigmoidMin = -40.0;
inline constexpr double kSigmoidMax = 710.0;
// Tanh's |x| is clamped to kTanhMax: e = expm1(40) is so large that
// e / (e + 2) rounds to exactly 1, as tanh(x) does for every |x| >= 19.1.
inline constexpr double kTanhMax = 20.0;
inline constexpr std::uint64_t kSignBit = 0x8000000000000000u;
// Exponent biases that turn the k bits into 2^(k-1) (Sigmoid, whose k
// reaches 1024 at t = 710) and 2^k (Tanh, k <= 58).
inline constexpr std::uint64_t kBiasHalf = 1022;
inline constexpr std::uint64_t kBias = 1023;
}  // namespace exp_seq

struct Scalar {
  static constexpr const char* kName = "scalar";

  // One row of the shared f64 GEMM (tensor/gemm.h):
  //   c[j] += a[p] * b[p*n + j]   for p = 0, 1, ..., k-1 in that order,
  // skipping every p with a[p] == 0.0. Each element is updated by a
  // separate multiply then add, in ascending p; vector ISAs may reorder the
  // loop nest (e.g. keep a tile of c in registers across the whole p loop)
  // but never an element's sequence of operations. The skip is part of the
  // contract: adding a literal a*0 is not a no-op (-0.0 + 0.0 = +0.0,
  // 0 * inf = NaN). A NaN result is NaN on every ISA, but which NaN (sign,
  // payload) an add of two NaNs returns is not fixed. `a` and `b` must not
  // overlap `c`.
  DLNER_SCALAR_ONLY
  static void GemmRow(const double* a, const double* b, double* c, int k,
                      int n) {
    for (int p = 0; p < k; ++p) {
      const double av = a[p];
      if (av == 0.0) continue;
      const double* brow = b + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) c[j] += av * brow[j];
    }
  }

  // x[j] = (x[j] < 0 ? 0 : x[j])  — std::max(x, 0.0): NaN stays NaN,
  // -0.0 stays -0.0.
  DLNER_SCALAR_ONLY
  static void Relu(double* x, int n) {
    for (int j = 0; j < n; ++j) x[j] = std::max(x[j], 0.0);
  }

  // out[j] = a[j] * b[j]
  DLNER_SCALAR_ONLY
  static void Mul(const double* a, const double* b, double* out, int n) {
    for (int j = 0; j < n; ++j) out[j] = a[j] * b[j];
  }

  // out[j] = a[j]*b[j] + c[j]*d[j]  (the LSTM cell update f*c + i*g)
  DLNER_SCALAR_ONLY
  static void MulMulAdd(const double* a, const double* b, const double* c,
                        const double* d, double* out, int n) {
    for (int j = 0; j < n; ++j) out[j] = a[j] * b[j] + c[j] * d[j];
  }

  // out[j] = (1 - z[j]) * a[j] + z[j] * b[j]  (the GRU interpolation)
  DLNER_SCALAR_ONLY
  static void Blend(const double* z, const double* a, const double* b,
                    double* out, int n) {
    for (int j = 0; j < n; ++j) {
      out[j] = (1.0 - z[j]) * a[j] + z[j] * b[j];
    }
  }

  // out[j] = g[j] * ((x[j] - mu) * inv_sigma) + b[j]  (LayerNorm epilogue)
  DLNER_SCALAR_ONLY
  static void NormApply(const double* x, double mu, double inv_sigma,
                        const double* g, const double* b, double* out,
                        int n) {
    for (int j = 0; j < n; ++j) {
      out[j] = g[j] * ((x[j] - mu) * inv_sigma) + b[j];
    }
  }

  // best[j] = (x[j] > best[j] ? x[j] : best[j]): NaN x never replaces,
  // equal values (incl. ±0) keep best.
  DLNER_SCALAR_ONLY
  static void RowMax(const double* x, double* best, int n) {
    for (int j = 0; j < n; ++j) {
      if (x[j] > best[j]) best[j] = x[j];
    }
  }

  // x[j] = 1 / (1 + e^t) with t = -x[j] clamped (NaN passes both clamps):
  //   t = (kSigmoidMin > t ? kSigmoidMin : t)
  //   t = (kSigmoidMax < t ? kSigmoidMax : t)
  //   p = ExpReduce(t, &k);  s = 2^(k-1)  (exponent bits, bias kBiasHalf)
  //   e = (s + s * p) * 2.0
  // sigmoid(±0) = 0.5, sigmoid(+inf) = 1, sigmoid(-inf) = +0, NaN stays
  // NaN. Results below 2^-1022 (x < -708.4) are the division's subnormals.
  DLNER_SCALAR_ONLY
  static void Sigmoid(double* x, int n) {
    using namespace exp_seq;
    for (int j = 0; j < n; ++j) {
      double t = -x[j];
      t = kSigmoidMin > t ? kSigmoidMin : t;
      t = kSigmoidMax < t ? kSigmoidMax : t;
      std::uint64_t k;
      const double p = ExpReduce(t, &k);
      const double s = std::bit_cast<double>((k + kBiasHalf) << 52);
      const double e = (s + s * p) * 2.0;
      x[j] = 1.0 / (1.0 + e);
    }
  }

  // x[j] = sign(x[j]) * e / (e + 2) with e = expm1(2a), a = |x[j]| clamped
  // (NaN passes the clamp):
  //   a = (kTanhMax < a ? kTanhMax : a);  t = a + a
  //   p = ExpReduce(t, &k);  s = 2^k  (exponent bits, bias kBias)
  //   e = (s - 1.0) + s * p
  // and x's sign bit is OR-ed into the non-negative quotient.
  // tanh(±0) = ±0, tanh(±inf) = ±1, subnormals map to themselves, NaN
  // stays NaN.
  DLNER_SCALAR_ONLY
  static void Tanh(double* x, int n) {
    using namespace exp_seq;
    for (int j = 0; j < n; ++j) {
      const std::uint64_t bits = std::bit_cast<std::uint64_t>(x[j]);
      double a = std::bit_cast<double>(bits & ~kSignBit);
      a = kTanhMax < a ? kTanhMax : a;
      std::uint64_t k;
      const double p = ExpReduce(a + a, &k);
      const double s = std::bit_cast<double>((k + kBias) << 52);
      const double e = (s - 1.0) + s * p;
      const double y = e / (e + 2.0);
      x[j] = std::bit_cast<double>(std::bit_cast<std::uint64_t>(y) |
                                   (bits & kSignBit));
    }
  }

 private:
  // The shared core of Sigmoid and Tanh: t = k * ln2 + r, |r| <= ln2/2,
  // returns p = e^r - 1 and sets *k to the bits of the shifted sum, whose
  // low bits hold k (so (*k + bias) << 52 is the bit pattern of
  // 2^(k + bias - 1023)):
  //   kd = t * kLog2e + kShift;  kf = kd - kShift
  //   r  = (t - kf * kLn2Hi) - kf * kLn2Lo
  //   q  = kPoly[0];  q = q * r + kPoly[i] for i = 1..12;  p = q * r
  DLNER_SCALAR_ONLY
  static double ExpReduce(double t, std::uint64_t* k) {
    using namespace exp_seq;
    const double kd = t * kLog2e + kShift;
    const double kf = kd - kShift;
    const double r = (t - kf * kLn2Hi) - kf * kLn2Lo;
    double q = kPoly[0];
    for (std::size_t i = 1; i < std::size(kPoly); ++i) q = q * r + kPoly[i];
    *k = std::bit_cast<std::uint64_t>(kd);
    return q * r;
  }
};

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_KERNELS_SCALAR_H_
