// Scalar reference implementation of the SIMD primitive set.
//
// The per-element arithmetic here IS the contract: every vector ISA
// (kernels_avx2.h) must produce bit-identical results,
// element for element, which the differential suite enforces by comparing
// simd::Active against simd::Scalar over random shapes. Practical rules
// that follow (docs/PERFORMANCE.md, "SIMD kernels"):
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
//  * Transcendentals (tanh, exp) never appear here — they stay scalar
//    libm calls in the kernels so every ISA shares the same results.
//
// Unless noted otherwise, `out` may alias an input pointer at the SAME
// element offset (in-place update); partially overlapping buffers are not
// allowed.
#ifndef DLNER_TENSOR_SIMD_KERNELS_SCALAR_H_
#define DLNER_TENSOR_SIMD_KERNELS_SCALAR_H_

#include <algorithm>
#include <cstddef>

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
};

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_KERNELS_SCALAR_H_
