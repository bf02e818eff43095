// Raw-pointer GEMM kernels shared by the autograd ops (ops.cc) and the
// packed-batch inference kernels (batched.cc).
//
// All access A, B, and C strictly row-major with hoisted row pointers. The
// forward kernel is built from ISA primitives (tensor/simd/): GemmRow
// register-tiles one output row over columns, keeping a tile of the C row
// in registers across the whole k loop (a scalar tail covers the columns
// left over), so C is loaded and stored once per tile instead of once per
// k step. An ISA that also has GemmRows4 (AVX-512) runs four rows at a
// time, so each load of a B row slice feeds four C rows and B streams once
// per four rows. Zero entries of A are skipped, per (row, k): activation
// matrices from ReLU layers and one-hot-ish features are sparse enough for
// the branch to pay for itself — and the skip is load-bearing for
// bit-identity, because accumulating a literal a*0 is not a no-op in IEEE
// arithmetic (-0.0 + 0.0 = +0.0, 0 * inf = NaN).
//
// Every output element is accumulated independently, in ascending-k order,
// as a separate multiply then add (never FMA): the row and column tiling
// changes only the loop nest, never an element's operation sequence. That
// is what lets the planned batch path produce bit-identical results to the
// per-sentence eager path, and every Isa instantiation produce
// bit-identical results to Scalar: a packed [sum(T), k] x [k, n] GEMM
// computes exactly the same per-row sums as B separate per-sentence GEMMs
// or per-vector Affine calls, on any ISA.
#ifndef DLNER_TENSOR_GEMM_H_
#define DLNER_TENSOR_GEMM_H_

#include <cstddef>

#include "tensor/simd/simd.h"

namespace dlner::gemm {

// C[m,n] += A[m,k] * B[k,n], where consecutive logical rows of A start
// `lda` floats apart. lda may be smaller than k — overlapping rows, which
// is how the implicit-convolution kernel (batched::ConvSegments) reads
// sliding windows of a sequence without materializing an unfolded copy.
// The per-row summation order is identical to GemmAccum (the lda == k
// case), so strided and dense calls over the same values are bit-identical.
template <class Isa = simd::Active>
void GemmAccumStrided(const double* a, int lda, const double* b, double* c,
                      int m, int k, int n) {
  int i = 0;
  if constexpr (requires { Isa::GemmRows4(a, lda, b, c, k, n); }) {
    for (; i + 4 <= m; i += 4) {
      Isa::GemmRows4(a + static_cast<std::size_t>(i) * lda, lda, b,
                     c + static_cast<std::size_t>(i) * n, k, n);
    }
  }
  for (; i < m; ++i) {
    Isa::GemmRow(a + static_cast<std::size_t>(i) * lda, b,
                 c + static_cast<std::size_t>(i) * n, k, n);
  }
}

// C[m,n] += A[m,k] * B[k,n]
template <class Isa = simd::Active>
void GemmAccum(const double* a, const double* b, double* c, int m, int k,
               int n) {
  GemmAccumStrided<Isa>(a, k, b, c, m, k, n);
}

// dA[m,k] += dC[m,n] * B^T  (row-dot-row: both operands stream row-major).
// Training-only; stays scalar — the dot-product reduction order is part of
// seeded-rerun reproducibility and vector partial sums would reassociate it.
template <typename Float>
void GemmAccumGradA(const Float* dc, const Float* b, Float* da, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const Float* grow = dc + static_cast<std::size_t>(i) * n;
    Float* darow = da + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < k; ++p) {
      const Float* brow = b + static_cast<std::size_t>(p) * n;
      Float s = 0.0;
      for (int j = 0; j < n; ++j) s += grow[j] * brow[j];
      darow[p] += s;
    }
  }
}

// dB[k,n] += A^T * dC  (training-only; scalar for the same reason)
template <typename Float>
void GemmAccumGradB(const Float* a, const Float* dc, Float* db, int m, int k,
                    int n) {
  for (int i = 0; i < m; ++i) {
    const Float* arow = a + static_cast<std::size_t>(i) * k;
    const Float* grow = dc + static_cast<std::size_t>(i) * n;
    for (int p = 0; p < k; ++p) {
      const Float av = arow[p];
      if (av == 0.0) continue;
      Float* dbrow = db + static_cast<std::size_t>(p) * n;
      for (int j = 0; j < n; ++j) dbrow[j] += av * grow[j];
    }
  }
}

}  // namespace dlner::gemm

#endif  // DLNER_TENSOR_GEMM_H_
