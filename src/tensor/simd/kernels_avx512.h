// AVX-512 implementation of the SIMD primitive set (8 doubles per vector).
//
// Only the GEMM primitives, where the packed kernels spend their vector
// time, are new: every elementwise primitive (Relu, Mul, MulMulAdd, Blend,
// NormApply, RowMax) is inherited from Avx2. Bit-identical to simd::Scalar
// by construction, with the same rules as kernels_avx2.h: vmulpd + vaddpd
// (never vfmadd*), every element accumulated in ascending p, and the
// per-(row, p) a == 0.0 skip kept as a branch (dropping the skip is not
// bit-neutral, and a masked or branch-free skip measured slower on the
// served shapes).
#ifndef DLNER_TENSOR_SIMD_KERNELS_AVX512_H_
#define DLNER_TENSOR_SIMD_KERNELS_AVX512_H_

#include <immintrin.h>

#include <cstddef>

#include "tensor/simd/kernels_avx2.h"

namespace dlner::simd {

struct Avx512 : Avx2 {
  static constexpr const char* kName = "avx512";

  // One row of the GEMM (contract: Scalar::GemmRow), register-tiled over
  // 128/64/32/16/8 columns with 16/8/4/2/1 zmm accumulators carried
  // across the whole p loop, then a scalar tail for n % 8.
  static void GemmRow(const double* a, const double* b, double* c, int k,
                      int n) {
    RowFrom(a, b, c, k, n, 0);
  }

  // Four consecutive rows of the GEMM at once:
  //   c[r*n + j] += a[r*lda + p] * b[p*n + j]   for r = 0..3,
  // with exactly the per-element sequence of four GemmRow calls (ascending
  // p, a zero-skip per (row, p)). Each 16-column tile keeps 4 x 2 zmm
  // accumulators live, so every load of a b row slice feeds four rows and
  // B streams once per four rows instead of once per row. Columns past the
  // last full tile run per row through the GemmRow tiles.
  static void GemmRows4(const double* a, int lda, const double* b, double* c,
                        int k, int n) {
    int j = 0;
    for (; j + 16 <= n; j += 16) Rows4Tile(a, lda, b + j, c + j, k, n);
    if (j == n) return;
    for (int r = 0; r < 4; ++r) {
      RowFrom(a + static_cast<std::size_t>(r) * lda, b,
              c + static_cast<std::size_t>(r) * n, k, n, j);
    }
  }

 private:
  // Columns [j, n) of one GemmRow (b's rows stay n floats apart).
  static void RowFrom(const double* a, const double* b, double* c, int k,
                      int n, int j) {
    for (; j + 128 <= n; j += 128) RowTile<16>(a, b + j, c + j, k, n);
    if (j + 64 <= n) {
      RowTile<8>(a, b + j, c + j, k, n);
      j += 64;
    }
    if (j + 32 <= n) {
      RowTile<4>(a, b + j, c + j, k, n);
      j += 32;
    }
    if (j + 16 <= n) {
      RowTile<2>(a, b + j, c + j, k, n);
      j += 16;
    }
    if (j + 8 <= n) {
      RowTile<1>(a, b + j, c + j, k, n);
      j += 8;
    }
    if (j == n) return;
    for (int p = 0; p < k; ++p) {
      const double av = a[p];
      if (av == 0.0) continue;
      const double* brow = b + static_cast<std::size_t>(p) * n;
      for (int jj = j; jj < n; ++jj) c[jj] += av * brow[jj];
    }
  }

  // c[0, 8V) of one row, V zmm accumulators live across the p loop.
  template <int V>
  static void RowTile(const double* a, const double* b, double* c, int k,
                      int n) {
    __m512d acc[V];
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) acc[v] = _mm512_loadu_pd(c + 8 * v);
    for (int p = 0; p < k; ++p) {
      const double av = a[p];
      if (av == 0.0) continue;
      const __m512d va = _mm512_set1_pd(av);
      const double* brow = b + static_cast<std::size_t>(p) * n;
#pragma GCC unroll 16
      for (int v = 0; v < V; ++v) {
        const __m512d prod = _mm512_mul_pd(va, _mm512_loadu_pd(brow + 8 * v));
        acc[v] = _mm512_add_pd(acc[v], prod);
      }
    }
#pragma GCC unroll 16
    for (int v = 0; v < V; ++v) _mm512_storeu_pd(c + 8 * v, acc[v]);
  }

  // c[r*n + 0, 16) for r = 0..3. The accumulators are named registers, not
  // an array, so they stay in zmm across the branches.
  static void Rows4Tile(const double* a, int lda, const double* b, double* c,
                        int k, int n) {
    const double* a0 = a;
    const double* a1 = a0 + lda;
    const double* a2 = a1 + lda;
    const double* a3 = a2 + lda;
    double* c0 = c;
    double* c1 = c0 + n;
    double* c2 = c1 + n;
    double* c3 = c2 + n;
    __m512d r0l = _mm512_loadu_pd(c0), r0h = _mm512_loadu_pd(c0 + 8);
    __m512d r1l = _mm512_loadu_pd(c1), r1h = _mm512_loadu_pd(c1 + 8);
    __m512d r2l = _mm512_loadu_pd(c2), r2h = _mm512_loadu_pd(c2 + 8);
    __m512d r3l = _mm512_loadu_pd(c3), r3h = _mm512_loadu_pd(c3 + 8);
    for (int p = 0; p < k; ++p) {
      const double* brow = b + static_cast<std::size_t>(p) * n;
      const __m512d bl = _mm512_loadu_pd(brow);
      const __m512d bh = _mm512_loadu_pd(brow + 8);
      if (a0[p] != 0.0) {
        const __m512d va = _mm512_set1_pd(a0[p]);
        r0l = _mm512_add_pd(r0l, _mm512_mul_pd(va, bl));
        r0h = _mm512_add_pd(r0h, _mm512_mul_pd(va, bh));
      }
      if (a1[p] != 0.0) {
        const __m512d va = _mm512_set1_pd(a1[p]);
        r1l = _mm512_add_pd(r1l, _mm512_mul_pd(va, bl));
        r1h = _mm512_add_pd(r1h, _mm512_mul_pd(va, bh));
      }
      if (a2[p] != 0.0) {
        const __m512d va = _mm512_set1_pd(a2[p]);
        r2l = _mm512_add_pd(r2l, _mm512_mul_pd(va, bl));
        r2h = _mm512_add_pd(r2h, _mm512_mul_pd(va, bh));
      }
      if (a3[p] != 0.0) {
        const __m512d va = _mm512_set1_pd(a3[p]);
        r3l = _mm512_add_pd(r3l, _mm512_mul_pd(va, bl));
        r3h = _mm512_add_pd(r3h, _mm512_mul_pd(va, bh));
      }
    }
    _mm512_storeu_pd(c0, r0l);
    _mm512_storeu_pd(c0 + 8, r0h);
    _mm512_storeu_pd(c1, r1l);
    _mm512_storeu_pd(c1 + 8, r1h);
    _mm512_storeu_pd(c2, r2l);
    _mm512_storeu_pd(c2 + 8, r2h);
    _mm512_storeu_pd(c3, r3l);
    _mm512_storeu_pd(c3 + 8, r3h);
  }
};

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_KERNELS_AVX512_H_
