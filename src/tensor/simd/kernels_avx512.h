// AVX-512 implementation of the SIMD primitive set (8 doubles per vector).
//
// Only the GEMM primitives and the transcendentals (Sigmoid, Tanh), where
// the packed kernels spend their vector time, are new: the other
// elementwise primitives (Relu, Mul, MulMulAdd, Blend, NormApply, RowMax)
// are inherited from Avx2. Bit-identical to simd::Scalar by construction,
// with the same rules as kernels_avx2.h: vmulpd + vaddpd (never vfmadd*),
// every element accumulated in ascending p, and the per-(row, p) a == 0.0
// skip kept as a branch (dropping the skip is not bit-neutral, and a masked
// or branch-free skip measured slower on the served shapes). Bitwise
// operations use the AVX512F integer forms (the _pd ones need AVX512DQ).
#ifndef DLNER_TENSOR_SIMD_KERNELS_AVX512_H_
#define DLNER_TENSOR_SIMD_KERNELS_AVX512_H_

#include <immintrin.h>

#include <cstddef>
#include <cstdint>
#include <iterator>

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

  // Contract: Scalar::Sigmoid and Scalar::Tanh, step for step.
  static void Sigmoid(double* x, int n) {
    Apply(x, n, [](__m512d v) { return SigmoidV(v); });
  }

  static void Tanh(double* x, int n) {
    Apply(x, n, [](__m512d v) { return TanhV(v); });
  }

 private:
  // x[0, n) = f(x[0, n)) eight lanes at a time; the tail's lanes past n are
  // masked out of the load (read as 0) and the store.
  template <class F>
  static void Apply(double* x, int n, F f) {
    int j = 0;
    for (; j + 8 <= n; j += 8) {
      _mm512_storeu_pd(x + j, f(_mm512_loadu_pd(x + j)));
    }
    if (j == n) return;
    const __mmask8 m = static_cast<__mmask8>((1u << (n - j)) - 1);
    _mm512_mask_storeu_pd(x + j, m, f(_mm512_maskz_loadu_pd(m, x + j)));
  }

  static __m512d SigmoidV(__m512d x) {
    using namespace exp_seq;
    __m512d t = _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(x),
                         _mm512_set1_epi64(static_cast<long long>(kSignBit))));
    t = SelectIf<_CMP_GT_OQ>(_mm512_set1_pd(kSigmoidMin), t);
    t = SelectIf<_CMP_LT_OQ>(_mm512_set1_pd(kSigmoidMax), t);
    __m512i k;
    const __m512d p = ExpReduce(t, &k);
    const __m512d s = Pow2(k, kBiasHalf);
    const __m512d e = _mm512_mul_pd(_mm512_add_pd(s, _mm512_mul_pd(s, p)),
                                    _mm512_set1_pd(2.0));
    const __m512d one = _mm512_set1_pd(1.0);
    return _mm512_div_pd(one, _mm512_add_pd(one, e));
  }

  static __m512d TanhV(__m512d x) {
    using namespace exp_seq;
    const __m512d a =
        SelectIf<_CMP_LT_OQ>(_mm512_set1_pd(kTanhMax), _mm512_abs_pd(x));
    __m512i k;
    const __m512d p = ExpReduce(_mm512_add_pd(a, a), &k);
    const __m512d s = Pow2(k, kBias);
    const __m512d e = _mm512_add_pd(_mm512_sub_pd(s, _mm512_set1_pd(1.0)),
                                    _mm512_mul_pd(s, p));
    const __m512d y = _mm512_div_pd(e, _mm512_add_pd(e, _mm512_set1_pd(2.0)));
    const __m512i sign = _mm512_and_si512(
        _mm512_castpd_si512(x),
        _mm512_set1_epi64(static_cast<long long>(kSignBit)));
    return _mm512_castsi512_pd(_mm512_or_si512(_mm512_castpd_si512(y), sign));
  }

  // (c CMP t ? c : t): the scalar clamps' comparison-select. An ordered
  // compare is false for NaN t, so NaN passes. (A compare and a blend
  // rather than vmaxpd/vminpd, whose GCC 12 intrinsics trip a spurious
  // -Wmaybe-uninitialized.)
  template <int kCmp>
  static __m512d SelectIf(__m512d c, __m512d t) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(c, t, kCmp), t, c);
  }

  // Scalar::ExpReduce, eight lanes.
  static __m512d ExpReduce(__m512d t, __m512i* k) {
    using namespace exp_seq;
    const __m512d kd = _mm512_add_pd(_mm512_mul_pd(t, _mm512_set1_pd(kLog2e)),
                                     _mm512_set1_pd(kShift));
    const __m512d kf = _mm512_sub_pd(kd, _mm512_set1_pd(kShift));
    const __m512d hi = _mm512_mul_pd(kf, _mm512_set1_pd(kLn2Hi));
    const __m512d lo = _mm512_mul_pd(kf, _mm512_set1_pd(kLn2Lo));
    const __m512d r = _mm512_sub_pd(_mm512_sub_pd(t, hi), lo);
    __m512d q = _mm512_set1_pd(kPoly[0]);
#pragma GCC unroll 16
    for (std::size_t i = 1; i < std::size(kPoly); ++i) {
      q = _mm512_add_pd(_mm512_mul_pd(q, r), _mm512_set1_pd(kPoly[i]));
    }
    *k = _mm512_castpd_si512(kd);
    return _mm512_mul_pd(q, r);
  }

  // The bit pattern (k + bias) << 52: 2^(k + bias - 1023).
  static __m512d Pow2(__m512i k, std::uint64_t bias) {
    const __m512i biased =
        _mm512_add_epi64(k, _mm512_set1_epi64(static_cast<long long>(bias)));
    // maskz with every lane set is the plain shift (see SelectIf).
    return _mm512_castsi512_pd(_mm512_maskz_slli_epi64(0xFF, biased, 52));
  }

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
