// AVX-512 lane ops for Vector<L> (kernels_vector.h): 8 doubles per zmm,
// and GemmRow tiles of up to 16 zmm accumulators (128/64/32/16/8 columns).
// Bitwise operations use the AVX512F integer forms (the _pd ones need
// AVX512DQ).
//
// Avx512 adds GemmRows4, which gemm::GemmAccumStrided uses where an ISA
// has it. Like every GEMM kernel it keeps vmulpd + vaddpd (never vfmadd*),
// every element accumulated in ascending p, and the per-(row, p) a == 0.0
// skip as a branch (dropping the skip is not bit-neutral, and a masked or
// branch-free skip measured slower on the served shapes).
#ifndef DLNER_TENSOR_SIMD_KERNELS_AVX512_H_
#define DLNER_TENSOR_SIMD_KERNELS_AVX512_H_

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "tensor/simd/kernels_vector.h"

namespace dlner::simd {

struct Avx512Lanes {
  using D = __m512d;
  static constexpr int kLanes = 8;
  static constexpr int kMaxTile = 16;

  static D Load(const double* p) { return _mm512_loadu_pd(p); }
  static void Store(double* p, D v) { _mm512_storeu_pd(p, v); }
  static D LoadFirst(const double* p, int r) {
    return _mm512_maskz_loadu_pd(First(r), p);
  }
  static void StoreFirst(double* p, int r, D v) {
    _mm512_mask_storeu_pd(p, First(r), v);
  }

  static D Set1(double x) { return _mm512_set1_pd(x); }
  static D Add(D a, D b) { return _mm512_add_pd(a, b); }
  static D Sub(D a, D b) { return _mm512_sub_pd(a, b); }
  static D Mul(D a, D b) { return _mm512_mul_pd(a, b); }
  static D Div(D a, D b) { return _mm512_div_pd(a, b); }

  // An ordered compare is false for a NaN operand, so b passes. (A compare
  // and a blend rather than vmaxpd/vminpd, whose GCC 12 intrinsics trip a
  // spurious -Wmaybe-uninitialized.)
  static D GtSel(D a, D b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, b, _CMP_GT_OQ), b, a);
  }
  static D LtSel(D a, D b) {
    return _mm512_mask_blend_pd(_mm512_cmp_pd_mask(a, b, _CMP_LT_OQ), b, a);
  }

  static D Neg(D x) {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(x), Sign()));
  }
  static D Abs(D x) { return _mm512_abs_pd(x); }
  static D OrSign(D y, D x) {
    return _mm512_castsi512_pd(_mm512_or_si512(
        _mm512_castpd_si512(y),
        _mm512_and_si512(_mm512_castpd_si512(x), Sign())));
  }
  static D Pow2(D kd, std::uint64_t bias) {
    const __m512i biased =
        _mm512_add_epi64(_mm512_castpd_si512(kd),
                         _mm512_set1_epi64(static_cast<long long>(bias)));
    // maskz with every lane set is the plain shift (see GtSel).
    return _mm512_castsi512_pd(_mm512_maskz_slli_epi64(0xFF, biased, 52));
  }

 private:
  static __mmask8 First(int r) { return static_cast<__mmask8>((1u << r) - 1); }
  static __m512i Sign() {
    return _mm512_set1_epi64(static_cast<long long>(exp_seq::kSignBit));
  }
};

struct Avx512 : Vector<Avx512Lanes> {
  static constexpr const char* kName = "avx512";

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
