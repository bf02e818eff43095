// AVX2 lane ops for Vector<L> (kernels_vector.h): 4 doubles per ymm, and
// GemmRow tiles of up to 8 ymm accumulators (32/16/8/4 columns).
#ifndef DLNER_TENSOR_SIMD_KERNELS_AVX2_H_
#define DLNER_TENSOR_SIMD_KERNELS_AVX2_H_

#include <immintrin.h>

#include <cstdint>

#include "tensor/simd/kernels_vector.h"

namespace dlner::simd {

struct Avx2Lanes {
  using D = __m256d;
  static constexpr int kLanes = 4;
  static constexpr int kMaxTile = 8;

  static D Load(const double* p) { return _mm256_loadu_pd(p); }
  static void Store(double* p, D v) { _mm256_storeu_pd(p, v); }
  static D LoadFirst(const double* p, int r) {
    return _mm256_maskload_pd(p, First(r));
  }
  static void StoreFirst(double* p, int r, D v) {
    _mm256_maskstore_pd(p, First(r), v);
  }

  static D Set1(double x) { return _mm256_set1_pd(x); }
  static D Add(D a, D b) { return _mm256_add_pd(a, b); }
  static D Sub(D a, D b) { return _mm256_sub_pd(a, b); }
  static D Mul(D a, D b) { return _mm256_mul_pd(a, b); }
  static D Div(D a, D b) { return _mm256_div_pd(a, b); }

  // vmaxpd/vminpd return their SECOND operand when either input is NaN or
  // the two compare equal: exactly a > b ? a : b and a < b ? a : b.
  static D GtSel(D a, D b) { return _mm256_max_pd(a, b); }
  static D LtSel(D a, D b) { return _mm256_min_pd(a, b); }

  static D Neg(D x) { return _mm256_xor_pd(x, Set1(-0.0)); }
  static D Abs(D x) { return _mm256_andnot_pd(Set1(-0.0), x); }
  static D OrSign(D y, D x) {
    return _mm256_or_pd(y, _mm256_and_pd(Set1(-0.0), x));
  }
  static D Pow2(D kd, std::uint64_t bias) {
    const __m256i biased =
        _mm256_add_epi64(_mm256_castpd_si256(kd),
                         _mm256_set1_epi64x(static_cast<long long>(bias)));
    return _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52));
  }

 private:
  static __m256i First(int r) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(r),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

struct Avx2 : Vector<Avx2Lanes> {
  static constexpr const char* kName = "avx2";
};

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_KERNELS_AVX2_H_
