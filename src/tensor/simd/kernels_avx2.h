// AVX2 implementation of the SIMD primitive set (4 doubles per vector).
// Bit-identical to simd::Scalar by construction:
//
//  * mul and add are separate instructions (vmulpd + vaddpd, never
//    vfmadd*) to match -ffp-contract=off scalar code;
//  * vmaxpd/vminpd operand order is chosen so NaN and ±0 behavior matches
//    the scalar comparison-select expressions exactly (they return the
//    SECOND operand when either input is NaN or the values compare equal).
//
// Scalar loop tails reuse the exact per-element expressions from
// kernels_scalar.h; Sigmoid and Tanh instead run their last n % 4 elements
// through the same vector sequence under a lane mask.
#ifndef DLNER_TENSOR_SIMD_KERNELS_AVX2_H_
#define DLNER_TENSOR_SIMD_KERNELS_AVX2_H_

#include <immintrin.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>

#include "tensor/simd/kernels_scalar.h"

namespace dlner::simd {

struct Avx2 {
  static constexpr const char* kName = "avx2";

  static void GemmRow(const double* a, const double* b, double* c, int k,
                      int n) {
    // Register-tiled over columns: each tile of c is loaded once, carried
    // through the whole p loop in ymm accumulators, and stored once, so the
    // only per-step memory traffic is the tile's slice of one b row.
    int j = 0;
    for (; j + 32 <= n; j += 32) GemmRowTile<8>(a, b + j, c + j, k, n);
    if (j + 16 <= n) {
      GemmRowTile<4>(a, b + j, c + j, k, n);
      j += 16;
    }
    if (j + 8 <= n) {
      GemmRowTile<2>(a, b + j, c + j, k, n);
      j += 8;
    }
    if (j + 4 <= n) {
      GemmRowTile<1>(a, b + j, c + j, k, n);
      j += 4;
    }
    if (j == n) return;
    for (int p = 0; p < k; ++p) {
      const double av = a[p];
      if (av == 0.0) continue;
      const double* brow = b + static_cast<std::size_t>(p) * n;
      for (int jj = j; jj < n; ++jj) c[jj] += av * brow[jj];
    }
  }

  static void Relu(double* x, int n) {
    // vmaxpd(0, x) returns x when x is NaN or when both are zero — exactly
    // std::max(x, 0.0) = (x < 0 ? 0 : x).
    const __m256d zero = _mm256_setzero_pd();
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_pd(x + j, _mm256_max_pd(zero, _mm256_loadu_pd(x + j)));
    }
    for (; j < n; ++j) x[j] = std::max(x[j], 0.0);
  }

  static void Mul(const double* a, const double* b, double* out, int n) {
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_pd(out + j, _mm256_mul_pd(_mm256_loadu_pd(a + j),
                                              _mm256_loadu_pd(b + j)));
    }
    for (; j < n; ++j) out[j] = a[j] * b[j];
  }

  static void MulMulAdd(const double* a, const double* b, const double* c,
                        const double* d, double* out, int n) {
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d ab = _mm256_mul_pd(_mm256_loadu_pd(a + j),
                                       _mm256_loadu_pd(b + j));
      const __m256d cd = _mm256_mul_pd(_mm256_loadu_pd(c + j),
                                       _mm256_loadu_pd(d + j));
      _mm256_storeu_pd(out + j, _mm256_add_pd(ab, cd));
    }
    for (; j < n; ++j) out[j] = a[j] * b[j] + c[j] * d[j];
  }

  static void Blend(const double* z, const double* a, const double* b,
                    double* out, int n) {
    const __m256d one = _mm256_set1_pd(1.0);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d vz = _mm256_loadu_pd(z + j);
      const __m256d left =
          _mm256_mul_pd(_mm256_sub_pd(one, vz), _mm256_loadu_pd(a + j));
      const __m256d right = _mm256_mul_pd(vz, _mm256_loadu_pd(b + j));
      _mm256_storeu_pd(out + j, _mm256_add_pd(left, right));
    }
    for (; j < n; ++j) out[j] = (1.0 - z[j]) * a[j] + z[j] * b[j];
  }

  static void NormApply(const double* x, double mu, double inv_sigma,
                        const double* g, const double* b, double* out,
                        int n) {
    const __m256d vmu = _mm256_set1_pd(mu);
    const __m256d vinv = _mm256_set1_pd(inv_sigma);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d xhat = _mm256_mul_pd(
          _mm256_sub_pd(_mm256_loadu_pd(x + j), vmu), vinv);
      _mm256_storeu_pd(
          out + j,
          _mm256_add_pd(_mm256_mul_pd(_mm256_loadu_pd(g + j), xhat),
                        _mm256_loadu_pd(b + j)));
    }
    for (; j < n; ++j) out[j] = g[j] * ((x[j] - mu) * inv_sigma) + b[j];
  }

  static void RowMax(const double* x, double* best, int n) {
    // vmaxpd(x, best) returns best when x is NaN or the values compare
    // equal — exactly (x > best ? x : best).
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_pd(best + j, _mm256_max_pd(_mm256_loadu_pd(x + j),
                                               _mm256_loadu_pd(best + j)));
    }
    for (; j < n; ++j) {
      if (x[j] > best[j]) best[j] = x[j];
    }
  }

  // Contract: Scalar::Sigmoid and Scalar::Tanh, step for step.
  static void Sigmoid(double* x, int n) {
    Apply(x, n, [](__m256d v) { return SigmoidV(v); });
  }

  static void Tanh(double* x, int n) {
    Apply(x, n, [](__m256d v) { return TanhV(v); });
  }

 private:
  // x[0, n) = f(x[0, n)) four lanes at a time; the tail's lanes past n are
  // masked out of the load (read as 0) and the store.
  template <class F>
  static void Apply(double* x, int n, F f) {
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      _mm256_storeu_pd(x + j, f(_mm256_loadu_pd(x + j)));
    }
    if (j == n) return;
    const __m256i m = _mm256_cmpgt_epi64(_mm256_set1_epi64x(n - j),
                                         _mm256_setr_epi64x(0, 1, 2, 3));
    _mm256_maskstore_pd(x + j, m, f(_mm256_maskload_pd(x + j, m)));
  }

  static __m256d SigmoidV(__m256d x) {
    using namespace exp_seq;
    __m256d t = _mm256_xor_pd(x, _mm256_set1_pd(-0.0));
    t = _mm256_max_pd(_mm256_set1_pd(kSigmoidMin), t);
    t = _mm256_min_pd(_mm256_set1_pd(kSigmoidMax), t);
    __m256i k;
    const __m256d p = ExpReduce(t, &k);
    const __m256d s = Pow2(k, kBiasHalf);
    const __m256d e = _mm256_mul_pd(_mm256_add_pd(s, _mm256_mul_pd(s, p)),
                                    _mm256_set1_pd(2.0));
    const __m256d one = _mm256_set1_pd(1.0);
    return _mm256_div_pd(one, _mm256_add_pd(one, e));
  }

  static __m256d TanhV(__m256d x) {
    using namespace exp_seq;
    const __m256d sign = _mm256_set1_pd(-0.0);
    __m256d a = _mm256_andnot_pd(sign, x);
    a = _mm256_min_pd(_mm256_set1_pd(kTanhMax), a);
    __m256i k;
    const __m256d p = ExpReduce(_mm256_add_pd(a, a), &k);
    const __m256d s = Pow2(k, kBias);
    const __m256d e = _mm256_add_pd(_mm256_sub_pd(s, _mm256_set1_pd(1.0)),
                                    _mm256_mul_pd(s, p));
    const __m256d y = _mm256_div_pd(e, _mm256_add_pd(e, _mm256_set1_pd(2.0)));
    return _mm256_or_pd(y, _mm256_and_pd(sign, x));
  }

  // Scalar::ExpReduce, four lanes.
  static __m256d ExpReduce(__m256d t, __m256i* k) {
    using namespace exp_seq;
    const __m256d kd = _mm256_add_pd(_mm256_mul_pd(t, _mm256_set1_pd(kLog2e)),
                                     _mm256_set1_pd(kShift));
    const __m256d kf = _mm256_sub_pd(kd, _mm256_set1_pd(kShift));
    const __m256d hi = _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Hi));
    const __m256d lo = _mm256_mul_pd(kf, _mm256_set1_pd(kLn2Lo));
    const __m256d r = _mm256_sub_pd(_mm256_sub_pd(t, hi), lo);
    __m256d q = _mm256_set1_pd(kPoly[0]);
#pragma GCC unroll 16
    for (std::size_t i = 1; i < std::size(kPoly); ++i) {
      q = _mm256_add_pd(_mm256_mul_pd(q, r), _mm256_set1_pd(kPoly[i]));
    }
    *k = _mm256_castpd_si256(kd);
    return _mm256_mul_pd(q, r);
  }

  // The bit pattern (k + bias) << 52: 2^(k + bias - 1023).
  static __m256d Pow2(__m256i k, std::uint64_t bias) {
    const __m256i biased =
        _mm256_add_epi64(k, _mm256_set1_epi64x(static_cast<long long>(bias)));
    return _mm256_castsi256_pd(_mm256_slli_epi64(biased, 52));
  }

  // c[0, 4V) of one GemmRow, with V ymm accumulators live across the whole
  // p loop (`b` and `c` already point at the tile's first column).
  template <int V>
  static void GemmRowTile(const double* a, const double* b, double* c, int k,
                          int n) {
    __m256d acc[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) acc[v] = _mm256_loadu_pd(c + 4 * v);
    for (int p = 0; p < k; ++p) {
      const double av = a[p];
      if (av == 0.0) continue;
      const __m256d va = _mm256_set1_pd(av);
      const double* brow = b + static_cast<std::size_t>(p) * n;
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) {
        const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(brow + 4 * v));
        acc[v] = _mm256_add_pd(acc[v], prod);
      }
    }
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) _mm256_storeu_pd(c + 4 * v, acc[v]);
  }
};

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_KERNELS_AVX2_H_
