// AVX2 implementation of the SIMD primitive set (4 doubles / 16 int8 per
// vector). Bit-identical to simd::Scalar by construction:
//
//  * mul and add are separate instructions (vmulpd + vaddpd, never
//    vfmadd*) to match -ffp-contract=off scalar code;
//  * vmaxpd/vminpd operand order is chosen so NaN and ±0 behavior matches
//    the scalar comparison-select expressions exactly (both return the
//    SECOND operand when either input is NaN or the values compare equal);
//  * vcvtpd2dq rounds to nearest-even under the default MXCSR, matching
//    std::lrint in the default FP environment;
//  * int8 products are computed in 16-bit lanes (|a*w| <= 127*127 = 16129
//    < 32767, so vpmullw is exact) and widened to the same int32
//    accumulators the scalar kernel uses.
//
// Scalar loop tails reuse the exact per-element expressions from
// kernels_scalar.h.
#ifndef DLNER_TENSOR_SIMD_KERNELS_AVX2_H_
#define DLNER_TENSOR_SIMD_KERNELS_AVX2_H_

#include <immintrin.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>

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

  static double MaxAbs(const double* x, int n) {
    const __m256d abs_mask = _mm256_castsi256_pd(
        _mm256_set1_epi64x(0x7fffffffffffffffLL));
    __m256d vm = _mm256_setzero_pd();
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d va = _mm256_and_pd(_mm256_loadu_pd(x + j), abs_mask);
      // vmaxpd(|x|, m): NaN lanes keep m, matching the scalar (a > m).
      vm = _mm256_max_pd(va, vm);
    }
    double lanes[4];
    _mm256_storeu_pd(lanes, vm);
    double m = 0.0;
    for (double a : lanes) {
      if (a > m) m = a;
    }
    for (; j < n; ++j) {
      const double a = std::fabs(x[j]);
      if (a > m) m = a;
    }
    return m;
  }

  static void Quantize(const double* x, double inv_scale, std::int8_t* q,
                       int n) {
    const __m256d vinv = _mm256_set1_pd(inv_scale);
    const __m256d lo = _mm256_set1_pd(-127.0);
    const __m256d hi = _mm256_set1_pd(127.0);
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      __m256d r = _mm256_mul_pd(_mm256_loadu_pd(x + j), vinv);
      // vmaxpd(r, lo): NaN r -> lo, matching (r >= -127 ? r : -127).
      r = _mm256_max_pd(r, lo);
      r = _mm256_min_pd(r, hi);
      const __m128i vi = _mm256_cvtpd_epi32(r);  // nearest-even, as lrint
      const __m128i v16 = _mm_packs_epi32(vi, vi);
      const __m128i v8 = _mm_packs_epi16(v16, v16);
      const int packed = _mm_cvtsi128_si32(v8);
      std::memcpy(q + j, &packed, 4);
    }
    for (; j < n; ++j) {
      double r = x[j] * inv_scale;
      r = r >= -127.0 ? r : -127.0;
      r = r <= 127.0 ? r : 127.0;
      q[j] = static_cast<std::int8_t>(std::lrint(r));
    }
  }

  static void QGemm(const std::int8_t* a, int lda, const std::int8_t* w,
                    std::int32_t* c, int m, int k, int n) {
    // Register-blocked over j: a 16-column accumulator block (2 ymm of
    // int32) stays in registers across the whole k loop, so the only
    // per-step memory traffic is one 16-byte weight load. Products are
    // exact in int16 lanes (|a*w| <= 16129 < 32767) and widened into the
    // same int32 accumulators the scalar kernel uses; integer order is
    // irrelevant to the result.
    int j = 0;
    for (; j + 16 <= n; j += 16) {
      // 4-row register tile: eight ymm accumulators live across the whole
      // k loop, and each 16-byte weight load + widen is shared by all four
      // rows. Rows whose activation is zero skip their two multiply-adds.
      int i = 0;
      for (; i + 4 <= m; i += 4) {
        const std::int8_t* a0 = a + static_cast<std::size_t>(i) * lda;
        const std::int8_t* a1 = a0 + lda;
        const std::int8_t* a2 = a1 + lda;
        const std::int8_t* a3 = a2 + lda;
        std::int32_t* c0 = c + static_cast<std::size_t>(i) * n + j;
        std::int32_t* c1 = c0 + n;
        std::int32_t* c2 = c1 + n;
        std::int32_t* c3 = c2 + n;
        __m256i acc0lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c0));
        __m256i acc0hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c0 + 8));
        __m256i acc1lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c1));
        __m256i acc1hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c1 + 8));
        __m256i acc2lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c2));
        __m256i acc2hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c2 + 8));
        __m256i acc3lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c3));
        __m256i acc3hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(c3 + 8));
        for (int p = 0; p < k; ++p) {
          const std::int8_t v0 = a0[p], v1 = a1[p], v2 = a2[p], v3 = a3[p];
          if ((v0 | v1 | v2 | v3) == 0) continue;
          const __m256i w16 =
              _mm256_cvtepi8_epi16(_mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(
                      w + static_cast<std::size_t>(p) * n + j)));
          if (v0 != 0) {
            const __m256i prod = _mm256_mullo_epi16(
                w16, _mm256_set1_epi16(static_cast<short>(v0)));
            acc0lo = _mm256_add_epi32(
                acc0lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
            acc0hi = _mm256_add_epi32(
                acc0hi,
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
          }
          if (v1 != 0) {
            const __m256i prod = _mm256_mullo_epi16(
                w16, _mm256_set1_epi16(static_cast<short>(v1)));
            acc1lo = _mm256_add_epi32(
                acc1lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
            acc1hi = _mm256_add_epi32(
                acc1hi,
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
          }
          if (v2 != 0) {
            const __m256i prod = _mm256_mullo_epi16(
                w16, _mm256_set1_epi16(static_cast<short>(v2)));
            acc2lo = _mm256_add_epi32(
                acc2lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
            acc2hi = _mm256_add_epi32(
                acc2hi,
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
          }
          if (v3 != 0) {
            const __m256i prod = _mm256_mullo_epi16(
                w16, _mm256_set1_epi16(static_cast<short>(v3)));
            acc3lo = _mm256_add_epi32(
                acc3lo, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
            acc3hi = _mm256_add_epi32(
                acc3hi,
                _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
          }
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c0), acc0lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c0 + 8), acc0hi);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c1), acc1lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c1 + 8), acc1hi);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c2), acc2lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c2 + 8), acc2hi);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c3), acc3lo);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(c3 + 8), acc3hi);
      }
      for (; i < m; ++i) {
        const std::int8_t* arow = a + static_cast<std::size_t>(i) * lda;
        std::int32_t* crow = c + static_cast<std::size_t>(i) * n + j;
        __m256i acc0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow));
        __m256i acc1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow + 8));
        for (int p = 0; p < k; ++p) {
          const std::int8_t av = arow[p];
          if (av == 0) continue;
          const __m256i va = _mm256_set1_epi16(static_cast<short>(av));
          const __m128i w8 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
              w + static_cast<std::size_t>(p) * n + j));
          const __m256i prod =
              _mm256_mullo_epi16(_mm256_cvtepi8_epi16(w8), va);
          acc0 = _mm256_add_epi32(
              acc0, _mm256_cvtepi16_epi32(_mm256_castsi256_si128(prod)));
          acc1 = _mm256_add_epi32(
              acc1, _mm256_cvtepi16_epi32(_mm256_extracti128_si256(prod, 1)));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow + 8), acc1);
      }
    }
    // 8-column block (one ymm accumulator) — matters a lot at this
    // toolkit's layer widths (n == 24 leaves 8 columns after the 16-block).
    for (; j + 8 <= n; j += 8) {
      for (int i = 0; i < m; ++i) {
        const std::int8_t* arow = a + static_cast<std::size_t>(i) * lda;
        std::int32_t* crow = c + static_cast<std::size_t>(i) * n + j;
        __m256i acc =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(crow));
        for (int p = 0; p < k; ++p) {
          const std::int8_t av = arow[p];
          if (av == 0) continue;
          const __m128i va = _mm_set1_epi16(static_cast<short>(av));
          const __m128i w8 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(
              w + static_cast<std::size_t>(p) * n + j));
          const __m128i prod = _mm_mullo_epi16(_mm_cvtepi8_epi16(w8), va);
          acc = _mm256_add_epi32(acc, _mm256_cvtepi16_epi32(prod));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(crow), acc);
      }
    }
    // 4-column block (one xmm accumulator).
    for (; j + 4 <= n; j += 4) {
      for (int i = 0; i < m; ++i) {
        const std::int8_t* arow = a + static_cast<std::size_t>(i) * lda;
        std::int32_t* crow = c + static_cast<std::size_t>(i) * n + j;
        __m128i acc = _mm_loadu_si128(reinterpret_cast<const __m128i*>(crow));
        for (int p = 0; p < k; ++p) {
          const std::int8_t av = arow[p];
          if (av == 0) continue;
          std::int32_t packed;
          std::memcpy(&packed, w + static_cast<std::size_t>(p) * n + j, 4);
          const __m128i w32 = _mm_cvtepi8_epi32(_mm_cvtsi32_si128(packed));
          acc = _mm_add_epi32(
              acc, _mm_mullo_epi32(w32, _mm_set1_epi32(av)));
        }
        _mm_storeu_si128(reinterpret_cast<__m128i*>(crow), acc);
      }
    }
    // Final scalar columns (n % 4).
    if (j < n) {
      for (int i = 0; i < m; ++i) {
        const std::int8_t* arow = a + static_cast<std::size_t>(i) * lda;
        std::int32_t* crow = c + static_cast<std::size_t>(i) * n;
        for (int p = 0; p < k; ++p) {
          const std::int32_t av = arow[p];
          if (av == 0) continue;
          const std::int8_t* wrow = w + static_cast<std::size_t>(p) * n;
          for (int jj = j; jj < n; ++jj) {
            crow[jj] += av * static_cast<std::int32_t>(wrow[jj]);
          }
        }
      }
    }
  }

  static void Dequant(const std::int32_t* acc, const double* scale,
                      const double* bias, double* out, int n) {
    int j = 0;
    for (; j + 4 <= n; j += 4) {
      const __m256d vd = _mm256_cvtepi32_pd(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(acc + j)));
      _mm256_storeu_pd(
          out + j,
          _mm256_add_pd(_mm256_mul_pd(vd, _mm256_loadu_pd(scale + j)),
                        _mm256_loadu_pd(bias + j)));
    }
    for (; j < n; ++j) {
      out[j] = static_cast<double>(acc[j]) * scale[j] + bias[j];
    }
  }

 private:
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
