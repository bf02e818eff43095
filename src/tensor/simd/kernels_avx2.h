// AVX2 implementation of the SIMD primitive set (4 doubles per vector).
// Bit-identical to simd::Scalar by construction:
//
//  * mul and add are separate instructions (vmulpd + vaddpd, never
//    vfmadd*) to match -ffp-contract=off scalar code;
//  * vmaxpd operand order is chosen so NaN and ±0 behavior matches the
//    scalar comparison-select expressions exactly (it returns the SECOND
//    operand when either input is NaN or the values compare equal).
//
// Scalar loop tails reuse the exact per-element expressions from
// kernels_scalar.h.
#ifndef DLNER_TENSOR_SIMD_KERNELS_AVX2_H_
#define DLNER_TENSOR_SIMD_KERNELS_AVX2_H_

#include <immintrin.h>

#include <algorithm>
#include <cstddef>

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
