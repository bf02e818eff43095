// Compile-time SIMD dispatch for the explicit kernels (tensor/gemm.h,
// tensor/batched.cc).
//
// The compile target is the only ISA decision: simd::Active is Avx512
// exactly when the compiler flags define __AVX512F__ (CMake's
// DLNER_MARCH_NATIVE=ON on an AVX-512 host), else Avx2 when they define
// __AVX2__ (ON on an AVX2 host, or -march=x86-64-v3), and Scalar otherwise
// (ON elsewhere, aarch64 included, and OFF on x86-64).
//
// Every ISA implements the same primitive set with bit-identical
// per-element results (the contract lives in kernels_scalar.h and is
// enforced by the differential suite), so dispatch never changes outputs —
// only speed. The kernels take the ISA as a template parameter defaulting
// to Active; every ISA the compile target supports is instantiated
// (Scalar always, Avx2 under __AVX2__, Avx512 under __AVX512F__), so one
// binary can compare each ISA against the scalar reference (the
// differential suite, bench_throughput's per-kernel series).
//
// Beyond the shared set, an ISA may provide GemmRows4 (four GEMM rows per
// call, each b load feeding four rows); gemm::GemmAccumStrided uses it when
// present (Avx512 only).
#ifndef DLNER_TENSOR_SIMD_SIMD_H_
#define DLNER_TENSOR_SIMD_SIMD_H_

#include "tensor/simd/kernels_scalar.h"

#ifdef __AVX2__
#include "tensor/simd/kernels_avx2.h"
#endif
#ifdef __AVX512F__
#include "tensor/simd/kernels_avx512.h"
#endif

namespace dlner::simd {

// kIsaId: 0 = scalar, 1 = avx2, 2 = avx512. Recorded numerically as the
// `bench.simd_isa` gauge (dlner-metrics-v1 gauges are numeric-only);
// kIsaName is the human-readable twin.
#if defined(__AVX512F__)
using Active = Avx512;
inline constexpr int kIsaId = 2;
#elif defined(__AVX2__)
using Active = Avx2;
inline constexpr int kIsaId = 1;
#else
using Active = Scalar;
inline constexpr int kIsaId = 0;
#endif
inline constexpr const char* kIsaName = Active::kName;

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_SIMD_H_
