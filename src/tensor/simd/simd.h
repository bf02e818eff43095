// Compile-time SIMD dispatch for the explicit kernels (tensor/gemm.h,
// tensor/batched.cc).
//
// The compile target is the only ISA decision: simd::Active is Avx2
// exactly when the compiler flags define __AVX2__ (CMake's
// DLNER_MARCH_NATIVE=ON on an AVX2 host), and Scalar otherwise (ON
// elsewhere, aarch64 included, and OFF on x86-64).
//
// Every ISA implements the same primitive set with bit-identical
// per-element results (the contract lives in kernels_scalar.h and is
// enforced by the differential suite), so dispatch never changes outputs —
// only speed. The kernels take the ISA as a template parameter defaulting
// to Active; both Scalar and Active are instantiated, so one binary can
// compare an ISA against the scalar reference (the differential suite,
// bench_throughput's per-kernel series).
#ifndef DLNER_TENSOR_SIMD_SIMD_H_
#define DLNER_TENSOR_SIMD_SIMD_H_

#include "tensor/simd/kernels_scalar.h"

#ifdef __AVX2__
#include "tensor/simd/kernels_avx2.h"
#endif

namespace dlner::simd {

// kIsaId: 0 = scalar, 1 = avx2. Recorded numerically as the
// `bench.simd_isa` gauge (dlner-metrics-v1 gauges are numeric-only);
// kIsaName is the human-readable twin.
#ifdef __AVX2__
using Active = Avx2;
inline constexpr int kIsaId = 1;
#else
using Active = Scalar;
inline constexpr int kIsaId = 0;
#endif
inline constexpr const char* kIsaName = Active::kName;

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_SIMD_H_
