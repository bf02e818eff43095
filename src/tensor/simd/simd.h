// Compile-time SIMD dispatch for the explicit kernels (tensor/gemm.h,
// tensor/batched.cc).
//
// Exactly one ISA struct is selected as simd::Active per build:
//
//   DLNER_SIMD_FORCE_SCALAR defined  -> Scalar  (CMake -DDLNER_SIMD=scalar)
//   __AVX2__                         -> Avx2    (auto via -march=native,
//                                                or forced via -mavx2)
//   otherwise (aarch64 included)     -> Scalar
//
// Every ISA implements the same primitive set with bit-identical
// per-element results (the contract lives in kernels_scalar.h and is
// enforced by the differential suite), so dispatch never changes outputs —
// only speed. Kernels that must be comparable against the scalar path in
// one binary (bench_throughput's A/B) take the ISA as a template parameter
// and instantiate both Scalar and Active.
#ifndef DLNER_TENSOR_SIMD_SIMD_H_
#define DLNER_TENSOR_SIMD_SIMD_H_

#include "tensor/simd/kernels_scalar.h"

#if !defined(DLNER_SIMD_FORCE_SCALAR) && defined(__AVX2__)
#include "tensor/simd/kernels_avx2.h"
#define DLNER_SIMD_ISA_ID 1
namespace dlner::simd {
using Active = Avx2;
}
#else
#define DLNER_SIMD_ISA_ID 0
namespace dlner::simd {
using Active = Scalar;
}
#endif

namespace dlner::simd {

// 0 = scalar, 1 = avx2. Recorded numerically as the
// `bench.simd_isa` gauge (dlner-metrics-v1 gauges are numeric-only);
// kIsaName is the human-readable twin.
inline constexpr int kIsaId = DLNER_SIMD_ISA_ID;
inline constexpr const char* kIsaName = Active::kName;

}  // namespace dlner::simd

#endif  // DLNER_TENSOR_SIMD_SIMD_H_
