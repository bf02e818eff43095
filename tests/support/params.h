// Read-only probes of parameters: how many scalars a module trains, and a
// bit-exact fingerprint of a tensor for determinism and round-trip checks.
#ifndef DLNER_TESTS_SUPPORT_PARAMS_H_
#define DLNER_TESTS_SUPPORT_PARAMS_H_

#include <cstdint>

#include "tensor/nn.h"
#include "tensor/tensor.h"

namespace dlner::testsup {

/// Total scalar parameter count of a module (and its submodules).
int ParameterCount(const Module& module);

/// Order- and bit-sensitive FNV-1a hash over the shape and the raw bytes
/// of every element. Two tensors fingerprint equally iff their shapes
/// match and every element is bit-identical (distinguishing signed zeros
/// and NaN payloads), which is what the determinism and round-trip
/// invariance tests compare.
std::uint64_t Fingerprint(const Tensor& t);

}  // namespace dlner::testsup

#endif  // DLNER_TESTS_SUPPORT_PARAMS_H_
