// Finite-difference gradient checking, used by the test suite to validate
// every differentiable op and fused module against central differences.
#ifndef DLNER_TESTS_SUPPORT_GRADCHECK_H_
#define DLNER_TESTS_SUPPORT_GRADCHECK_H_

#include <functional>
#include <vector>

#include "tensor/variable.h"

namespace dlner::testsup {

/// Compares analytic gradients against central finite differences.
///
/// `build_loss` must rebuild the computation graph from scratch on every
/// call (the inputs keep their identity; only their values are perturbed)
/// and return a scalar loss. Returns the maximum elementwise error
/// |analytic - numeric| / max(1, |analytic|, |numeric|) across all elements
/// of all `inputs`.
Float MaxGradError(const std::function<Var()>& build_loss,
                   const std::vector<Var>& inputs, Float eps = 1e-5);

/// Mean of all elements -> scalar [1]: a loss that weighs every output
/// element equally.
Var Mean(const Var& a);

}  // namespace dlner::testsup

#endif  // DLNER_TESTS_SUPPORT_GRADCHECK_H_
