#include "support/gradcheck.h"

#include <algorithm>
#include <cmath>

#include "tensor/check.h"
#include "tensor/ops.h"

namespace dlner::testsup {

Float MaxGradError(const std::function<Var()>& build_loss,
                   const std::vector<Var>& inputs, Float eps) {
  // Analytic pass.
  Var loss = build_loss();
  DLNER_CHECK_EQ(loss->value.size(), 1);
  Backward(loss);
  std::vector<Tensor> analytic;
  analytic.reserve(inputs.size());
  for (const Var& in : inputs) {
    DLNER_CHECK_MSG(in->requires_grad,
                    "gradcheck input must require gradients");
    analytic.push_back(in->grad);
  }

  Float worst = 0.0;
  for (size_t k = 0; k < inputs.size(); ++k) {
    Var in = inputs[k];
    for (int i = 0; i < in->value.size(); ++i) {
      const Float saved = in->value[i];
      in->value[i] = saved + eps;
      const Float plus = build_loss()->value[0];
      in->value[i] = saved - eps;
      const Float minus = build_loss()->value[0];
      in->value[i] = saved;
      const Float numeric = (plus - minus) / (2.0 * eps);
      const Float a = analytic[k][i];
      const Float denom = std::max({1.0, std::fabs(a), std::fabs(numeric)});
      worst = std::max(worst, std::fabs(a - numeric) / denom);
    }
  }
  return worst;
}

Var Mean(const Var& a) {
  DLNER_CHECK_GT(a->value.size(), 0);
  return Scale(Sum(a), 1.0 / a->value.size());
}

}  // namespace dlner::testsup
