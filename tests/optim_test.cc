#include "tensor/optim.h"

#include <cmath>

#include <gtest/gtest.h>

#include "tensor/nn.h"
#include "tensor/ops.h"

namespace dlner {
namespace {

// Quadratic bowl: loss = sum((x - target)^2). All optimizers must converge.
Float RunToConvergence(Optimizer* opt, const Var& x, const Tensor& target,
                       int steps) {
  Float loss_val = 0.0;
  for (int s = 0; s < steps; ++s) {
    opt->ZeroGrad();
    Var t = Constant(target);
    Var loss = Sum(Mul(Sub(x, t), Sub(x, t)));
    Backward(loss);
    opt->Step();
    loss_val = loss->value[0];
  }
  return loss_val;
}

class OptimizerTest : public ::testing::TestWithParam<std::string> {};

TEST_P(OptimizerTest, ConvergesOnQuadratic) {
  Var x = Parameter(Tensor({3}, {5.0, -3.0, 0.5}), "x");
  Tensor target = Tensor({3}, {1.0, 2.0, -1.0});
  // Adagrad's effective step decays as 1/sqrt(sum g^2); it needs a larger
  // base rate to cover the same distance in a fixed step budget.
  const Float lr = GetParam() == "adagrad" ? 0.5 : 0.05;
  auto opt = MakeOptimizer(GetParam(), {x}, lr);
  Float final_loss = RunToConvergence(opt.get(), x, target, 500);
  EXPECT_LT(final_loss, 1e-3) << GetParam();
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(x->value[i], target[i], 0.05);
}

INSTANTIATE_TEST_SUITE_P(Kinds, OptimizerTest,
                         ::testing::Values("sgd", "adagrad", "adam"),
                         [](const auto& info) { return info.param; });

TEST(SgdTest, PlainStepIsExact) {
  Var x = Parameter(Tensor({1}, {2.0}), "x");
  Sgd sgd({x}, 0.1, /*momentum=*/0.0);
  sgd.ZeroGrad();
  Backward(Sum(Mul(x, x)));  // grad = 2x = 4
  sgd.Step();
  EXPECT_NEAR(x->value[0], 2.0 - 0.1 * 4.0, 1e-12);
}

TEST(SgdTest, MomentumAccumulates) {
  Var x = Parameter(Tensor({1}, {0.0}), "x");
  Sgd sgd({x}, 0.1, /*momentum=*/0.9);
  // Constant gradient of 1.0 applied twice:
  // v1 = -0.1, x1 = -0.1; v2 = 0.9*(-0.1) - 0.1 = -0.19, x2 = -0.29.
  for (int i = 0; i < 2; ++i) {
    sgd.ZeroGrad();
    x->grad[0] = 1.0;
    sgd.Step();
  }
  EXPECT_NEAR(x->value[0], -0.29, 1e-12);
}

TEST(AdamTest, BiasCorrectionMakesFirstStepLrSized) {
  Var x = Parameter(Tensor({1}, {1.0}), "x");
  Adam adam({x}, 0.01);
  adam.ZeroGrad();
  x->grad[0] = 0.5;
  adam.Step();
  // With bias correction, the first step is ~lr * sign(grad).
  EXPECT_NEAR(x->value[0], 1.0 - 0.01, 1e-6);
}

TEST(ClipTest, ClipsToMaxNorm) {
  Var x = Parameter(Tensor({2}, {3.0, 4.0}), "x");
  Sgd sgd({x}, 1.0);
  sgd.ZeroGrad();
  x->grad[0] = 3.0;
  x->grad[1] = 4.0;  // norm 5
  Float pre = sgd.ClipGradNorm(1.0);
  EXPECT_DOUBLE_EQ(pre, 5.0);
  EXPECT_NEAR(std::hypot(x->grad[0], x->grad[1]), 1.0, 1e-12);
}

TEST(ClipTest, NoOpBelowThreshold) {
  Var x = Parameter(Tensor({1}, {0.3}), "x");
  Sgd sgd({x}, 1.0);
  sgd.ZeroGrad();
  x->grad[0] = 0.3;
  sgd.ClipGradNorm(1.0);
  EXPECT_DOUBLE_EQ(x->grad[0], 0.3);
}

TEST(OptimDeathTest, UnknownKindAborts) {
  Var x = Parameter(Tensor({1}, {1.0}), "x");
  EXPECT_DEATH(MakeOptimizer("lbfgs", {x}, 0.1), "unknown optimizer");
}

}  // namespace
}  // namespace dlner
