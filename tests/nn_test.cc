#include "tensor/nn.h"

#include <cmath>
#include <span>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "support/gradcheck.h"
#include "support/params.h"
#include "tensor/ops.h"

namespace dlner {
namespace {

using testsup::MaxGradError;

Var RandomInput(std::vector<int> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int i = 0; i < t.size(); ++i) t[i] = rng->Uniform(-1.0, 1.0);
  return Parameter(std::move(t));
}

TEST(SkipInitGuardTest, RecordsUnwrittenTensorsAndLeavesRngUntouched) {
  Rng rng(4);
  Rng fresh(4);
  {
    SkipInitGuard skip_init;
    std::vector<Tensor> made;
    {
      SkipInitGuard nested;
      made.push_back(UniformVector(2, 0.5, &rng));
      // Only the innermost guard records.
      ASSERT_EQ(nested.unwritten().size(), 1u);
      EXPECT_EQ(nested.unwritten()[0].data(), made[0].data());
    }
    // Still skipping after the nested guard restored the outer state.
    made.push_back(UniformMatrix(3, 4, 0.5, &rng));
    made.push_back(UniformVector(5, 0.5, &rng));
    made.push_back(GlorotMatrix(2, 6, &rng));
    EXPECT_EQ(made[1].shape(), (std::vector<int>{3, 4}));
    EXPECT_EQ(made[2].shape(), (std::vector<int>{5}));
    EXPECT_EQ(made[3].shape(), (std::vector<int>{2, 6}));
    // Each record is the tensor's own buffer, which moving the tensor (into
    // `made`, and as `made` grows) keeps.
    const std::vector<std::span<Float>>& unwritten = skip_init.unwritten();
    ASSERT_EQ(unwritten.size(), 3u);
    for (size_t k = 0; k < unwritten.size(); ++k) {
      EXPECT_EQ(unwritten[k].data(), made[k + 1].data());
      EXPECT_EQ(unwritten[k].size(), static_cast<size_t>(made[k + 1].size()));
    }
  }
  // The Rng drew nothing under the guard, and init draws again after it.
  const Tensor after = UniformVector(8, 0.5, &rng);
  const Tensor expected = UniformVector(8, 0.5, &fresh);
  for (int i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i], expected[i]);
    EXPECT_NE(after[i], 0.0);
  }
}

TEST(LinearTest, ShapesAndParameterCount) {
  Rng rng(1);
  Linear lin(5, 3, &rng);
  EXPECT_EQ(testsup::ParameterCount(lin), 5 * 3 + 3);
  Var x = Constant(Tensor({4, 5}));
  Var y = lin.Apply(x);
  EXPECT_EQ(y->value.rows(), 4);
  EXPECT_EQ(y->value.cols(), 3);
}

TEST(LinearTest, ApplyToVectorMatchesOneRowMatrix) {
  Rng rng(2);
  Linear lin(4, 2, &rng);
  Rng data_rng(3);
  Var v = RandomInput({4}, &data_rng);
  Var via_vec = lin.Apply(v);
  ASSERT_EQ(via_vec->value.dim(), 1);
  Var via_mat = Row(lin.Apply(StackRows({v})), 0);
  for (int i = 0; i < 2; ++i) {
    EXPECT_DOUBLE_EQ(via_vec->value[i], via_mat->value[i]);
  }
}

TEST(LinearTest, GradCheck) {
  Rng rng(4);
  Linear lin(3, 2, &rng);
  Rng data_rng(5);
  Var x = RandomInput({4, 3}, &data_rng);
  std::vector<Var> inputs = lin.Parameters();
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Sum(Tanh(lin.Apply(x))); }, inputs),
            1e-6);
}

TEST(EmbeddingTest, LookupShapeAndGradScatter) {
  Rng rng(6);
  Embedding emb(10, 4, &rng);
  Var e = emb.Lookup({1, 3, 1});
  EXPECT_EQ(e->value.rows(), 3);
  EXPECT_EQ(e->value.cols(), 4);
  // Row 1 appears twice -> its gradient doubles.
  Backward(Sum(e));
  Var table = emb.Parameters()[0];
  EXPECT_DOUBLE_EQ(table->grad.at(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(table->grad.at(3, 0), 1.0);
  EXPECT_DOUBLE_EQ(table->grad.at(0, 0), 0.0);
}

TEST(EmbeddingTest, SetRowAndFreeze) {
  Rng rng(7);
  Embedding emb(5, 3, &rng);
  emb.SetRow(2, {9.0, 8.0, 7.0});
  Var row = emb.LookupOne(2);
  EXPECT_DOUBLE_EQ(row->value[0], 9.0);
  EXPECT_EQ(emb.Parameters().size(), 1u);
  emb.set_trainable(false);
  // The table stays visible for serialization but is marked frozen.
  ASSERT_EQ(emb.Parameters().size(), 1u);
  EXPECT_FALSE(emb.Parameters()[0]->requires_grad);
  // Frozen lookups do not propagate gradients.
  Var e = emb.Lookup({0, 1});
  EXPECT_FALSE(e->requires_grad);
}

TEST(LayerNormTest, NormalizesRows) {
  LayerNorm ln(4);
  Var x = Constant(Tensor({2, 4}, {1.0, 2.0, 3.0, 4.0, -5.0, 0.0, 5.0, 10.0}));
  Var y = ln.Apply(x);
  for (int r = 0; r < 2; ++r) {
    Float mean = 0.0;
    for (int c = 0; c < 4; ++c) mean += y->value.at(r, c);
    mean /= 4;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    Float var = 0.0;
    for (int c = 0; c < 4; ++c) {
      var += (y->value.at(r, c) - mean) * (y->value.at(r, c) - mean);
    }
    var /= 4;
    EXPECT_NEAR(var, 1.0, 1e-4);
  }
}

TEST(LayerNormTest, GradCheck) {
  LayerNorm ln(5);
  Rng rng(8);
  Var x = RandomInput({3, 5}, &rng);
  // Perturb gain/bias away from identity for a stronger test.
  std::vector<Var> params = ln.Parameters();
  for (const Var& p : params) {
    for (int i = 0; i < p->value.size(); ++i) {
      p->value[i] += rng.Uniform(-0.3, 0.3);
    }
  }
  std::vector<Var> inputs = params;
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Sum(Tanh(ln.Apply(x))); }, inputs),
            1e-5);
}

TEST(Conv1dTest, SameLengthOutput) {
  Rng rng(9);
  Conv1d conv(3, 5, 3, 1, &rng);
  Var x = Constant(Tensor({7, 3}));
  Var y = conv.Apply(x);
  EXPECT_EQ(y->value.rows(), 7);
  EXPECT_EQ(y->value.cols(), 5);
}

TEST(Conv1dTest, GradCheck) {
  Rng rng(10);
  Conv1d conv(2, 3, 3, 1, &rng);
  Rng data_rng(11);
  Var x = RandomInput({5, 2}, &data_rng);
  std::vector<Var> inputs = conv.Parameters();
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Sum(Tanh(conv.Apply(x))); }, inputs),
            1e-6);
}

TEST(Conv1dTest, DilatedGradCheck) {
  Rng rng(12);
  Conv1d conv(2, 2, 3, 3, &rng);
  Rng data_rng(13);
  Var x = RandomInput({9, 2}, &data_rng);
  std::vector<Var> inputs = conv.Parameters();
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Sum(Tanh(conv.Apply(x))); }, inputs),
            1e-6);
}

TEST(Conv1dTest, UnfoldZeroPadsBoundaries) {
  Var x = Constant(Tensor({2, 1}, {1.0, 2.0}));
  Var u = Unfold(x, 3, 1);
  // Row 0: [pad, x0, x1] = [0, 1, 2]; Row 1: [x0, x1, pad] = [1, 2, 0].
  EXPECT_DOUBLE_EQ(u->value.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(u->value.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(u->value.at(0, 2), 2.0);
  EXPECT_DOUBLE_EQ(u->value.at(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(u->value.at(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(u->value.at(1, 2), 0.0);
}

TEST(ModuleTest, JoinParametersSkipsNull) {
  Rng rng(16);
  Linear a(2, 2, &rng), b(2, 2, &rng);
  auto all = JoinParameters({&a, nullptr, &b});
  EXPECT_EQ(all.size(), 4u);
}

TEST(InitTest, GlorotScale) {
  Rng rng(17);
  Tensor t = GlorotMatrix(20, 30, &rng);
  const Float bound = std::sqrt(6.0 / 50.0);
  for (int i = 0; i < t.size(); ++i) {
    EXPECT_LE(std::fabs(t[i]), bound);
  }
}

}  // namespace
}  // namespace dlner
