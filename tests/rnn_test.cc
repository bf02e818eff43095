#include "tensor/rnn.h"

#include <gtest/gtest.h>

#include "support/gradcheck.h"
#include "tensor/ops.h"

namespace dlner {
namespace {

using testsup::MaxGradError;

Var RandomInput(std::vector<int> shape, Rng* rng) {
  Tensor t(std::move(shape));
  for (int i = 0; i < t.size(); ++i) t[i] = rng->Uniform(-1.0, 1.0);
  return Parameter(std::move(t));
}

class CellTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CellTest, OutputShape) {
  Rng rng(1);
  auto cell = MakeRnnCell(GetParam(), 3, 4, &rng, "cell");
  Var x = Constant(Tensor({6, 3}));
  Var out = RunRnn(*cell, x, /*reverse=*/false);
  EXPECT_EQ(out->value.rows(), 6);
  EXPECT_EQ(out->value.cols(), 4);
}

TEST_P(CellTest, GradCheckThroughTime) {
  Rng rng(2);
  auto cell = MakeRnnCell(GetParam(), 2, 3, &rng, "cell");
  Rng data_rng(3);
  Var x = RandomInput({4, 2}, &data_rng);
  std::vector<Var> inputs = cell->Parameters();
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Sum(RunRnn(*cell, x, false)); }, inputs),
            1e-5);
}

TEST_P(CellTest, ReverseGradCheck) {
  Rng rng(4);
  auto cell = MakeRnnCell(GetParam(), 2, 2, &rng, "cell");
  Rng data_rng(5);
  Var x = RandomInput({5, 2}, &data_rng);
  std::vector<Var> inputs = cell->Parameters();
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Sum(RunRnn(*cell, x, true)); }, inputs),
            1e-5);
}

TEST_P(CellTest, ReverseAlignsOutputRows) {
  // Reversed runs must still place the representation of token t at row t.
  Rng rng(6);
  auto cell = MakeRnnCell(GetParam(), 1, 2, &rng, "cell");
  Var x = Constant(Tensor({3, 1}, {1.0, 2.0, 3.0}));
  Var out = RunRnn(*cell, x, /*reverse=*/true);
  // The last processed token in a reverse run is t=0, so row 0 depends on
  // the whole sequence; row 2 depends only on token 2. Check by zeroing
  // token 0 and confirming row 2 is unchanged.
  Var x2 = Constant(Tensor({3, 1}, {0.0, 2.0, 3.0}));
  Var out2 = RunRnn(*cell, x2, /*reverse=*/true);
  for (int j = 0; j < 2; ++j) {
    EXPECT_DOUBLE_EQ(out->value.at(2, j), out2->value.at(2, j));
  }
  // ...while row 0 does change.
  bool changed = false;
  for (int j = 0; j < 2; ++j) {
    if (out->value.at(0, j) != out2->value.at(0, j)) changed = true;
  }
  EXPECT_TRUE(changed);
}

INSTANTIATE_TEST_SUITE_P(Cells, CellTest, ::testing::Values("lstm", "gru"),
                         [](const auto& info) { return info.param; });

TEST(BiRnnTest, ConcatenatesDirections) {
  Rng rng(7);
  BiRnn bi("lstm", 3, 4, &rng);
  Var x = Constant(Tensor({5, 3}));
  Var out = bi.Apply(x);
  EXPECT_EQ(out->value.rows(), 5);
  EXPECT_EQ(out->value.cols(), 8);
  EXPECT_EQ(bi.out_dim(), 8);
}

TEST(BiRnnTest, GradCheck) {
  Rng rng(8);
  BiRnn bi("gru", 2, 2, &rng);
  Rng data_rng(9);
  Var x = RandomInput({3, 2}, &data_rng);
  std::vector<Var> inputs = bi.Parameters();
  inputs.push_back(x);
  EXPECT_LT(MaxGradError([&] { return Sum(Tanh(bi.Apply(x))); }, inputs),
            1e-5);
}

TEST(LstmTest, ForgetBiasInitializedToOne) {
  Rng rng(10);
  LstmCell cell(2, 3, &rng);
  Var bias = cell.Parameters()[1];
  for (int j = 3; j < 6; ++j) EXPECT_DOUBLE_EQ(bias->value[j], 1.0);
  for (int j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(bias->value[j], 0.0);
}

TEST(RnnTest, FinalStateMatchesLastOutput) {
  Rng rng(11);
  LstmCell cell(2, 3, &rng);
  Rng data_rng(12);
  Var x = RandomInput({4, 2}, &data_rng);
  auto [out, state] = RunRnnWithState(cell, x, /*reverse=*/false);
  for (int j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(out->value.at(3, j), state.h->value[j]);
  }
}

TEST(RnnDeathTest, UnknownCellKindAborts) {
  Rng rng(13);
  EXPECT_DEATH(MakeRnnCell("vanilla", 2, 2, &rng, "x"), "unknown rnn cell");
}

}  // namespace
}  // namespace dlner
