// Property-based validation of every differentiable op: analytic gradients
// must match central finite differences on random inputs, across several
// seeds and shapes (parameterized sweep).
#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tensor/gradcheck.h"
#include "tensor/nn.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace dlner {
namespace {

constexpr Float kTol = 1e-6;

Var RandomParam(std::vector<int> shape, Rng* rng, Float lo = -1.0,
                Float hi = 1.0) {
  Tensor t(std::move(shape));
  for (int i = 0; i < t.size(); ++i) t[i] = rng->Uniform(lo, hi);
  return Parameter(std::move(t));
}

// A named op case: builds a scalar loss from the given leaf inputs.
struct OpCase {
  // The test parameter, which gtest prints into every ctest name. Each case
  // keeps its id for good (a new case takes the next unused one), so
  // deleting a case renames no other test.
  int id;
  // Where one op takes a vector or a matrix, the name says which form the
  // case feeds it: AffineVec and MatMulVec a vector, SoftmaxRows a matrix,
  // ConcatVecs vectors and ConcatCols matrices.
  std::string name;
  // Creates inputs (given rng) and a loss builder over them.
  std::function<void(Rng*, std::vector<Var>*, std::function<Var()>*)> make;
};

std::vector<OpCase> AllOpCases() {
  std::vector<OpCase> cases;
  auto add = [&cases](int id, const std::string& name, auto fn) {
    cases.push_back({id, name, fn});
  };

  add(0, "Add", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({3, 4}, rng), b = RandomParam({3, 4}, rng);
    *in = {a, b};
    *f = [a, b] { return Sum(Add(a, b)); };
  });
  add(1, "Sub", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({5}, rng), b = RandomParam({5}, rng);
    *in = {a, b};
    *f = [a, b] { return Sum(Mul(Sub(a, b), Sub(a, b))); };
  });
  add(2, "Mul", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({2, 3}, rng), b = RandomParam({2, 3}, rng);
    *in = {a, b};
    *f = [a, b] { return Sum(Mul(a, b)); };
  });
  add(3, "Scale", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({4}, rng);
    *in = {a};
    *f = [a] { return Sum(Tanh(Scale(a, -2.5))); };
  });
  add(4, "Tanh", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({3, 3}, rng);
    *in = {a};
    *f = [a] { return Sum(Tanh(a)); };
  });
  add(5, "Sigmoid",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({6}, rng);
        *in = {a};
        *f = [a] { return Sum(Sigmoid(a)); };
      });
  add(6, "Relu", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    // Keep values away from the kink at 0 for finite differences.
    Var a = RandomParam({8}, rng);
    for (int i = 0; i < 8; ++i) {
      if (std::fabs(a->value[i]) < 0.05) a->value[i] = 0.2;
    }
    *in = {a};
    *f = [a] { return Sum(Relu(a)); };
  });
  add(7, "Log", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({5}, rng, 0.2, 1.5);
    *in = {a};
    *f = [a] { return Sum(Log(a)); };
  });
  add(8, "MatMul", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({3, 4}, rng), b = RandomParam({4, 2}, rng);
    *in = {a, b};
    *f = [a, b] { return Sum(MatMul(a, b)); };
  });
  add(9, "MatMulChained",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({2, 3}, rng), b = RandomParam({3, 3}, rng);
        *in = {a, b};
        *f = [a, b] { return Sum(Tanh(MatMul(MatMul(a, b), Transpose(b)))); };
      });
  add(10, "Transpose",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({2, 5}, rng);
        *in = {a};
        *f = [a] { return Sum(Mul(Transpose(a), Transpose(a))); };
      });
  add(11, "Dot", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({7}, rng), b = RandomParam({7}, rng);
    *in = {a, b};
    *f = [a, b] { return Dot(a, b); };
  });
  add(12, "Affine",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var x = RandomParam({3, 4}, rng), w = RandomParam({4, 2}, rng);
        Var b = RandomParam({2}, rng);
        *in = {x, w, b};
        *f = [x, w, b] { return Sum(Tanh(Affine(x, w, b))); };
      });
  add(13, "AddColBroadcast",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var m = RandomParam({3, 4}, rng), v = RandomParam({3}, rng);
        *in = {m, v};
        *f = [m, v] { return Sum(Tanh(AddColBroadcast(m, v))); };
      });
  add(14, "Mean", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({3, 3}, rng);
    *in = {a};
    *f = [a] { return Mean(Mul(a, a)); };
  });
  add(15, "MaxOverRows",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        // Spread values so the max is unique per column (no kink at ties).
        Var a = RandomParam({4, 3}, rng, -2.0, 2.0);
        *in = {a};
        *f = [a] { return Sum(MaxOverRows(a)); };
      });
  add(16, "MeanOverRows",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({4, 3}, rng);
        *in = {a};
        *f = [a] { return Sum(Tanh(MeanOverRows(a))); };
      });
  add(17, "LogSumExp",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({6}, rng, -3.0, 3.0);
        *in = {a};
        *f = [a] { return LogSumExp(a); };
      });
  add(18, "LogSumExpOverRows",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({4, 5}, rng, -3.0, 3.0);
        *in = {a};
        *f = [a] { return Sum(LogSumExpOverRows(a)); };
      });
  add(19, "Softmax",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({5}, rng, -2.0, 2.0);
        Var w = RandomParam({5}, rng);
        *in = {a, w};
        *f = [a, w] { return Dot(Softmax(a), w); };
      });
  add(20, "SoftmaxRows",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({3, 4}, rng, -2.0, 2.0);
        Var w = RandomParam({3, 4}, rng);
        *in = {a, w};
        *f = [a, w] { return Sum(Mul(Softmax(a), w)); };
      });
  add(21, "LogSoftmax",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({6}, rng, -2.0, 2.0);
        Var w = RandomParam({6}, rng);
        *in = {a, w};
        *f = [a, w] { return Dot(LogSoftmax(a), w); };
      });
  add(22, "RowPick",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var m = RandomParam({4, 3}, rng);
        *in = {m};
        *f = [m] { return Add(Pick(Row(m, 2), 1), PickAt(m, 0, 0)); };
      });
  add(23, "RowsGather",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var m = RandomParam({5, 3}, rng);
        *in = {m};
        // Duplicate indices exercise scatter-add.
        *f = [m] { return Sum(Tanh(Rows(m, {0, 2, 2, 4}))); };
      });
  add(24, "StackRows",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({3}, rng), b = RandomParam({3}, rng);
        *in = {a, b};
        *f = [a, b] { return Sum(Tanh(StackRows({a, b, a}))); };
      });
  add(25, "ConcatVecs",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({2}, rng), b = RandomParam({3}, rng);
        *in = {a, b};
        *f = [a, b] { return Sum(Tanh(Concat({a, b}))); };
      });
  add(26, "ConcatCols",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({3, 2}, rng), b = RandomParam({3, 4}, rng);
        *in = {a, b};
        *f = [a, b] { return Sum(Tanh(Concat({a, b}))); };
      });
  add(27, "Neg", [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
    Var a = RandomParam({5}, rng);
    *in = {a};
    *f = [a] { return Sum(Mul(Neg(a), a)); };
  });
  add(29, "AffineVec",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var x = RandomParam({4}, rng), w = RandomParam({4, 3}, rng);
        Var b = RandomParam({3}, rng);
        *in = {x, w, b};
        *f = [x, w, b] { return Sum(Tanh(Affine(x, w, b))); };
      });
  add(30, "SliceVec",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({8}, rng);
        *in = {a};
        *f = [a] { return Sum(Mul(SliceVec(a, 2, 4), SliceVec(a, 2, 4))); };
      });
  add(31, "Unfold",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({5, 3}, rng);
        *in = {a};
        *f = [a] { return Sum(Tanh(Unfold(a, 3, 1))); };
      });
  add(32, "UnfoldDilated",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({7, 2}, rng);
        *in = {a};
        *f = [a] { return Sum(Tanh(Unfold(a, 3, 2))); };
      });
  add(33, "CrossEntropyWithLogits",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({5}, rng, -2.0, 2.0);
        *in = {a};
        *f = [a] { return CrossEntropyWithLogits(a, 3); };
      });
  add(34, "MatMulVec",
      [](Rng* rng, std::vector<Var>* in, std::function<Var()>* f) {
        Var a = RandomParam({4}, rng), b = RandomParam({4, 3}, rng);
        *in = {a, b};
        *f = [a, b] { return Sum(Tanh(MatMul(a, b))); };
      });
  return cases;
}

OpCase CaseWithId(int id) {
  for (OpCase& c : AllOpCases()) {
    if (c.id == id) return c;
  }
  ADD_FAILURE() << "no op case has id " << id;
  return {};
}

std::vector<int> AllCaseIds() {
  std::vector<int> ids;
  for (const OpCase& c : AllOpCases()) ids.push_back(c.id);
  return ids;
}

class OpGradTest : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(OpGradTest, AnalyticMatchesNumeric) {
  const int seed = std::get<1>(GetParam());
  OpCase c = CaseWithId(std::get<0>(GetParam()));
  Rng rng(1000 + 77 * seed);
  std::vector<Var> inputs;
  std::function<Var()> loss;
  c.make(&rng, &inputs, &loss);
  EXPECT_LT(MaxGradError(loss, inputs), kTol) << "op " << c.name;
}

std::string CaseName(const ::testing::TestParamInfo<std::tuple<int, int>>& p) {
  return CaseWithId(std::get<0>(p.param)).name + "_seed" +
         std::to_string(std::get<1>(p.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, OpGradTest,
    ::testing::Combine(::testing::ValuesIn(AllCaseIds()),
                       ::testing::Range(0, 3)),
    CaseName);

TEST(OpsForwardTest, MatMulKnownValues) {
  Var a = Constant(Tensor({2, 2}, {1.0, 2.0, 3.0, 4.0}));
  Var b = Constant(Tensor({2, 2}, {5.0, 6.0, 7.0, 8.0}));
  Var c = MatMul(a, b);
  EXPECT_DOUBLE_EQ(c->value.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c->value.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c->value.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c->value.at(1, 1), 50.0);
}

TEST(OpsForwardTest, SoftmaxSumsToOne) {
  Rng rng(7);
  Var a = RandomParam({9}, &rng, -5.0, 5.0);
  Var s = Softmax(a);
  Float total = 0.0;
  for (int i = 0; i < 9; ++i) {
    total += s->value[i];
    EXPECT_GT(s->value[i], 0.0);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(OpsForwardTest, LogSumExpStability) {
  Var a = Constant(Tensor::FromVector({1000.0, 1000.0}));
  Var l = LogSumExp(a);
  EXPECT_NEAR(l->value[0], 1000.0 + std::log(2.0), 1e-9);
}

TEST(OpsForwardTest, DropoutEvalIsIdentity) {
  Rng rng(3);
  Var a = RandomParam({10}, &rng);
  Var d = Dropout(a, 0.5, &rng, /*training=*/false);
  EXPECT_EQ(d.get(), a.get());
}

TEST(OpsForwardTest, DropoutTrainScalesAndMasks) {
  Rng rng(11);
  Var a = Parameter(Tensor::Full({1000}, 1.0));
  Var d = Dropout(a, 0.25, &rng, /*training=*/true);
  int zeros = 0;
  for (int i = 0; i < 1000; ++i) {
    if (d->value[i] == 0.0) {
      ++zeros;
    } else {
      EXPECT_NEAR(d->value[i], 1.0 / 0.75, 1e-12);
    }
  }
  EXPECT_GT(zeros, 150);
  EXPECT_LT(zeros, 350);
}

TEST(OpsForwardTest, DropoutGradientFlowsThroughMask) {
  Rng rng(5);
  Var a = Parameter(Tensor::Full({50}, 2.0));
  Var d = Dropout(a, 0.5, &rng, /*training=*/true);
  Var loss = Sum(d);
  Backward(loss);
  for (int i = 0; i < 50; ++i) {
    if (d->value[i] == 0.0) {
      EXPECT_EQ(a->grad[i], 0.0);
    } else {
      EXPECT_NEAR(a->grad[i], 2.0, 1e-12);
    }
  }
}

TEST(BackwardTest, ReusedNodeAccumulatesOnce) {
  // loss = sum(x * x): d/dx = 2x even though x appears twice.
  Var x = Parameter(Tensor::FromVector({3.0, -2.0}));
  Backward(Sum(Mul(x, x)));
  EXPECT_DOUBLE_EQ(x->grad[0], 6.0);
  EXPECT_DOUBLE_EQ(x->grad[1], -4.0);
}

TEST(BackwardTest, DiamondGraph) {
  // y = tanh(x); loss = sum(y*y + y). Both paths flow into x.
  Var x = Parameter(Tensor::FromVector({0.5}));
  Var y = Tanh(x);
  Backward(Sum(Add(Mul(y, y), y)));
  const Float t = std::tanh(0.5);
  EXPECT_NEAR(x->grad[0], (2.0 * t + 1.0) * (1.0 - t * t), 1e-12);
}

TEST(BackwardTest, SecondBackwardResetsGradients) {
  Var x = Parameter(Tensor::FromVector({2.0}));
  Backward(Sum(Mul(x, x)));
  EXPECT_DOUBLE_EQ(x->grad[0], 4.0);
  Backward(Sum(Mul(x, x)));
  // Gradients are zeroed per call, not accumulated across calls.
  EXPECT_DOUBLE_EQ(x->grad[0], 4.0);
}

TEST(BackwardTest, ConstantsReceiveNoGradient) {
  Var c = Constant(Tensor::FromVector({1.0, 2.0}));
  Var x = Parameter(Tensor::FromVector({3.0, 4.0}));
  Backward(Sum(Mul(c, x)));
  EXPECT_DOUBLE_EQ(x->grad[0], 1.0);
  EXPECT_TRUE(c->grad.empty() || c->grad.size() == 0);
}

TEST(BackwardDeathTest, NonScalarRootAborts) {
  Var x = Parameter(Tensor::FromVector({1.0, 2.0}));
  EXPECT_DEATH(Backward(Tanh(x)), "scalar");
}

}  // namespace
}  // namespace dlner
