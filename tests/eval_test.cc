#include "eval/metrics.h"

#include <gtest/gtest.h>

namespace dlner::eval {
namespace {

using text::Span;

TEST(PrfTest, ZeroCountsGiveZeroScores) {
  Prf prf;
  EXPECT_EQ(prf.precision(), 0.0);
  EXPECT_EQ(prf.recall(), 0.0);
  EXPECT_EQ(prf.f1(), 0.0);
}

TEST(PrfTest, HandComputedValues) {
  Prf prf;
  prf.tp = 6;
  prf.fp = 2;
  prf.fn = 4;
  EXPECT_DOUBLE_EQ(prf.precision(), 0.75);
  EXPECT_DOUBLE_EQ(prf.recall(), 0.6);
  EXPECT_NEAR(prf.f1(), 2 * 0.75 * 0.6 / 1.35, 1e-12);
}

TEST(ExactMatchTest, PerfectPrediction) {
  ExactMatchEvaluator ev;
  std::vector<Span> gold = {{0, 2, "PER"}, {3, 4, "LOC"}};
  ev.Add(gold, gold);
  ExactResult r = ev.Result();
  EXPECT_DOUBLE_EQ(r.micro.f1(), 1.0);
  EXPECT_DOUBLE_EQ(r.macro_f1, 1.0);
}

TEST(ExactMatchTest, BoundaryErrorIsBothFpAndFn) {
  ExactMatchEvaluator ev;
  ev.Add({{0, 2, "PER"}}, {{0, 3, "PER"}});  // off-by-one boundary
  ExactResult r = ev.Result();
  EXPECT_EQ(r.micro.tp, 0);
  EXPECT_EQ(r.micro.fp, 1);
  EXPECT_EQ(r.micro.fn, 1);
}

TEST(ExactMatchTest, TypeErrorIsBothFpAndFn) {
  ExactMatchEvaluator ev;
  ev.Add({{0, 2, "PER"}}, {{0, 2, "LOC"}});
  ExactResult r = ev.Result();
  EXPECT_EQ(r.micro.tp, 0);
  EXPECT_EQ(r.per_type.at("LOC").fp, 1);
  EXPECT_EQ(r.per_type.at("PER").fn, 1);
}

TEST(ExactMatchTest, DuplicatePredictionsNotDoubleCounted) {
  ExactMatchEvaluator ev;
  ev.Add({{0, 1, "PER"}}, {{0, 1, "PER"}, {0, 1, "PER"}});
  ExactResult r = ev.Result();
  EXPECT_EQ(r.micro.tp, 1);
  EXPECT_EQ(r.micro.fp, 1);
  EXPECT_EQ(r.micro.fn, 0);
}

TEST(ExactMatchTest, MicroVsMacroUnderImbalance) {
  // Frequent type predicted perfectly, rare type entirely missed: micro F1
  // stays high, macro F1 collapses toward 0.5 (the Section 2.3.1 contrast).
  ExactMatchEvaluator ev;
  for (int i = 0; i < 9; ++i) {
    ev.Add({{0, 1, "FREQ"}}, {{0, 1, "FREQ"}});
  }
  ev.Add({{0, 1, "RARE"}}, {});
  ExactResult r = ev.Result();
  EXPECT_GT(r.micro.f1(), 0.9);
  EXPECT_LT(r.macro_f1, 0.55);
}

TEST(RelaxedMatchTest, OverlapWithRightTypeCreditsTypeDimension) {
  RelaxedMatchEvaluator ev;
  // Overlapping but not exact boundaries; same type.
  ev.Add({{0, 3, "PER"}}, {{1, 4, "PER"}});
  RelaxedResult r = ev.Result();
  EXPECT_EQ(r.type.tp, 1);
  EXPECT_EQ(r.text.tp, 0);  // boundaries differ
  EXPECT_GT(r.muc_f1, 0.0);
  EXPECT_LT(r.muc_f1, 1.0);
}

TEST(RelaxedMatchTest, ExactBoundariesWrongTypeCreditsTextDimension) {
  RelaxedMatchEvaluator ev;
  ev.Add({{0, 2, "PER"}}, {{0, 2, "LOC"}});
  RelaxedResult r = ev.Result();
  EXPECT_EQ(r.type.tp, 0);
  EXPECT_EQ(r.text.tp, 1);
}

TEST(RelaxedMatchTest, RelaxedNeverBelowExact) {
  // Any exact match credits both dimensions, so MUC F1 >= exact F1.
  std::vector<std::vector<Span>> gold = {
      {{0, 2, "PER"}, {4, 5, "LOC"}},
      {{1, 3, "ORG"}},
      {{0, 1, "PER"}},
  };
  std::vector<std::vector<Span>> pred = {
      {{0, 2, "PER"}, {4, 6, "LOC"}},  // 1 exact, 1 overlap
      {{1, 3, "PER"}},                 // boundary right, type wrong
      {},
  };
  const double exact = EvaluateExact(gold, pred).micro.f1();
  const double relaxed = EvaluateRelaxed(gold, pred).muc_f1;
  EXPECT_GE(relaxed, exact);
}

TEST(RelaxedMatchTest, NoOverlapNoCredit) {
  RelaxedMatchEvaluator ev;
  ev.Add({{0, 1, "PER"}}, {{3, 4, "PER"}});
  RelaxedResult r = ev.Result();
  EXPECT_EQ(r.type.tp, 0);
  EXPECT_EQ(r.text.tp, 0);
}

TEST(ExactMatchTest, EmptyCorpusYieldsAllZeros) {
  const ExactResult r = EvaluateExact({}, {});
  EXPECT_EQ(r.micro.tp, 0);
  EXPECT_EQ(r.micro.fp, 0);
  EXPECT_EQ(r.micro.fn, 0);
  EXPECT_EQ(r.macro_f1, 0.0);
  EXPECT_TRUE(r.per_type.empty());
  EXPECT_EQ(r.micro.f1(), 0.0);
}

TEST(ExactMatchTest, SentenceWithNoGoldSpans) {
  // No gold, no predictions: contributes nothing (no phantom types).
  ExactMatchEvaluator ev;
  ev.Add({}, {});
  EXPECT_TRUE(ev.Result().per_type.empty());

  // No gold but predictions: pure false positives.
  ev.Add({}, {{0, 1, "PER"}, {2, 3, "LOC"}});
  const ExactResult r = ev.Result();
  EXPECT_EQ(r.micro.tp, 0);
  EXPECT_EQ(r.micro.fp, 2);
  EXPECT_EQ(r.micro.fn, 0);
  EXPECT_EQ(r.per_type.at("PER").fp, 1);
  EXPECT_EQ(r.per_type.at("LOC").fp, 1);
}

TEST(ExactMatchTest, PredictionOnlyTypeEntersMacroDenominator) {
  // Gold type predicted perfectly; a second type appears only in
  // predictions. Its F1 of 0 must still be averaged in, halving macro-F1.
  ExactMatchEvaluator ev;
  ev.Add({{0, 1, "GOLD"}}, {{0, 1, "GOLD"}, {2, 3, "SPURIOUS"}});
  const ExactResult r = ev.Result();
  ASSERT_EQ(r.per_type.size(), 2u);
  EXPECT_EQ(r.per_type.at("SPURIOUS").fp, 1);
  EXPECT_DOUBLE_EQ(r.per_type.at("GOLD").f1(), 1.0);
  EXPECT_DOUBLE_EQ(r.macro_f1, 0.5);
}

TEST(RelaxedMatchTest, NestedGoldSpansAreMatchedOneToOne) {
  // Nested gold mentions: one prediction overlapping both may only consume
  // one of them, the other stays a false negative.
  RelaxedMatchEvaluator ev;
  ev.Add({{0, 5, "PER"}, {1, 2, "PER"}}, {{1, 3, "PER"}});
  const RelaxedResult r = ev.Result();
  EXPECT_EQ(r.type.tp, 1);
  EXPECT_EQ(r.type.fp, 0);
  EXPECT_EQ(r.type.fn, 1);
}

TEST(RelaxedMatchTest, OverlappingPredictionsCannotReuseOneGoldSpan) {
  // Two predictions overlapping the same single gold span: the second gets
  // no credit in either dimension.
  RelaxedMatchEvaluator ev;
  ev.Add({{0, 4, "LOC"}}, {{0, 4, "LOC"}, {1, 3, "LOC"}});
  const RelaxedResult r = ev.Result();
  EXPECT_EQ(r.type.tp, 1);
  EXPECT_EQ(r.type.fp, 1);
  EXPECT_EQ(r.text.tp, 1);
  EXPECT_EQ(r.text.fp, 1);
  EXPECT_EQ(r.type.fn, 0);
}

TEST(RelaxedMatchTest, EmptyCorpusYieldsZeroMucF1) {
  const RelaxedResult r = EvaluateRelaxed({}, {});
  EXPECT_EQ(r.type.tp + r.type.fp + r.type.fn, 0);
  EXPECT_EQ(r.text.tp + r.text.fp + r.text.fn, 0);
  EXPECT_EQ(r.muc_f1, 0.0);
}

TEST(SignificanceTest, IdenticalSystemsAreNotSignificant) {
  std::vector<std::vector<Span>> gold(30, {{0, 1, "X"}});
  std::vector<std::vector<Span>> pred(30, {{0, 1, "X"}});
  const double p =
      ApproximateRandomizationPValue(gold, pred, pred, 200, 3);
  EXPECT_GT(p, 0.9);  // observed difference is 0: every trial ties it
}

TEST(SignificanceTest, LargeGapIsSignificant) {
  // System A perfect, system B always wrong, 60 sentences.
  std::vector<std::vector<Span>> gold, a, b;
  for (int i = 0; i < 60; ++i) {
    gold.push_back({{0, 2, "X"}});
    a.push_back({{0, 2, "X"}});
    b.push_back({{1, 2, "X"}});
  }
  const double p = ApproximateRandomizationPValue(gold, a, b, 400, 5);
  EXPECT_LT(p, 0.02);
}

TEST(SignificanceTest, TinyNoisyGapIsNotSignificant) {
  // Two systems differing on a single sentence out of 40.
  std::vector<std::vector<Span>> gold, a, b;
  for (int i = 0; i < 40; ++i) {
    gold.push_back({{0, 1, "X"}});
    a.push_back({{0, 1, "X"}});
    b.push_back(i == 0 ? std::vector<Span>{} : gold.back());
  }
  const double p = ApproximateRandomizationPValue(gold, a, b, 400, 7);
  EXPECT_GT(p, 0.05);
}

}  // namespace
}  // namespace dlner::eval
