// Tests for the two late-added taxonomy cells: the bidirectional recursive
// encoder over heuristic constituency structure (survey Fig. 8, [97]) and
// the FOFE span-classification decoder ([115]).
#include <cmath>

#include <gtest/gtest.h>

#include "decoders/fofe.h"
#include "encoders/recursive.h"
#include "support/gradcheck.h"
#include "tensor/optim.h"
#include "tensor/ops.h"

namespace dlner {
namespace {

using testsup::MaxGradError;
using testsup::Mean;

using decoders::FofeDecoder;
using encoders::BinaryTree;
using encoders::BuildHeuristicTree;
using encoders::RecursiveEncoder;

Var RandomInput(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t({rows, cols});
  for (int i = 0; i < t.size(); ++i) t[i] = rng.Uniform(-1.0, 1.0);
  return Parameter(std::move(t));
}

// Encodes `x` as a sentence of x.rows() unpunctuated placeholder tokens.
Var EncodeWords(const RecursiveEncoder& enc, const Var& x) {
  return enc.Encode(x, std::vector<std::string>(x->value.rows(), "w"),
                    /*training=*/false);
}

// --- Trees ---

TEST(TreeTest, BalancedTreeCoversAllTokens) {
  // Without punctuation the heuristic bracketing is one balanced tree.
  for (int n : {1, 2, 3, 7, 12}) {
    BinaryTree tree = BuildHeuristicTree(std::vector<std::string>(n, "w"));
    EXPECT_EQ(tree.num_tokens, n);
    // Exactly 2n-1 nodes for a full binary tree over n leaves.
    EXPECT_EQ(static_cast<int>(tree.nodes.size()), 2 * n - 1);
    const auto& root = tree.nodes[tree.root()];
    EXPECT_EQ(root.start, 0);
    EXPECT_EQ(root.end, n);
    EXPECT_EQ(root.parent, -1);
    // Every non-root node has a parent that covers it.
    for (int i = 0; i < tree.root(); ++i) {
      const auto& node = tree.nodes[i];
      ASSERT_GE(node.parent, 0);
      EXPECT_LE(tree.nodes[node.parent].start, node.start);
      EXPECT_GE(tree.nodes[node.parent].end, node.end);
    }
  }
}

TEST(TreeTest, InternalNodesFollowChildren) {
  // The encoder relies on children having smaller indexes than parents.
  BinaryTree tree = BuildHeuristicTree(
      {"John", "slept", ".", "Mary", "ran", "."});
  for (size_t i = 0; i < tree.nodes.size(); ++i) {
    const auto& node = tree.nodes[i];
    if (node.left >= 0) {
      EXPECT_LT(node.left, static_cast<int>(i));
      EXPECT_LT(node.right, static_cast<int>(i));
    }
  }
}

TEST(TreeTest, HeuristicTreeSegmentsAtPunctuation) {
  BinaryTree tree = BuildHeuristicTree(
      {"John", "slept", ".", "Mary", "ran", "."});
  // Some internal node must cover exactly the first segment [0, 3).
  bool found_first_segment = false;
  for (const auto& node : tree.nodes) {
    if (node.start == 0 && node.end == 3 && node.left >= 0) {
      found_first_segment = true;
    }
  }
  EXPECT_TRUE(found_first_segment);
}

// --- Recursive encoder ---

TEST(RecursiveEncoderTest, OutputShape) {
  Rng rng(1);
  RecursiveEncoder enc(5, 7, &rng);
  Var x = Constant(Tensor({9, 5}));
  Var out = EncodeWords(enc, x);
  EXPECT_EQ(out->value.rows(), 9);
  EXPECT_EQ(out->value.cols(), 14);
  EXPECT_EQ(enc.out_dim(), 14);
}

TEST(RecursiveEncoderTest, GradCheck) {
  Rng rng(2);
  RecursiveEncoder enc(3, 4, &rng);
  Var x = RandomInput(5, 3, 3);
  std::vector<Var> inputs = enc.Parameters();
  inputs.push_back(x);
  EXPECT_LT(
      MaxGradError([&] { return Mean(Tanh(EncodeWords(enc, x))); }, inputs),
      2e-5);
}

TEST(RecursiveEncoderTest, TopDownPropagatesGlobalContext) {
  // Changing the last token must change the first token's representation
  // (through the root's top-down path).
  Rng rng(4);
  RecursiveEncoder enc(2, 4, &rng);
  Rng data_rng(5);
  Tensor base({8, 2});
  for (int i = 0; i < base.size(); ++i) base[i] = data_rng.Uniform(-1, 1);
  Tensor modified = base;
  modified.at(7, 0) += 2.0;
  Var out_a = EncodeWords(enc, Constant(base));
  Var out_b = EncodeWords(enc, Constant(modified));
  bool changed = false;
  for (int j = 0; j < enc.out_dim(); ++j) {
    if (out_a->value.at(0, j) != out_b->value.at(0, j)) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(RecursiveEncoderTest, BottomUpHalfIsLocalToSubtree) {
  // With a balanced tree over 8 tokens, token 0's bottom-up leaf state
  // depends only on token 0 itself (the first out_dim/2 columns).
  Rng rng(6);
  RecursiveEncoder enc(2, 4, &rng);
  Tensor base({8, 2});
  Tensor modified = base;
  modified.at(7, 0) = 3.0;
  Var out_a = EncodeWords(enc, Constant(base));
  Var out_b = EncodeWords(enc, Constant(modified));
  for (int j = 0; j < 4; ++j) {  // bottom-up half
    EXPECT_DOUBLE_EQ(out_a->value.at(0, j), out_b->value.at(0, j));
  }
}

TEST(RecursiveEncoderTest, SingleTokenSentence) {
  Rng rng(7);
  RecursiveEncoder enc(3, 4, &rng);
  Var out = EncodeWords(enc, Constant(Tensor({1, 3})));
  EXPECT_EQ(out->value.rows(), 1);
}

// --- FOFE decoder ---

TEST(FofeTest, EncodeMatchesClosedForm) {
  Rng rng(8);
  FofeDecoder dec(2, {"X"}, 3, 0.5, &rng);
  Var m = Constant(Tensor({3, 2}, {1.0, 0.0, 2.0, 0.0, 4.0, 0.0}));
  // Forward over all rows: alpha^2*1 + alpha*2 + 4 = 0.25 + 1 + 4 = 5.25.
  Var fwd = dec.Encode(m, 0, 3, /*reverse=*/false);
  EXPECT_NEAR(fwd->value[0], 5.25, 1e-12);
  // Reverse: 1 + alpha*2 + alpha^2*4 = 1 + 1 + 1 = 3.
  Var bwd = dec.Encode(m, 0, 3, /*reverse=*/true);
  EXPECT_NEAR(bwd->value[0], 3.0, 1e-12);
  // Empty range -> zeros.
  Var empty = dec.Encode(m, 2, 2, false);
  EXPECT_EQ(empty->value.size(), 2);
  EXPECT_EQ(empty->value[0], 0.0);
}

TEST(FofeTest, UniquenessForSmallAlpha) {
  // For alpha <= 0.5 FOFE is injective over binary sequences (Zhang et
  // al.); distinct index sequences must encode differently.
  Rng rng(9);
  FofeDecoder dec(1, {"X"}, 4, 0.5, &rng);
  Var a = Constant(Tensor({4, 1}, {1.0, 0.0, 1.0, 0.0}));
  Var b = Constant(Tensor({4, 1}, {0.0, 1.0, 0.0, 1.0}));
  EXPECT_NE(dec.Encode(a, 0, 4, false)->value[0],
            dec.Encode(b, 0, 4, false)->value[0]);
}

TEST(FofeTest, LossGradChecks) {
  Rng rng(10);
  FofeDecoder dec(3, {"PER"}, 3, 0.5, &rng);
  Var enc = RandomInput(4, 3, 11);
  text::Sentence s;
  s.tokens = {"a", "b", "c", "d"};
  s.spans = {{1, 3, "PER"}};
  std::vector<Var> inputs = dec.Parameters();
  inputs.push_back(enc);
  EXPECT_LT(MaxGradError([&] { return dec.Loss(enc, s); }, inputs), 1e-5);
}

TEST(FofeTest, OverfitsToy) {
  Rng rng(12);
  FofeDecoder dec(6, {"PER", "LOC"}, 4, 0.5, &rng);
  Var enc = Constant([&] {
    Rng r(13);
    Tensor t({5, 6});
    for (int i = 0; i < t.size(); ++i) t[i] = r.Uniform(-1, 1);
    return t;
  }());
  text::Sentence gold;
  gold.tokens = {"John", "Smith", "visited", "Paris", "."};
  gold.spans = {{0, 2, "PER"}, {3, 4, "LOC"}};
  Adam opt(dec.Parameters(), 0.03);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    Backward(dec.Loss(enc, gold));
    opt.ClipGradNorm(5.0);
    opt.Step();
  }
  std::vector<text::Span> predicted = dec.Predict(enc);
  std::sort(predicted.begin(), predicted.end());
  EXPECT_EQ(predicted, gold.spans);
}

TEST(FofeTest, PredictionsAreFlat) {
  Rng rng(14);
  FofeDecoder dec(4, {"A", "B"}, 3, 0.5, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    Var enc = RandomInput(9, 4, 500 + trial);
    std::vector<text::Span> spans = dec.Predict(enc);
    EXPECT_TRUE(text::SpansAreValid(spans, 9));
    EXPECT_TRUE(text::SpansAreFlat(spans));
    for (const auto& sp : spans) EXPECT_LE(sp.end - sp.start, 3);
  }
}

}  // namespace
}  // namespace dlner
