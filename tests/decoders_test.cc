#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "decoders/crf.h"
#include "decoders/pointer.h"
#include "decoders/rnn_decoder.h"
#include "decoders/semicrf.h"
#include "decoders/softmax.h"
#include "support/corpus_gen.h"
#include "support/gradcheck.h"
#include "tensor/optim.h"
#include "tensor/ops.h"

namespace dlner::decoders {
namespace {

using testsup::MaxGradError;

using text::Sentence;
using text::Span;
using text::TagScheme;
using text::TagSet;

Var RandomInput(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  Tensor t({rows, cols});
  for (int i = 0; i < t.size(); ++i) t[i] = rng.Uniform(-1.0, 1.0);
  return Constant(std::move(t));
}

Sentence ToySentence() {
  Sentence s;
  s.tokens = {"John", "Smith", "visited", "Paris", "."};
  s.spans = {{0, 2, "PER"}, {3, 4, "LOC"}};
  return s;
}

// Trains a decoder on a single sentence with fixed encodings; the loss must
// collapse and the prediction must become exact (capacity sanity check).
void ExpectOverfits(TagDecoder* decoder, const Var& enc, const Sentence& gold,
                    int steps, Float lr) {
  Adam opt(decoder->Parameters(), lr);
  Float first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < steps; ++i) {
    opt.ZeroGrad();
    Var loss = decoder->Loss(enc, gold);
    Backward(loss);
    opt.ClipGradNorm(5.0);
    opt.Step();
    if (i == 0) first_loss = loss->value[0];
    last_loss = loss->value[0];
  }
  EXPECT_LT(last_loss, first_loss);
  std::vector<Span> predicted = decoder->Predict(enc);
  std::vector<Span> expected = gold.spans;
  std::sort(expected.begin(), expected.end());
  std::sort(predicted.begin(), predicted.end());
  EXPECT_EQ(predicted, expected);
}

// --- Softmax ---

TEST(SoftmaxDecoderTest, LossMatchesManualCrossEntropy) {
  TagSet tags({"PER"}, TagScheme::kIo);  // tags: O, I-PER
  Rng rng(1);
  SoftmaxDecoder dec(2, &tags, &rng);
  Var enc = RandomInput(3, 2, 2);
  Sentence s;
  s.tokens = {"a", "b", "c"};
  s.spans = {{1, 2, "PER"}};
  Var loss = dec.Loss(enc, s);
  EXPECT_GT(loss->value[0], 0.0);
  // Uniform-logits cross entropy is ln(K); a fresh model should be near it.
  EXPECT_LT(loss->value[0], 3.0);
}

TEST(SoftmaxDecoderTest, OverfitsToy) {
  TagSet tags({"PER", "LOC"}, TagScheme::kBioes);
  Rng rng(3);
  SoftmaxDecoder dec(6, &tags, &rng);
  Var enc = RandomInput(5, 6, 4);
  ExpectOverfits(&dec, enc, ToySentence(), 150, 0.05);
}

// --- CRF ---

TEST(CrfDecoderTest, LogPartitionMatchesBruteForce) {
  TagSet tags({"A", "B"}, TagScheme::kIo);  // 3 tags
  Rng rng(5);
  CrfDecoder dec(4, &tags, &rng);
  Var enc = RandomInput(4, 4, 6);
  Var emissions = dec.Emissions(enc);
  const int t_len = 4, k = tags.size();

  // Enumerate all k^T paths.
  Float max_score = -1e18;
  std::vector<Float> scores;
  std::vector<int> path(t_len, 0);
  std::vector<int> best_path;
  while (true) {
    Var s = dec.PathScore(emissions, path);
    scores.push_back(s->value[0]);
    if (s->value[0] > max_score) {
      max_score = s->value[0];
      best_path = path;
    }
    int i = t_len - 1;
    while (i >= 0 && path[i] == k - 1) path[i--] = 0;
    if (i < 0) break;
    ++path[i];
  }
  Float lse = 0.0;
  for (Float s : scores) lse += std::exp(s - max_score);
  const Float brute_logz = max_score + std::log(lse);

  Var logz = dec.LogPartition(emissions);
  EXPECT_NEAR(logz->value[0], brute_logz, 1e-9);

  // Unconstrained Viterbi equals brute-force argmax (IO scheme: all
  // transitions valid, so constraints don't bite).
  std::vector<int> viterbi = dec.ViterbiPath(emissions->value);
  EXPECT_EQ(viterbi, best_path);
}

TEST(CrfDecoderTest, LossIsNonNegativeAndGradChecks) {
  TagSet tags({"PER"}, TagScheme::kBio);
  Rng rng(7);
  CrfDecoder dec(3, &tags, &rng);
  Rng data_rng(8);
  Tensor enc_t({4, 3});
  for (int i = 0; i < enc_t.size(); ++i) enc_t[i] = data_rng.Uniform(-1, 1);
  Var enc = Parameter(std::move(enc_t));
  Sentence s;
  s.tokens = {"a", "b", "c", "d"};
  s.spans = {{1, 3, "PER"}};
  Var loss = dec.Loss(enc, s);
  // NLL of one path among many must be positive.
  EXPECT_GT(loss->value[0], 0.0);
  std::vector<Var> inputs = dec.Parameters();
  inputs.push_back(enc);
  EXPECT_LT(MaxGradError([&] { return dec.Loss(enc, s); }, inputs), 1e-5);
}

TEST(CrfDecoderTest, ConstrainedViterbiRespectsScheme) {
  TagSet tags({"PER", "LOC"}, TagScheme::kBioes);
  Rng rng(9);
  CrfDecoder dec(4, &tags, &rng, /*constrained_decoding=*/true);
  // Random (untrained) weights across many random inputs: every decoded
  // sequence must still be scheme-valid.
  for (int trial = 0; trial < 20; ++trial) {
    Var enc = RandomInput(6, 4, 100 + trial);
    Var emissions = dec.Emissions(enc);
    std::vector<int> path = dec.ViterbiPath(emissions->value);
    EXPECT_TRUE(tags.IsValidStart(path[0]));
    for (size_t t = 1; t < path.size(); ++t) {
      EXPECT_TRUE(tags.IsValidTransition(path[t - 1], path[t]));
    }
    EXPECT_TRUE(tags.IsValidEnd(path.back()));
  }
}

TEST(CrfDecoderTest, ViterbiMatchesExhaustiveArgmax) {
  // The table-driven Viterbi (masked start/transition/end tables, flat dp
  // rows) against an argmax of PathScore over all K^T tag paths; with
  // constrained decoding only scheme-valid paths compete. Both overloads
  // (Tensor and raw rows) must return the oracle's path.
  struct Grid {
    TagScheme scheme;
    std::vector<std::string> types;
    int max_len;
  };
  const Grid grids[] = {
      {TagScheme::kIo, {"A", "B"}, 6},   // 3 tags
      {TagScheme::kBio, {"A"}, 6},       // 3 tags
      {TagScheme::kBio, {"A", "B"}, 4},  // 5 tags
      {TagScheme::kBioes, {"A"}, 5},     // 5 tags: up to 3125 paths
  };
  NoGradGuard no_grad;
  uint64_t seed = 700;
  int invalid_argmax = 0;  // unconstrained argmaxes the scheme forbids
  for (const Grid& g : grids) {
    const TagSet tags(g.types, g.scheme);
    const int k = tags.size();
    for (const bool constrained : {false, true}) {
      for (int n = 1; n <= g.max_len; ++n) {
        Rng rng(seed);
        CrfDecoder dec(3, &tags, &rng, constrained);
        const Var emissions = dec.Emissions(RandomInput(n, 3, seed + 1));
        seed += 13;
        std::vector<int> path(n, 0), best;
        Float best_score = 0.0;
        bool best_valid = false;
        for (;;) {
          bool valid = tags.IsValidStart(path[0]) &&
                       tags.IsValidEnd(path[n - 1]);
          for (int t = 1; valid && t < n; ++t) {
            valid = tags.IsValidTransition(path[t - 1], path[t]);
          }
          if (valid || !constrained) {
            const Float score = dec.PathScore(emissions, path)->value[0];
            if (best.empty() || score > best_score) {
              best = path;
              best_score = score;
              best_valid = valid;
            }
          }
          int t = n - 1;  // next path in lexicographic order
          while (t >= 0 && ++path[t] == k) path[t--] = 0;
          if (t < 0) break;
        }
        const std::string where = testsup::SchemeName(g.scheme) +
                                  " k=" + std::to_string(k) +
                                  " n=" + std::to_string(n) +
                                  (constrained ? " constrained" : "");
        ASSERT_FALSE(best.empty()) << where;
        if (!best_valid) ++invalid_argmax;
        EXPECT_EQ(dec.ViterbiPath(emissions->value), best) << where;
        EXPECT_EQ(dec.ViterbiPath(emissions->value.data(), n), best) << where;
      }
    }
  }
  // The constraint must have mattered somewhere on the grid.
  EXPECT_GT(invalid_argmax, 0);
}

TEST(CrfDecoderTest, OverfitsToy) {
  TagSet tags({"PER", "LOC"}, TagScheme::kBioes);
  Rng rng(11);
  CrfDecoder dec(6, &tags, &rng);
  Var enc = RandomInput(5, 6, 12);
  ExpectOverfits(&dec, enc, ToySentence(), 150, 0.05);
}

TEST(CrfDecoderTest, MarginalsMatchBruteForce) {
  TagSet tags({"A", "B"}, TagScheme::kIo);  // 3 tags
  Rng rng(41);
  CrfDecoder dec(3, &tags, &rng);
  Var enc = RandomInput(3, 3, 42);
  Var emissions = dec.Emissions(enc);
  const int t_len = 3, k = tags.size();

  // Brute force: p(y_t = j) over all k^T paths.
  std::vector<std::vector<Float>> brute(t_len, std::vector<Float>(k, 0.0));
  std::vector<int> path(t_len, 0);
  std::vector<Float> scores;
  std::vector<std::vector<int>> paths;
  while (true) {
    scores.push_back(dec.PathScore(emissions, path)->value[0]);
    paths.push_back(path);
    int i = t_len - 1;
    while (i >= 0 && path[i] == k - 1) path[i--] = 0;
    if (i < 0) break;
    ++path[i];
  }
  Float mx = scores[0];
  for (Float s : scores) mx = std::max(mx, s);
  Float z = 0.0;
  for (Float s : scores) z += std::exp(s - mx);
  for (size_t p = 0; p < paths.size(); ++p) {
    const Float prob = std::exp(scores[p] - mx) / z;
    for (int t = 0; t < t_len; ++t) brute[t][paths[p][t]] += prob;
  }

  Tensor marginals = dec.Marginals(emissions->value);
  for (int t = 0; t < t_len; ++t) {
    Float row_sum = 0.0;
    for (int j = 0; j < k; ++j) {
      EXPECT_NEAR(marginals.at(t, j), brute[t][j], 1e-9);
      row_sum += marginals.at(t, j);
    }
    EXPECT_NEAR(row_sum, 1.0, 1e-9);
  }
}

TEST(CrfDecoderTest, MarginalsPeakOnViterbiPathAfterTraining) {
  TagSet tags({"PER"}, TagScheme::kBio);
  Rng rng(43);
  CrfDecoder dec(4, &tags, &rng);
  Var enc = RandomInput(4, 4, 44);
  Sentence s;
  s.tokens = {"a", "b", "c", "d"};
  s.spans = {{1, 3, "PER"}};
  Adam opt(dec.Parameters(), 0.05);
  for (int i = 0; i < 120; ++i) {
    opt.ZeroGrad();
    Backward(dec.Loss(enc, s));
    opt.Step();
  }
  Var emissions = dec.Emissions(enc);
  Tensor marginals = dec.Marginals(emissions->value);
  std::vector<int> viterbi = dec.ViterbiPath(emissions->value);
  for (int t = 0; t < 4; ++t) {
    // After overfitting, the posterior concentrates on the decoded path.
    EXPECT_GT(marginals.at(t, viterbi[t]), 0.9);
  }
}

// --- Semi-CRF ---

TEST(SemiCrfTest, GoldSegmentationTilesSentence) {
  Rng rng(13);
  SemiCrfDecoder dec(4, {"PER", "LOC"}, 4, &rng);
  Sentence s = ToySentence();
  auto segs = dec.GoldSegmentation(s);
  int pos = 0;
  for (const auto& seg : segs) {
    EXPECT_EQ(seg.start, pos);
    pos = seg.end;
    if (seg.label == 0) {
      EXPECT_EQ(seg.end - seg.start, 1);
    }
  }
  EXPECT_EQ(pos, s.size());
}

TEST(SemiCrfTest, LogPartitionMatchesBruteForce) {
  Rng rng(15);
  SemiCrfDecoder dec(3, {"X", "Y"}, 3, &rng);  // labels: O, X, Y
  Var enc = RandomInput(4, 3, 16);
  const int t_len = 4;

  // Enumerate all segmentations (O restricted to length 1) recursively.
  std::vector<Float> scores;
  std::vector<SemiCrfDecoder::Segment> current;
  std::function<void(int)> recurse = [&](int pos) {
    if (pos == t_len) {
      Var s = dec.SegmentationScore(enc, current);
      scores.push_back(s->value[0]);
      return;
    }
    for (int len = 1; len <= std::min(3, t_len - pos); ++len) {
      for (int label = 0; label < dec.num_labels(); ++label) {
        if (label == 0 && len > 1) continue;
        current.push_back({pos, pos + len, label});
        recurse(pos + len);
        current.pop_back();
      }
    }
  };
  recurse(0);

  Float mx = -1e18;
  for (Float s : scores) mx = std::max(mx, s);
  Float lse = 0.0;
  for (Float s : scores) lse += std::exp(s - mx);
  const Float brute = mx + std::log(lse);

  EXPECT_NEAR(dec.LogPartition(enc)->value[0], brute, 1e-9);
}

TEST(SemiCrfTest, LossGradChecks) {
  Rng rng(17);
  SemiCrfDecoder dec(3, {"PER"}, 3, &rng);
  Rng data_rng(18);
  Tensor enc_t({4, 3});
  for (int i = 0; i < enc_t.size(); ++i) enc_t[i] = data_rng.Uniform(-1, 1);
  Var enc = Parameter(std::move(enc_t));
  Sentence s;
  s.tokens = {"a", "b", "c", "d"};
  s.spans = {{1, 3, "PER"}};
  std::vector<Var> inputs = dec.Parameters();
  inputs.push_back(enc);
  EXPECT_LT(MaxGradError([&] { return dec.Loss(enc, s); }, inputs), 1e-5);
}

TEST(SemiCrfTest, OverfitsToy) {
  Rng rng(19);
  SemiCrfDecoder dec(6, {"PER", "LOC"}, 4, &rng);
  Var enc = RandomInput(5, 6, 20);
  ExpectOverfits(&dec, enc, ToySentence(), 200, 0.05);
}

TEST(SemiCrfTest, PredictSegmentsRespectMaxLen) {
  Rng rng(21);
  SemiCrfDecoder dec(4, {"PER"}, 2, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    Var enc = RandomInput(7, 4, 300 + trial);
    for (const Span& sp : dec.Predict(enc)) {
      EXPECT_LE(sp.end - sp.start, 2);
    }
  }
}

// --- RNN decoder ---

TEST(RnnDecoderTest, OverfitsToy) {
  TagSet tags({"PER", "LOC"}, TagScheme::kBioes);
  Rng rng(23);
  RnnDecoder dec(6, &tags, 4, 10, &rng);
  Var enc = RandomInput(5, 6, 24);
  ExpectOverfits(&dec, enc, ToySentence(), 200, 0.03);
}

TEST(RnnDecoderTest, LossGradChecks) {
  TagSet tags({"PER"}, TagScheme::kBio);
  Rng rng(25);
  RnnDecoder dec(3, &tags, 3, 4, &rng);
  Rng data_rng(26);
  Tensor enc_t({3, 3});
  for (int i = 0; i < enc_t.size(); ++i) enc_t[i] = data_rng.Uniform(-1, 1);
  Var enc = Parameter(std::move(enc_t));
  Sentence s;
  s.tokens = {"a", "b", "c"};
  s.spans = {{0, 2, "PER"}};
  std::vector<Var> inputs = dec.Parameters();
  inputs.push_back(enc);
  EXPECT_LT(MaxGradError([&] { return dec.Loss(enc, s); }, inputs), 1e-5);
}

// --- Pointer decoder ---

TEST(PointerDecoderTest, OverfitsToy) {
  Rng rng(27);
  PointerDecoder dec(6, {"PER", "LOC"}, 4, 10, &rng);
  Var enc = RandomInput(5, 6, 28);
  ExpectOverfits(&dec, enc, ToySentence(), 250, 0.03);
}

TEST(PointerDecoderTest, PredictionsTileTheSentence) {
  Rng rng(29);
  PointerDecoder dec(4, {"PER"}, 3, 6, &rng);
  for (int trial = 0; trial < 10; ++trial) {
    Var enc = RandomInput(8, 4, 400 + trial);
    std::vector<Span> spans = dec.Predict(enc);
    int prev_end = 0;
    for (const Span& sp : spans) {
      EXPECT_GE(sp.start, prev_end);
      EXPECT_LE(sp.end - sp.start, 3);
      prev_end = sp.end;
    }
  }
}

TEST(PointerDecoderTest, LossGradChecks) {
  Rng rng(31);
  PointerDecoder dec(3, {"PER"}, 3, 5, &rng);
  Rng data_rng(32);
  Tensor enc_t({4, 3});
  for (int i = 0; i < enc_t.size(); ++i) enc_t[i] = data_rng.Uniform(-1, 1);
  Var enc = Parameter(std::move(enc_t));
  Sentence s;
  s.tokens = {"a", "b", "c", "d"};
  s.spans = {{1, 3, "PER"}};
  std::vector<Var> inputs = dec.Parameters();
  inputs.push_back(enc);
  EXPECT_LT(MaxGradError([&] { return dec.Loss(enc, s); }, inputs), 1e-5);
}

}  // namespace
}  // namespace dlner::decoders
