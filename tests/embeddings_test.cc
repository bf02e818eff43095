#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "embeddings/char_features.h"
#include "embeddings/features.h"
#include "embeddings/lm.h"
#include "embeddings/sgns.h"
#include "tensor/ops.h"

namespace dlner::embeddings {
namespace {

text::Corpus SmallCorpus() {
  data::GenOptions opts;
  opts.num_sentences = 40;
  opts.seed = 3;
  return data::GenerateCorpus(data::Genre::kNews, opts);
}

TEST(WordShapeTest, CapturesCasePatterns) {
  auto f = WordShapeFeature::ShapeOf("NATO");
  EXPECT_EQ(f[0], 1.0);  // all caps
  EXPECT_EQ(f[1], 1.0);  // initial cap
  f = WordShapeFeature::ShapeOf("London");
  EXPECT_EQ(f[0], 0.0);
  EXPECT_EQ(f[1], 1.0);
  EXPECT_EQ(f[3], 0.0);
  f = WordShapeFeature::ShapeOf("hello");
  EXPECT_EQ(f[1], 0.0);
  EXPECT_EQ(f[3], 1.0);  // all lower
  f = WordShapeFeature::ShapeOf("3.5");
  EXPECT_EQ(f[4], 1.0);  // has digit
  EXPECT_EQ(f[6], 1.0);  // has punct
  f = WordShapeFeature::ShapeOf("42");
  EXPECT_EQ(f[5], 1.0);  // all digit
  f = WordShapeFeature::ShapeOf("iPhone");
  EXPECT_EQ(f[2], 1.0);  // inner cap
}

TEST(WordShapeTest, ForwardShape) {
  WordShapeFeature feat;
  Var out = feat.Forward({"Paris", "is", "big"}, false);
  EXPECT_EQ(out->value.rows(), 3);
  EXPECT_EQ(out->value.cols(), WordShapeFeature::kDim);
  EXPECT_FALSE(out->requires_grad);
}

TEST(WordEmbeddingTest, LookupAndOov) {
  text::Corpus corpus = SmallCorpus();
  text::Vocabulary vocab = text::Vocabulary::FromCorpus(corpus);
  Rng rng(1);
  WordEmbeddingFeature feat(&vocab, 16, &rng);
  Var out = feat.Forward({"zzz_unseen_zzz", corpus.sentences[0].tokens[0]},
                         true);
  EXPECT_EQ(out->value.rows(), 2);
  EXPECT_EQ(out->value.cols(), 16);
  // OOV row equals the UNK row of the table.
  Var unk = feat.embedding()->LookupOne(text::Vocabulary::kUnkId);
  for (int j = 0; j < 16; ++j) {
    EXPECT_DOUBLE_EQ(out->value.at(0, j), unk->value[j]);
  }
}

TEST(CharCnnTest, ShapeAndGradient) {
  text::Corpus corpus = SmallCorpus();
  text::Vocabulary chars = text::Vocabulary::CharsFromCorpus(corpus);
  Rng rng(2);
  CharCnnFeature feat(&chars, 8, 12, &rng);
  Var out = feat.Forward({"London", "calling"}, true);
  EXPECT_EQ(out->value.rows(), 2);
  EXPECT_EQ(out->value.cols(), 12);
  EXPECT_TRUE(out->requires_grad);
  // Gradients flow to parameters.
  Backward(Sum(out));
  bool any_nonzero = false;
  for (const Var& p : feat.Parameters()) {
    for (int i = 0; i < p->grad.size(); ++i) {
      if (p->grad[i] != 0.0) any_nonzero = true;
    }
  }
  EXPECT_TRUE(any_nonzero);
}

TEST(CharCnnTest, HandlesUnseenCharacters) {
  text::Corpus corpus = SmallCorpus();
  text::Vocabulary chars = text::Vocabulary::CharsFromCorpus(corpus);
  Rng rng(3);
  CharCnnFeature feat(&chars, 6, 8, &rng);
  Var out = feat.Forward({"\x7f\x7f"}, false);  // chars surely unseen
  EXPECT_EQ(out->value.rows(), 1);
}

TEST(CharRnnTest, ShapeAndDistinctWords) {
  text::Corpus corpus = SmallCorpus();
  text::Vocabulary chars = text::Vocabulary::CharsFromCorpus(corpus);
  Rng rng(4);
  CharRnnFeature feat(&chars, 8, 10, &rng);
  Var out = feat.Forward({"abc", "abd"}, false);
  EXPECT_EQ(out->value.rows(), 2);
  EXPECT_EQ(out->value.cols(), 20);
  // Different words get different representations.
  bool differs = false;
  for (int j = 0; j < 20; ++j) {
    if (out->value.at(0, j) != out->value.at(1, j)) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(GazetteerFeatureTest, DimsFollowTypes) {
  data::Gazetteer gaz;
  gaz.AddEntry("PER", {"Ann"});
  gaz.AddEntry("LOC", {"Rome"});
  GazetteerFeature feat(&gaz);
  EXPECT_EQ(feat.dim(), 2);
  Var out = feat.Forward({"Ann", "went", "to", "Rome"}, false);
  EXPECT_EQ(out->value.at(0, 0), 1.0);
  EXPECT_EQ(out->value.at(3, 1), 1.0);
  EXPECT_EQ(out->value.at(1, 0), 0.0);
}

TEST(ComposedTest, ConcatenatesDims) {
  text::Corpus corpus = SmallCorpus();
  text::Vocabulary vocab = text::Vocabulary::FromCorpus(corpus);
  text::Vocabulary chars = text::Vocabulary::CharsFromCorpus(corpus);
  Rng rng(5);
  std::vector<std::unique_ptr<TokenFeature>> feats;
  feats.push_back(std::make_unique<WordEmbeddingFeature>(&vocab, 16, &rng));
  feats.push_back(std::make_unique<CharCnnFeature>(&chars, 8, 12, &rng));
  feats.push_back(std::make_unique<WordShapeFeature>());
  ComposedRepresentation rep(std::move(feats), 0.0, &rng);
  EXPECT_EQ(rep.dim(), 16 + 12 + 8);
  Var out = rep.Forward({"London", "fell"}, true);
  EXPECT_EQ(out->value.cols(), rep.dim());
  EXPECT_GT(rep.Parameters().size(), 0u);
}

// --- SGNS ---

TEST(SgnsTest, LearnsDistributionalSimilarity) {
  // Two interchangeable word groups: {cat, dog} appear in one context,
  // {paris, london} in another. SGNS must place in-group words closer.
  std::vector<std::vector<std::string>> sents;
  for (int i = 0; i < 300; ++i) {
    const char* animal = (i % 2 == 0) ? "cat" : "dog";
    const char* city = (i % 2 == 0) ? "paris" : "london";
    sents.push_back({"the", animal, "chased", "the", "ball"});
    sents.push_back({"we", "visited", city, "yesterday"});
  }
  SkipGramModel::Config cfg;
  cfg.dim = 16;
  cfg.epochs = 6;
  cfg.seed = 9;
  SkipGramModel model = SkipGramModel::Train(sents, cfg);
  ASSERT_TRUE(model.HasWord("cat"));
  ASSERT_TRUE(model.HasWord("paris"));
  const auto cosine = [&model](const std::string& a, const std::string& b) {
    const std::vector<Float>& va = model.VectorOf(a);
    const std::vector<Float>& vb = model.VectorOf(b);
    Float dot = 0.0, na = 0.0, nb = 0.0;
    for (int d = 0; d < model.dim(); ++d) {
      dot += va[d] * vb[d];
      na += va[d] * va[d];
      nb += vb[d] * vb[d];
    }
    return dot / (std::sqrt(na) * std::sqrt(nb));
  };
  EXPECT_GT(cosine("cat", "dog"), cosine("cat", "paris"));
}

TEST(SgnsTest, MinCountFiltersRareWords) {
  std::vector<std::vector<std::string>> sents = {
      {"common", "common", "rare"}, {"common", "words", "words"}};
  SkipGramModel::Config cfg;
  cfg.min_count = 2;
  SkipGramModel model = SkipGramModel::Train(sents, cfg);
  EXPECT_TRUE(model.HasWord("common"));
  EXPECT_FALSE(model.HasWord("rare"));
}

TEST(SgnsTest, CopyIntoEmbedding) {
  auto sents = data::GenerateUnlabeledText(data::Genre::kNews, 100, 7);
  SkipGramModel::Config cfg;
  cfg.dim = 12;
  cfg.epochs = 1;
  cfg.min_count = 1;
  SkipGramModel model = SkipGramModel::Train(sents, cfg);

  text::Corpus corpus = SmallCorpus();
  text::Vocabulary vocab = text::Vocabulary::FromCorpus(corpus);
  Rng rng(8);
  Embedding emb(vocab.size(), 12, &rng);
  const int copied = model.CopyInto(vocab, &emb);
  EXPECT_GT(copied, 10);
  // A copied row matches the SGNS vector.
  for (int id = 1; id < vocab.size(); ++id) {
    const std::string& w = vocab.TokenOf(id);
    if (model.HasWord(w)) {
      const auto& vec = model.VectorOf(w);
      for (int j = 0; j < 12; ++j) {
        EXPECT_DOUBLE_EQ(emb.LookupOne(id)->value[j], vec[j]);
      }
      break;
    }
  }
}

// --- Language models ---

// A frozen LM's rows for one sentence, through the feature models use.
Tensor LmRows(const BiLstmLm& lm, const std::vector<std::string>& tokens) {
  return LmFeature(&lm).Forward(tokens, /*training=*/false)->value;
}

TEST(CharLmTest, TrainingReducesNll) {
  auto sents = data::GenerateUnlabeledText(data::Genre::kNews, 30, 11);
  CharLm::Config cfg;
  cfg.epochs = 1;
  cfg.hidden_dim = 12;
  cfg.char_dim = 8;
  CharLm lm(cfg);
  // Each call trains one epoch and returns that epoch's average NLL.
  const Float first = lm.Train(sents);
  const Float second = lm.Train(sents);
  EXPECT_LT(second, first);
}

TEST(CharLmTest, ExtractIsContextSensitive) {
  auto sents = data::GenerateUnlabeledText(data::Genre::kNews, 20, 13);
  CharLm::Config cfg;
  cfg.epochs = 1;
  cfg.hidden_dim = 10;
  CharLm lm(cfg);
  lm.Train(sents);
  // Same word, different contexts -> different embeddings (the defining
  // property of contextual string embeddings, Fig. 4).
  Tensor a = LmRows(lm, {"Washington", "spoke", "today"});
  Tensor b = LmRows(lm, {"they", "visited", "Washington"});
  EXPECT_EQ(a.cols(), lm.dim());
  Float diff = 0.0;
  for (int j = 0; j < lm.dim(); ++j) {
    diff += std::abs(a.at(0, j) - b.at(2, j));
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(CharLmTest, ExtractShapeMatchesTokens) {
  CharLm::Config cfg;
  cfg.hidden_dim = 6;
  CharLm lm(cfg);
  Tensor out = LmRows(lm, {"one", "two", "three", "four"});
  EXPECT_EQ(out.rows(), 4);
  EXPECT_EQ(out.cols(), 12);
}

// An empty last token starts past the sentence's last character; its rows
// read the separator before it. The forward LM is causal, so its half
// equals that of an empty middle token after the same prefix, and the
// backward LM has read only that separator, as for a lone empty token.
TEST(CharLmTest, TrailingEmptyTokenReadsTheSeparatorBeforeIt) {
  CharLm::Config cfg;
  cfg.hidden_dim = 6;
  CharLm lm(cfg);
  const Tensor trailing = LmRows(lm, {"a", ""});
  const Tensor middle = LmRows(lm, {"a", "", "b"});
  const Tensor alone = LmRows(lm, {""});
  ASSERT_EQ(trailing.rows(), 2);
  const int h = cfg.hidden_dim;
  for (int j = 0; j < h; ++j) {
    EXPECT_EQ(trailing.at(1, j), middle.at(1, j)) << j;
    EXPECT_EQ(trailing.at(1, h + j), alone.at(0, h + j)) << j;
  }
  EXPECT_EQ(LmRows(lm, {"", ""}).rows(), 2);
}

TEST(TokenLmTest, TrainAndExtract) {
  auto sents = data::GenerateUnlabeledText(data::Genre::kNews, 40, 17);
  TokenLm::Config cfg;
  cfg.epochs = 1;
  cfg.hidden_dim = 10;
  cfg.word_dim = 10;
  TokenLm lm(cfg);
  const Float nll = lm.Train(sents);
  EXPECT_GT(nll, 0.0);
  Tensor out = LmRows(lm, {"the", "company", "said"});
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 20);
}

// The two LMs share one training core but keep their own conventions for
// sentences too short to predict a next unit.
TEST(LmTest, ShortSentencesKeepEachModelsConvention) {
  const std::vector<std::string> s = {"the", "cat", "saw", "the", "dog"};

  // CharLm counts a one-character sentence as NLL 0 in both directions and
  // takes no step for it: the average over four directions is exactly half
  // the average over two.
  CharLm::Config cc;
  cc.epochs = 1;
  cc.hidden_dim = 6;
  cc.char_dim = 4;
  CharLm char_alone(cc), char_with_short(cc);
  const Float char_nll = char_alone.Train({s});
  EXPECT_GT(char_nll, 0.0);
  EXPECT_EQ(char_with_short.Train({s, {"a"}}), char_nll / 2);

  // TokenLm skips a one-token sentence; at min_count 2 its singleton token
  // stays out of the vocabulary, so nothing else changes either.
  TokenLm::Config tc;
  tc.epochs = 1;
  tc.hidden_dim = 6;
  tc.word_dim = 4;
  tc.min_count = 2;
  TokenLm token_alone(tc), token_with_short(tc);
  const Float token_nll = token_alone.Train({s});
  EXPECT_GT(token_nll, 0.0);
  EXPECT_EQ(token_with_short.Train({s, {"solo"}}), token_nll);
}

TEST(LmFeatureTest, FrozenFeaturesHaveNoParameters) {
  CharLm::Config cc;
  cc.hidden_dim = 6;
  CharLm char_lm(cc);
  TokenLm::Config tc;
  tc.epochs = 1;
  tc.hidden_dim = 5;
  tc.word_dim = 4;
  TokenLm token_lm(tc);
  token_lm.Train(data::GenerateUnlabeledText(data::Genre::kNews, 10, 23));
  for (const BiLstmLm* lm : std::vector<const BiLstmLm*>{&char_lm, &token_lm}) {
    LmFeature feat(lm);
    EXPECT_TRUE(feat.Parameters().empty());
    Var out = feat.Forward({"a", "b"}, true);
    EXPECT_FALSE(out->requires_grad);
    EXPECT_EQ(out->value.rows(), 2);
    EXPECT_EQ(out->value.cols(), feat.dim());
  }
}

}  // namespace
}  // namespace dlner::embeddings
