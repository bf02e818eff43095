#include <set>
#include <string>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "data/gazetteer.h"
#include "data/synthetic.h"
#include "support/corpus_gen.h"
#include "text/types.h"

namespace dlner::data {
namespace {

using text::Corpus;
using text::Span;

class GenreTest : public ::testing::TestWithParam<Genre> {};

TEST_P(GenreTest, GeneratesRequestedSize) {
  GenOptions opts = DefaultOptionsFor(GetParam());
  opts.num_sentences = 50;
  opts.seed = 11;
  Corpus c = GenerateCorpus(GetParam(), opts);
  EXPECT_EQ(c.size(), 50);
  EXPECT_GT(c.TokenCount(), 0);
  EXPECT_GT(c.EntityCount(), 0);
}

TEST_P(GenreTest, SpansAreValidAndTyped) {
  GenOptions opts = DefaultOptionsFor(GetParam());
  opts.num_sentences = 120;
  opts.seed = 23;
  Corpus c = GenerateCorpus(GetParam(), opts);
  const auto& types = EntityTypesFor(GetParam());
  const std::set<std::string> type_set(types.begin(), types.end());
  for (const auto& s : c.sentences) {
    ASSERT_TRUE(text::SpansAreValid(s.spans, s.size()));
    for (const Span& sp : s.spans) {
      EXPECT_TRUE(type_set.count(sp.type) > 0)
          << "unexpected type " << sp.type << " for genre "
          << testsup::GenreName(GetParam());
    }
  }
}

TEST_P(GenreTest, DeterministicForSeed) {
  GenOptions opts = DefaultOptionsFor(GetParam());
  opts.num_sentences = 20;
  opts.seed = 99;
  Corpus a = GenerateCorpus(GetParam(), opts);
  Corpus b = GenerateCorpus(GetParam(), opts);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.sentences[i].tokens, b.sentences[i].tokens);
    EXPECT_EQ(a.sentences[i].spans, b.sentences[i].spans);
  }
}

TEST_P(GenreTest, EveryTypeEventuallyAppears) {
  GenOptions opts = DefaultOptionsFor(GetParam());
  opts.num_sentences = 2000;
  opts.seed = 7;
  Corpus c = GenerateCorpus(GetParam(), opts);
  std::set<std::string> seen;
  for (const auto& s : c.sentences) {
    for (const Span& sp : s.spans) seen.insert(sp.type);
  }
  for (const std::string& t : EntityTypesFor(GetParam())) {
    EXPECT_TRUE(seen.count(t) > 0) << "type never generated: " << t;
  }
}

INSTANTIATE_TEST_SUITE_P(Genres, GenreTest,
                         ::testing::Values(Genre::kNews, Genre::kOnto,
                                           Genre::kSocial,
                                           Genre::kFineGrained,
                                           Genre::kNested, Genre::kBio),
                         [](const auto& info) {
                           return testsup::GenreName(info.param);
                         });

TEST(GenreFlatnessTest, FlatGenresStayFlat) {
  for (Genre g : {Genre::kNews, Genre::kOnto, Genre::kSocial, Genre::kBio}) {
    GenOptions opts = DefaultOptionsFor(g);
    opts.num_sentences = 200;
    Corpus c = GenerateCorpus(g, opts);
    for (const auto& s : c.sentences) {
      EXPECT_TRUE(text::SpansAreFlat(s.spans))
          << "overlap in flat genre " << testsup::GenreName(g);
    }
  }
}

TEST(NestedGenreTest, ProducesOverlappingSpans) {
  GenOptions opts;
  opts.num_sentences = 200;
  opts.seed = 5;
  Corpus c = GenerateCorpus(Genre::kNested, opts);
  int nested_sentences = 0;
  for (const auto& s : c.sentences) {
    if (!text::SpansAreFlat(s.spans)) ++nested_sentences;
  }
  // The survey cites 17-30% nested sentences in GENIA/ACE; our generator
  // should produce a substantial fraction.
  EXPECT_GT(nested_sentences, 40);
}

TEST(OovTest, HeldoutFractionRaisesOovRate) {
  GenOptions train_opts;
  train_opts.num_sentences = 400;
  train_opts.seed = 1;
  Corpus train = GenerateCorpus(Genre::kNews, train_opts);

  GenOptions seen_opts = train_opts;
  seen_opts.seed = 2;
  Corpus test_seen = GenerateCorpus(Genre::kNews, seen_opts);

  GenOptions oov_opts = train_opts;
  oov_opts.seed = 2;
  oov_opts.oov_entity_fraction = 0.8;
  Corpus test_oov = GenerateCorpus(Genre::kNews, oov_opts);

  const double rate_seen = OovEntityTokenRate(train, test_seen);
  const double rate_oov = OovEntityTokenRate(train, test_oov);
  EXPECT_LT(rate_seen, 0.05);
  EXPECT_GT(rate_oov, 0.3);
}

TEST(NoiseTest, SocialDefaultsProduceNoise) {
  GenOptions opts = DefaultOptionsFor(Genre::kSocial);
  opts.num_sentences = 300;
  Corpus c = GenerateCorpus(Genre::kSocial, opts);
  int hashtags = 0;
  int lowercase_entities = 0;
  for (const auto& s : c.sentences) {
    for (const Span& sp : s.spans) {
      const std::string& first = s.tokens[sp.start];
      if (!first.empty() && first[0] == '#') ++hashtags;
      if (!first.empty() && std::islower(static_cast<unsigned char>(first[0])))
        ++lowercase_entities;
    }
  }
  EXPECT_GT(hashtags, 10);
  EXPECT_GT(lowercase_entities, 30);
}

TEST(UnlabeledTest, ProducesTokenSequences) {
  auto sents = GenerateUnlabeledText(Genre::kNews, 30, 3);
  EXPECT_EQ(sents.size(), 30u);
  for (const auto& s : sents) EXPECT_FALSE(s.empty());
}

// --- Splits and stats ---

TEST(SplitTest, PartitionsWithoutLossOrDuplication) {
  GenOptions opts;
  opts.num_sentences = 100;
  Corpus c = GenerateCorpus(Genre::kNews, opts);
  DataSplit split = SplitCorpus(c, 0.7, 0.15, 42);
  EXPECT_EQ(split.train.size() + split.dev.size() + split.test.size(), 100);
  EXPECT_EQ(split.train.size(), 70);
  EXPECT_EQ(split.dev.size(), 15);
}

TEST(StatsTest, BasicCounts) {
  Corpus c;
  c.sentences.push_back({{"a", "b", "c", "d"}, {{0, 2, "X"}}});
  c.sentences.push_back({{"e", "f"}, {{0, 1, "Y"}}});
  CorpusStats stats = ComputeStats(c);
  EXPECT_EQ(stats.sentences, 2);
  EXPECT_EQ(stats.tokens, 6);
  EXPECT_EQ(stats.entities, 2);
  EXPECT_EQ(stats.num_types, 2);
  EXPECT_DOUBLE_EQ(stats.entity_density, 3.0 / 6.0);
  EXPECT_DOUBLE_EQ(stats.avg_sentence_len, 3.0);
  EXPECT_EQ(stats.per_type.at("X"), 1);
}

TEST(StatsTest, NestedFraction) {
  Corpus c;
  c.sentences.push_back({{"a", "b", "c"}, {{0, 3, "X"}, {1, 2, "Y"}}});
  c.sentences.push_back({{"d"}, {}});
  EXPECT_DOUBLE_EQ(ComputeStats(c).nested_fraction, 0.5);
}

TEST(RegistryTest, AllStandardDatasetsGenerate) {
  for (const DatasetSpec& spec : StandardDatasets()) {
    Corpus c = MakeDataset(spec.name, 20, 1);
    EXPECT_EQ(c.size(), 20) << spec.name;
  }
  EXPECT_EQ(StandardDatasets().size(), 6u);
}

TEST(RegistryDeathTest, UnknownNameAborts) {
  EXPECT_DEATH(MakeDataset("imaginary", 10, 1), "unknown dataset");
}

// --- Label corruption ---

TEST(CorruptTest, ZeroRateIsIdentity) {
  Corpus c = MakeDataset("conll-like", 50, 3);
  Corpus noisy = CorruptLabels(c, 0.0, EntityTypesFor(Genre::kNews), 9);
  for (int i = 0; i < c.size(); ++i) {
    EXPECT_EQ(noisy.sentences[i].spans, c.sentences[i].spans);
  }
}

TEST(CorruptTest, HighRateChangesLabelsButKeepsValidity) {
  Corpus c = MakeDataset("conll-like", 100, 4);
  Corpus noisy = CorruptLabels(c, 0.6, EntityTypesFor(Genre::kNews), 10);
  int changed = 0;
  for (int i = 0; i < c.size(); ++i) {
    ASSERT_TRUE(text::SpansAreValid(noisy.sentences[i].spans,
                                    noisy.sentences[i].size()));
    ASSERT_TRUE(text::SpansAreFlat(noisy.sentences[i].spans));
    if (noisy.sentences[i].spans != c.sentences[i].spans) ++changed;
  }
  EXPECT_GT(changed, 30);
}

// --- Gazetteer ---

TEST(GazetteerTest, MatchFeaturesMarkMembership) {
  Gazetteer gaz;
  gaz.AddEntry("PER", {"John", "Smith"});
  gaz.AddEntry("LOC", {"Paris"});
  auto feats = gaz.MatchFeatures({"John", "Smith", "visited", "Paris"});
  ASSERT_EQ(feats.size(), 4u);
  const int per = 0, loc = 1;  // insertion order
  EXPECT_EQ(gaz.types()[per], "PER");
  EXPECT_EQ(feats[0][per], 1.0);
  EXPECT_EQ(feats[1][per], 1.0);
  EXPECT_EQ(feats[2][per], 0.0);
  EXPECT_EQ(feats[2][loc], 0.0);
  EXPECT_EQ(feats[3][loc], 1.0);
}

TEST(GazetteerTest, PartialMatchDoesNotFire) {
  Gazetteer gaz;
  gaz.AddEntry("PER", {"John", "Smith"});
  auto feats = gaz.MatchFeatures({"John", "Jones"});
  EXPECT_EQ(feats[0][0], 0.0);
  EXPECT_EQ(feats[1][0], 0.0);
}

TEST(GazetteerTest, AnnotatePrefersLongestMatch) {
  Gazetteer gaz;
  gaz.AddEntry("LOC", {"New"});
  gaz.AddEntry("LOC", {"New", "York"});
  auto spans = gaz.Annotate({"New", "York", "is", "big"});
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{0, 2, "LOC"}));
}

TEST(GazetteerTest, DuplicateEntriesIgnored) {
  Gazetteer gaz;
  gaz.AddEntry("PER", {"Ann"});
  gaz.AddEntry("PER", {"Ann"});
  EXPECT_EQ(gaz.size(), 1);
}

TEST(GazetteerTest, FromCorpusFullCoverageAnnotatesGoldSurfaces) {
  Corpus c = MakeDataset("conll-like", 100, 5);
  Gazetteer gaz = Gazetteer::FromCorpus(c, 1.0, 1);
  EXPECT_GT(gaz.size(), 10);
  // Every gold mention surface must be re-findable (though Annotate may
  // produce extra matches where surfaces repeat as non-entities).
  int found = 0, total = 0;
  for (const auto& s : c.sentences) {
    auto spans = gaz.Annotate(s.tokens);
    std::set<Span> predicted(spans.begin(), spans.end());
    for (const Span& gold : s.spans) {
      ++total;
      if (predicted.count(gold) > 0) ++found;
    }
  }
  EXPECT_GT(static_cast<double>(found) / total, 0.85);
}

TEST(GazetteerTest, PartialCoverageMissesEntities) {
  Corpus c = MakeDataset("conll-like", 100, 6);
  Gazetteer full = Gazetteer::FromCorpus(c, 1.0, 1);
  Gazetteer half = Gazetteer::FromCorpus(c, 0.5, 1);
  EXPECT_LT(half.size(), full.size());
  EXPECT_GT(half.size(), 0);
}

}  // namespace
}  // namespace dlner::data
