// Tests for the hostile-input scenario generators (src/data/scenarios.h):
// the determinism contract (same options -> byte-identical corpus), the
// calibration of the OCR/ASR noise channels against their exact reported
// stats, the structural guarantees of each scenario (long-doc token floor,
// discontinuous overlap, consistency document layout), and the round-trip
// of rendered documents through the streaming tokenizer.
//
// Labeled `scenario` in tests/CMakeLists.txt; the sanitizer preset runs this
// slice so every generator and channel is asan-checked.
#include <algorithm>
#include <cctype>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "data/scenarios.h"
#include "eval/metrics.h"
#include "text/stream_tokenizer.h"
#include "text/types.h"

namespace dlner::data {
namespace {

bool SameCorpus(const text::Corpus& a, const text::Corpus& b) {
  if (a.size() != b.size() || a.doc_starts != b.doc_starts) return false;
  for (int i = 0; i < a.size(); ++i) {
    const text::Sentence& sa = a.sentences[static_cast<size_t>(i)];
    const text::Sentence& sb = b.sentences[static_cast<size_t>(i)];
    if (sa.tokens != sb.tokens) return false;
    if (sa.spans.size() != sb.spans.size()) return false;
    for (size_t s = 0; s < sa.spans.size(); ++s) {
      if (sa.spans[s].start != sb.spans[s].start ||
          sa.spans[s].end != sb.spans[s].end ||
          sa.spans[s].type != sb.spans[s].type) {
        return false;
      }
    }
  }
  return true;
}

// Structural sanity every generator must satisfy: non-empty, no empty
// tokens, spans in bounds with known types.
void CheckWellFormed(const text::Corpus& corpus, Scenario sc) {
  ASSERT_GT(corpus.size(), 0) << ScenarioToString(sc);
  const std::vector<std::string>& types = ScenarioEntityTypes(sc);
  for (const text::Sentence& sentence : corpus.sentences) {
    ASSERT_FALSE(sentence.tokens.empty());
    for (const std::string& tok : sentence.tokens) {
      EXPECT_FALSE(tok.empty());
    }
    for (const text::Span& span : sentence.spans) {
      EXPECT_GE(span.start, 0);
      EXPECT_LT(span.start, span.end);
      EXPECT_LE(span.end, static_cast<int>(sentence.tokens.size()));
      EXPECT_NE(std::find(types.begin(), types.end(), span.type), types.end())
          << ScenarioToString(sc) << " unknown type " << span.type;
    }
  }
  for (size_t d = 0; d + 1 < corpus.doc_starts.size(); ++d) {
    EXPECT_LT(corpus.doc_starts[d], corpus.doc_starts[d + 1]);
  }
}

TEST(ScenarioTest, NamesAreDistinct) {
  // Names key the bench series (bench.scenarios.<cell>.<scenario>.f1).
  std::set<std::string> names;
  for (const Scenario sc : AllScenarios()) {
    EXPECT_FALSE(ScenarioToString(sc).empty());
    names.insert(ScenarioToString(sc));
  }
  EXPECT_EQ(AllScenarios().size(), 6u);
  EXPECT_EQ(names.size(), AllScenarios().size());
}

// The determinism contract: every generator is a pure function of its
// options. Same seed -> byte-identical corpus; different seed -> different
// corpus.
TEST(ScenarioTest, GeneratorsAreSeedDeterministic) {
  for (const Scenario sc : AllScenarios()) {
    ScenarioOptions opts;
    opts.seed = 77;
    opts.num_sentences = 40;
    opts.min_doc_tokens = 800;
    const text::Corpus a = GenerateScenario(sc, opts);
    const text::Corpus b = GenerateScenario(sc, opts);
    EXPECT_TRUE(SameCorpus(a, b)) << ScenarioToString(sc);
    CheckWellFormed(a, sc);

    opts.seed = 78;
    const text::Corpus c = GenerateScenario(sc, opts);
    EXPECT_FALSE(SameCorpus(a, c))
        << ScenarioToString(sc) << " ignores its seed";
  }
}

TEST(ScenarioTest, SplitsAreSeedDeterministicAndTrainIsClean) {
  for (const Scenario sc : AllScenarios()) {
    ScenarioOptions opts;
    opts.seed = 13;
    opts.num_sentences = 40;
    opts.min_doc_tokens = 800;
    const ScenarioSplit a = MakeScenarioSplit(sc, opts);
    const ScenarioSplit b = MakeScenarioSplit(sc, opts);
    EXPECT_TRUE(SameCorpus(a.train, b.train)) << ScenarioToString(sc);
    EXPECT_TRUE(SameCorpus(a.test, b.test)) << ScenarioToString(sc);
    ASSERT_GT(a.train.size(), 0) << ScenarioToString(sc);
    CheckWellFormed(a.train, sc);
  }
}

TEST(ScenarioTest, CodeSwitchedNeverTouchesEntityTokens) {
  ScenarioOptions opts;
  opts.seed = 5;
  opts.num_sentences = 60;
  opts.code_switch_rate = 1.0;  // force every eligible token to switch
  const text::Corpus hostile = GenerateScenario(Scenario::kCodeSwitched, opts);
  // With rate 1.0 every non-entity non-punctuation token is replaced by an
  // L2 word, so at least one multi-byte UTF-8 token must appear...
  bool saw_multibyte = false;
  for (const text::Sentence& sentence : hostile.sentences) {
    std::vector<bool> in_span(sentence.tokens.size(), false);
    for (const text::Span& span : sentence.spans) {
      for (int i = span.start; i < span.end; ++i) in_span[static_cast<size_t>(i)] = true;
    }
    for (size_t i = 0; i < sentence.tokens.size(); ++i) {
      const std::string& tok = sentence.tokens[i];
      const bool multibyte =
          std::any_of(tok.begin(), tok.end(),
                      [](char c) { return static_cast<unsigned char>(c) >= 0x80; });
      if (multibyte) {
        saw_multibyte = true;
        // ...and entity tokens must never be among them (spans stay gold).
        EXPECT_FALSE(in_span[i]) << "entity token replaced: " << tok;
      }
    }
  }
  EXPECT_TRUE(saw_multibyte);
}

// The OCR channel's reported corruption rate must match the requested rate
// within a binomial-confidence tolerance, and must never produce empty
// tokens or invalid UTF-8.
TEST(ScenarioTest, OcrChannelIsCalibrated) {
  ScenarioOptions opts;
  opts.seed = 21;
  opts.num_sentences = 200;
  text::Corpus corpus = GenerateScenario(Scenario::kCodeSwitched, opts);

  const double rate = 0.08;
  NoiseChannelStats stats;
  ApplyOcrChannel(&corpus, rate, 99, &stats);
  ASSERT_GT(stats.chars_eligible, 2000);
  const double observed = static_cast<double>(stats.chars_corrupted) /
                          static_cast<double>(stats.chars_eligible);
  // ~4-sigma band for a binomial with n >= 2000, p = 0.08.
  EXPECT_NEAR(observed, rate, 0.025);

  for (const text::Sentence& sentence : corpus.sentences) {
    for (const std::string& tok : sentence.tokens) {
      ASSERT_FALSE(tok.empty());
      // Multi-byte sequences are never touched, so UTF-8 stays valid:
      // every continuation byte must follow a lead byte.
      for (size_t i = 0; i < tok.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(tok[i]);
        if ((c & 0xC0) == 0x80) {
          ASSERT_GT(i, 0u);
          const unsigned char prev = static_cast<unsigned char>(tok[i - 1]);
          EXPECT_TRUE(prev >= 0x80) << tok;
        }
      }
    }
  }

  // Rate 0 is the identity and reports zero corruptions.
  text::Corpus clean = GenerateScenario(Scenario::kCodeSwitched, opts);
  NoiseChannelStats zero;
  ApplyOcrChannel(&clean, 0.0, 99, &zero);
  EXPECT_EQ(zero.chars_corrupted, 0);
  EXPECT_TRUE(SameCorpus(clean, GenerateScenario(Scenario::kCodeSwitched, opts)));
}

TEST(ScenarioTest, AsrChannelLowercasesAndKeepsSpansValid) {
  ScenarioOptions opts;
  opts.seed = 33;
  opts.num_sentences = 120;
  const text::Corpus hostile = GenerateScenario(Scenario::kAsrNoise, opts);
  for (const text::Sentence& sentence : hostile.sentences) {
    for (const std::string& tok : sentence.tokens) {
      for (char c : tok) {
        EXPECT_FALSE(std::isupper(static_cast<unsigned char>(c)))
            << "ASR output must be lowercase: " << tok;
      }
    }
    for (const text::Span& span : sentence.spans) {
      EXPECT_GE(span.start, 0);
      EXPECT_LT(span.start, span.end);
      EXPECT_LE(span.end, static_cast<int>(sentence.tokens.size()));
    }
  }
}

TEST(ScenarioTest, LongDocMeetsTokenFloorWithRecurringEntities) {
  ScenarioOptions opts;
  opts.seed = 3;
  opts.min_doc_tokens = 10000;
  const text::Corpus doc = GenerateScenario(Scenario::kLongDoc, opts);
  int64_t tokens = 0;
  for (const text::Sentence& sentence : doc.sentences) {
    tokens += static_cast<int64_t>(sentence.tokens.size());
  }
  EXPECT_GE(tokens, 10000);
  ASSERT_EQ(doc.DocCount(), 1);
  const auto [first, last] = doc.DocRange(0);
  EXPECT_EQ(first, 0);
  EXPECT_EQ(last, doc.size());

  // The recurring cast must actually recur: some entity surface appears in
  // many distinct sentences.
  std::map<std::string, int> surface_sentences;
  for (const text::Sentence& sentence : doc.sentences) {
    std::set<std::string> here;
    for (const text::Span& span : sentence.spans) {
      std::string surface;
      for (int i = span.start; i < span.end; ++i) {
        if (!surface.empty()) surface.push_back(' ');
        surface += sentence.tokens[static_cast<size_t>(i)];
      }
      here.insert(surface);
    }
    for (const std::string& s : here) ++surface_sentences[s];
  }
  int max_recurrence = 0;
  for (const auto& [surface, count] : surface_sentences) {
    max_recurrence = std::max(max_recurrence, count);
  }
  EXPECT_GE(max_recurrence, 10);
}

// Discontinuous mentions are represented as overlapping component spans;
// they must survive a round-trip through the exact-match scorer (perfect
// self-score, imperfect when a component is dropped).
TEST(ScenarioTest, DiscontinuousSpansRoundTripThroughScorer) {
  ScenarioOptions opts;
  opts.seed = 9;
  opts.num_sentences = 60;
  const text::Corpus corpus = GenerateScenario(Scenario::kDiscontinuous, opts);

  bool saw_overlap = false;
  std::vector<std::vector<text::Span>> gold, dropped;
  for (const text::Sentence& sentence : corpus.sentences) {
    gold.push_back(sentence.spans);
    std::vector<text::Span> partial = sentence.spans;
    if (partial.size() > 1) partial.pop_back();
    dropped.push_back(partial);
    for (size_t a = 0; a < sentence.spans.size(); ++a) {
      for (size_t b = a + 1; b < sentence.spans.size(); ++b) {
        const text::Span& x = sentence.spans[a];
        const text::Span& y = sentence.spans[b];
        if (x.start < y.end && y.start < x.end) saw_overlap = true;
      }
    }
  }
  ASSERT_TRUE(saw_overlap) << "no discontinuous (overlapping) annotation";
  EXPECT_DOUBLE_EQ(eval::EvaluateExact(gold, gold).micro.f1(), 1.0);
  const double partial_f1 = eval::EvaluateExact(gold, dropped).micro.f1();
  EXPECT_LT(partial_f1, 1.0);
  EXPECT_GT(partial_f1, 0.0);
}

TEST(ScenarioTest, ConsistencyDocsRepeatTheirPersonAcrossSentences) {
  ScenarioOptions opts;
  opts.seed = 17;
  opts.num_sentences = 50;
  opts.sentences_per_doc = 5;
  const text::Corpus corpus =
      GenerateScenario(Scenario::kEntityConsistency, opts);
  ASSERT_GT(corpus.DocCount(), 1);
  for (int d = 0; d < corpus.DocCount(); ++d) {
    const auto [first, last] = corpus.DocRange(d);
    ASSERT_LT(first, last);
    // Every PER mention inside one document is the same surface form, and it
    // appears in at least two sentences (that is what makes document context
    // worth anything).
    std::set<std::string> per_surfaces;
    int per_sentences = 0;
    for (int i = first; i < last; ++i) {
      const text::Sentence& sentence = corpus.sentences[static_cast<size_t>(i)];
      bool has_per = false;
      for (const text::Span& span : sentence.spans) {
        if (span.type != "PER") continue;
        has_per = true;
        ASSERT_EQ(span.end - span.start, 1);
        per_surfaces.insert(sentence.tokens[static_cast<size_t>(span.start)]);
      }
      if (has_per) ++per_sentences;
    }
    EXPECT_EQ(per_surfaces.size(), 1u) << "doc " << d;
    EXPECT_GE(per_sentences, 2) << "doc " << d;
  }
}

// RenderDocument must reproduce the corpus sentence split exactly when fed
// back through the streaming tokenizer — the invariant the streaming
// benchmark and the doc-context differential rely on.
TEST(ScenarioTest, RenderedDocumentsRetokenizeToTheSameSplit) {
  for (const Scenario sc :
       {Scenario::kEntityConsistency, Scenario::kLongDoc,
        Scenario::kCodeSwitched}) {
    ScenarioOptions opts;
    opts.seed = 29;
    opts.num_sentences = 30;
    opts.min_doc_tokens = 600;
    const text::Corpus corpus = GenerateScenario(sc, opts);
    for (int d = 0; d < corpus.DocCount(); ++d) {
      const std::string raw = RenderDocument(corpus, d);
      text::StreamTokenizer tokenizer;
      tokenizer.Feed(raw);
      tokenizer.Flush();
      const auto [first, last] = corpus.DocRange(d);
      for (int i = first; i < last; ++i) {
        ASSERT_TRUE(tokenizer.HasSentence())
            << ScenarioToString(sc) << " doc " << d << " sentence " << i;
        EXPECT_EQ(tokenizer.NextSentence(),
                  corpus.sentences[static_cast<size_t>(i)].tokens);
      }
      EXPECT_FALSE(tokenizer.HasSentence()) << ScenarioToString(sc);
    }
  }
}

}  // namespace
}  // namespace dlner::data
