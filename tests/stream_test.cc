// Tests for the streaming document-level tagger (src/stream/ +
// text/stream_tokenizer.h):
//
//   * tokenizer chunk invariance — output is a pure function of the
//     concatenated byte stream, no matter how it is cut into Feed() calls
//     (including cuts inside multi-byte UTF-8 sequences);
//   * StreamTagger chunk-boundary invariance at sizes {1, 2, 7, 4096,
//     whole-document}, with document context both off and on;
//   * bit-identity of the doc_context=false streaming path with
//     Pipeline::TagCorpus on the same sentence split;
//   * the entity-consistency cache's vote/inject/relabel semantics;
//   * deterministic structure-aware fuzz of Feed (tests/support/mutate.h)
//     plus hand-picked hostile inputs: truncated UTF-8, NUL bytes, and a
//     1 MiB single-token line. The sanitizer preset runs this slice under
//     asan (ctest -L stream).
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/scenarios.h"
#include "stream/entity_memory.h"
#include "stream/stream_tagger.h"
#include "support/mutate.h"
#include "tensor/rng.h"
#include "text/stream_tokenizer.h"
#include "text/types.h"

namespace dlner::stream {
namespace {

// ---------------------------------------------------------------------------
// StreamTokenizer

std::vector<std::vector<std::string>> Drain(text::StreamTokenizer* tokenizer) {
  std::vector<std::vector<std::string>> out;
  while (tokenizer->HasSentence()) out.push_back(tokenizer->NextSentence());
  return out;
}

std::vector<std::vector<std::string>> TokenizeChunked(const std::string& text,
                                                      int chunk) {
  text::StreamTokenizer tokenizer;
  std::vector<std::vector<std::string>> out;
  for (std::size_t i = 0; i < text.size();
       i += static_cast<std::size_t>(chunk)) {
    tokenizer.Feed(std::string_view(text).substr(
        i, static_cast<std::size_t>(chunk)));
    for (auto& s : Drain(&tokenizer)) out.push_back(std::move(s));
  }
  tokenizer.Flush();
  for (auto& s : Drain(&tokenizer)) out.push_back(std::move(s));
  return out;
}

TEST(StreamTokenizerTest, SplitsSentencesOnNewlineAndTerminators) {
  const auto sentences = TokenizeChunked(
      "John visited Paris .\nMary stayed home !\nDone ? Next line", 4096);
  ASSERT_EQ(sentences.size(), 4u);
  EXPECT_EQ(sentences[0],
            (std::vector<std::string>{"John", "visited", "Paris", "."}));
  EXPECT_EQ(sentences[1],
            (std::vector<std::string>{"Mary", "stayed", "home", "!"}));
  EXPECT_EQ(sentences[2], (std::vector<std::string>{"Done", "?"}));
  EXPECT_EQ(sentences[3], (std::vector<std::string>{"Next", "line"}));
}

TEST(StreamTokenizerTest, DotInsideTokenDoesNotEndSentence) {
  const auto sentences = TokenizeChunked("pi is 3.14 not 3 .\n", 4096);
  ASSERT_EQ(sentences.size(), 1u);
  EXPECT_EQ(sentences[0],
            (std::vector<std::string>{"pi", "is", "3.14", "not", "3", "."}));
}

TEST(StreamTokenizerTest, ChunkSizeNeverChangesOutput) {
  // Multi-byte UTF-8 tokens so 1- and 2-byte chunks cut inside sequences.
  const std::string text =
      "Crémieux visited Åre .\nDie Universität zu Köln !\n€42 said 张伟\n"
      "trailing partial";
  const auto whole = TokenizeChunked(text, static_cast<int>(text.size()));
  ASSERT_EQ(whole.size(), 4u);
  for (const int chunk : {1, 2, 3, 5, 7, 64}) {
    EXPECT_EQ(TokenizeChunked(text, chunk), whole) << "chunk=" << chunk;
  }
}

TEST(StreamTokenizerTest, MaxSentenceTokensForcesBreak) {
  constexpr int kMax = text::StreamTokenizer::kMaxSentenceTokens;
  static_assert(kMax == 512);
  // 1,030 tokens with no sentence end: breaks after tokens 512 and 1,024.
  std::vector<std::string> tokens;
  std::string text;
  for (int i = 0; i < 1030; ++i) {
    tokens.push_back(std::to_string(i));
    text += tokens.back() + " ";
  }
  text::StreamTokenizer tokenizer;
  tokenizer.Feed(text + "\n");
  const auto sentences = Drain(&tokenizer);
  ASSERT_EQ(sentences.size(), 3u);
  EXPECT_EQ(sentences[0], std::vector<std::string>(tokens.begin(),
                                                   tokens.begin() + kMax));
  EXPECT_EQ(sentences[1], std::vector<std::string>(tokens.begin() + kMax,
                                                   tokens.begin() + 2 * kMax));
  EXPECT_EQ(sentences[2], std::vector<std::string>(tokens.begin() + 2 * kMax,
                                                   tokens.end()));
}

TEST(StreamTokenizerTest, FlushEmitsPartialSentenceAndToken) {
  text::StreamTokenizer tokenizer;
  tokenizer.Feed("no trailing delimi");
  EXPECT_FALSE(tokenizer.HasSentence());
  tokenizer.Flush();
  const auto sentences = Drain(&tokenizer);
  ASSERT_EQ(sentences.size(), 1u);
  EXPECT_EQ(sentences[0],
            (std::vector<std::string>{"no", "trailing", "delimi"}));

  tokenizer.Feed("   \t \n  ");
  tokenizer.Flush();
  EXPECT_FALSE(tokenizer.HasSentence());  // whitespace-only yields nothing
}

// ---------------------------------------------------------------------------
// EntityMemory

// The type Apply gives `surface` read as a sentence of its own with no
// predicted spans: the memory's majority type for that exact surface, or ""
// when it remembers none.
std::string RememberedType(const EntityMemory& memory,
                           const std::vector<std::string>& surface) {
  std::vector<text::Span> spans;
  memory.Apply(surface, &spans);
  const bool whole = spans.size() == 1 && spans[0].start == 0 &&
                     spans[0].end == static_cast<int>(surface.size());
  return whole ? spans[0].type : "";
}

TEST(EntityMemoryTest, InjectsRememberedSurfaces) {
  EntityMemory memory;
  memory.Observe({"President", "Zhang", "spoke", "."}, {{1, 2, "PER"}});
  EXPECT_EQ(RememberedType(memory, {"Zhang"}), "PER");

  std::vector<text::Span> spans;  // decoder missed the repeat mention
  memory.Apply({"Zhang", "smiled", "."}, &spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (text::Span{0, 1, "PER"}));
}

TEST(EntityMemoryTest, InjectionPrefersLongestMatchAndNeverOverlaps) {
  EntityMemory memory;
  memory.Observe({"New", "York", "City"}, {{0, 3, "LOC"}});
  memory.Observe({"New", "York"}, {{0, 2, "LOC"}});

  // Longest remembered surface wins at position 0.
  std::vector<text::Span> spans;
  memory.Apply({"New", "York", "City", "mayor"}, &spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (text::Span{0, 3, "LOC"}));

  // An existing span blocks injection over the covered region.
  spans = {{1, 3, "ORG"}};
  memory.Apply({"New", "York", "City", "mayor"}, &spans);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (text::Span{1, 3, "ORG"}));
}

TEST(EntityMemoryTest, RelabelRequiresDominantMajority) {
  EntityMemory memory;  // relabel needs 2 votes and a 2:1 majority
  memory.Observe({"Jordan"}, {{0, 1, "PER"}});
  std::vector<text::Span> spans = {{0, 1, "LOC"}};
  memory.Apply({"Jordan"}, &spans);
  EXPECT_EQ(spans[0].type, "LOC");  // one PER vote must not rewrite

  memory.Observe({"Jordan"}, {{0, 1, "PER"}});
  spans = {{0, 1, "LOC"}};
  memory.Apply({"Jordan"}, &spans);
  EXPECT_EQ(spans[0].type, "PER");  // 2 votes, ratio 2:1 vs 1 -> relabel
}

TEST(EntityMemoryTest, VoteTiesBreakLexicographically) {
  EntityMemory memory;
  memory.Observe({"Amazon"}, {{0, 1, "ORG"}});
  memory.Observe({"Amazon"}, {{0, 1, "LOC"}});
  EXPECT_EQ(RememberedType(memory, {"Amazon"}), "LOC");  // LOC < ORG
}

TEST(EntityMemoryTest, SeparatorBytesInTokensCannotForgeSurfaces) {
  EntityMemory memory;
  // A hostile token containing the internal separator must not collide with
  // the two-token surface ["a","b"].
  memory.Observe({std::string("a\x1f") + "b"}, {{0, 1, "PER"}});
  std::vector<text::Span> spans;
  memory.Apply({"a", "b"}, &spans);
  EXPECT_TRUE(spans.empty());
}

TEST(EntityMemoryTest, ClearForgetsEverything) {
  EntityMemory memory;
  memory.Observe({"Zhang"}, {{0, 1, "PER"}});
  ASSERT_EQ(memory.size(), 1u);
  memory.Clear();
  EXPECT_EQ(memory.size(), 0u);
  EXPECT_EQ(RememberedType(memory, {"Zhang"}), "");
}

TEST(EntityMemoryTest, SurfaceTableIsCapped) {
  EntityMemory memory;
  for (int i = 0; i <= 4096; ++i) {
    memory.Observe({"tok" + std::to_string(i)}, {{0, 1, "PER"}});
  }
  EXPECT_EQ(memory.size(), 4096u);
  // A remembered surface keeps voting once the table is full.
  memory.Observe({"tok0"}, {{0, 1, "LOC"}});
  memory.Observe({"tok0"}, {{0, 1, "LOC"}});
  EXPECT_EQ(RememberedType(memory, {"tok0"}), "LOC");
  EXPECT_EQ(RememberedType(memory, {"tok4096"}), "");
}

// ---------------------------------------------------------------------------
// StreamTagger (trained pipeline fixture)

struct StreamFixture {
  std::unique_ptr<core::Pipeline> pipeline;
  text::Corpus test;  // consistency documents
};

const StreamFixture& Fixture() {
  static StreamFixture* f = [] {
    auto* fx = new StreamFixture;
    data::ScenarioOptions opts;
    opts.seed = 41;
    opts.num_sentences = 60;
    const data::ScenarioSplit split =
        data::MakeScenarioSplit(data::Scenario::kEntityConsistency, opts);
    fx->test = split.test;
    core::NerConfig config;
    config.encoder = "cnn";
    config.decoder = "softmax";
    config.word_dim = 12;
    config.hidden_dim = 12;
    config.word_unk_dropout = 0.2;
    config.seed = 7;
    core::TrainConfig tc;
    tc.epochs = 4;
    tc.lr = 0.02;
    const auto types =
        data::ScenarioEntityTypes(data::Scenario::kEntityConsistency);
    fx->pipeline = core::Pipeline::Train(config, tc, split.train, nullptr,
                                         types);
    return fx;
  }();
  return *f;
}

bool SameOutput(const std::vector<TaggedSentence>& a,
                const std::vector<TaggedSentence>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].tokens != b[i].tokens || a[i].spans != b[i].spans) return false;
  }
  return true;
}

std::vector<TaggedSentence> StreamChunked(const core::Pipeline& pipeline,
                                          const std::string& raw, int chunk,
                                          const StreamOptions& opts) {
  StreamTagger tagger(&pipeline, opts);
  std::vector<TaggedSentence> out;
  for (std::size_t i = 0; i < raw.size();
       i += static_cast<std::size_t>(chunk)) {
    for (auto& ts : tagger.Feed(std::string_view(raw).substr(
             i, static_cast<std::size_t>(chunk)))) {
      out.push_back(std::move(ts));
    }
  }
  for (auto& ts : tagger.Flush()) out.push_back(std::move(ts));
  return out;
}

// The acceptance-criterion invariance: cutting the byte stream at sizes
// {1, 2, 7, 4096, whole} never changes a single emitted byte — with the
// entity memory off AND on (the memory is applied strictly per sentence,
// so batch grouping cannot leak into the output).
TEST(StreamTaggerTest, ChunkBoundaryInvariance) {
  const StreamFixture& f = Fixture();
  std::string raw;
  for (int d = 0; d < f.test.DocCount() && d < 8; ++d) {
    raw += data::RenderDocument(f.test, d);
  }
  ASSERT_GT(raw.size(), 600u);
  for (const bool doc : {false, true}) {
    StreamOptions opts;
    opts.doc_context = doc;
    const auto whole = StreamChunked(*f.pipeline, raw,
                                     static_cast<int>(raw.size()), opts);
    ASSERT_FALSE(whole.empty());
    for (const int chunk : {1, 2, 7, 4096}) {
      EXPECT_TRUE(SameOutput(
          StreamChunked(*f.pipeline, raw, chunk, opts), whole))
          << "chunk=" << chunk << " doc_context=" << doc;
    }
  }
}

// With doc_context off, streaming must be bit-identical to the batch path
// (Pipeline::TagCorpus) on the same sentence split — the property that makes
// the streaming endpoint trustworthy as a drop-in.
TEST(StreamTaggerTest, StatelessStreamingMatchesTagCorpusBitIdentically) {
  const StreamFixture& f = Fixture();
  const std::vector<std::vector<text::Span>> expected =
      f.pipeline->TagCorpus(f.test);

  StreamOptions opts;
  opts.doc_context = false;
  std::vector<TaggedSentence> emitted;
  for (int d = 0; d < f.test.DocCount(); ++d) {
    // One tagger per document, mirroring how documents stream in practice.
    for (auto& ts : StreamChunked(*f.pipeline, data::RenderDocument(f.test, d),
                                  17, opts)) {
      emitted.push_back(std::move(ts));
    }
  }
  ASSERT_EQ(emitted.size(), expected.size());
  for (std::size_t i = 0; i < emitted.size(); ++i) {
    EXPECT_EQ(emitted[i].tokens, f.test.sentences[i].tokens) << i;
    EXPECT_EQ(emitted[i].spans, expected[i]) << i;
  }
}

// Work-conserving emission: a Feed that completes sentences returns them,
// tagged, in that same call; only a trailing partial sentence waits, and
// only Flush can close it. Flush also ends the document's entity memory.
TEST(StreamTaggerTest, FeedEmitsEverySentenceItCompletes) {
  const StreamFixture& f = Fixture();
  StreamOptions opts;
  opts.doc_context = true;
  StreamTagger tagger(f.pipeline.get(), opts);

  const auto one = tagger.Feed("John visited Paris .\n");
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0].tokens,
            (std::vector<std::string>{"John", "visited", "Paris", "."}));
  const auto two = tagger.Feed("Mary left Rome .\nAnn met Bob .\n");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[1].tokens,
            (std::vector<std::string>{"Ann", "met", "Bob", "."}));

  EXPECT_TRUE(tagger.Feed("trailing words without newline").empty());
  EXPECT_TRUE(tagger.Feed(" still").empty());
  const auto tail = tagger.Flush();
  ASSERT_EQ(tail.size(), 1u);
  EXPECT_EQ(tail[0].tokens,
            (std::vector<std::string>{"trailing", "words", "without",
                                      "newline", "still"}));
  EXPECT_EQ(tagger.memory().size(), 0u);
  EXPECT_TRUE(tagger.Flush().empty());
}

TEST(StreamTaggerTest, FlushClearsEntityMemoryBetweenDocuments) {
  const StreamFixture& f = Fixture();
  StreamOptions opts;
  opts.doc_context = true;
  StreamTagger tagger(f.pipeline.get(), opts);
  tagger.Feed(data::RenderDocument(f.test, 0));
  ASSERT_GT(tagger.memory().size(), 0u);
  tagger.Flush();
  EXPECT_EQ(tagger.memory().size(), 0u);
}

// ---------------------------------------------------------------------------
// Deterministic fuzz of Feed: structure-aware mutations of a valid rendered
// document plus hostile hand-picked inputs. Invariants: no crash (the asan
// run is the point), emitted tokens exactly match an independent tokenizer
// pass over the same bytes, and every span stays inside its sentence.

void CheckStreamAgainstTokenizer(const core::Pipeline& pipeline,
                                 const std::string& bytes, uint64_t seed) {
  Rng rng(seed);
  StreamOptions opts;
  opts.doc_context = rng.UniformInt(0, 1) != 0;
  StreamTagger tagger(&pipeline, opts);
  std::vector<TaggedSentence> emitted;
  std::size_t i = 0;
  while (i < bytes.size()) {
    const std::size_t chunk =
        1 + static_cast<std::size_t>(rng.UniformInt(0, 63));
    for (auto& ts :
         tagger.Feed(std::string_view(bytes).substr(i, chunk))) {
      emitted.push_back(std::move(ts));
    }
    i += chunk;
  }
  for (auto& ts : tagger.Flush()) emitted.push_back(std::move(ts));

  text::StreamTokenizer tokenizer;
  tokenizer.Feed(bytes);
  tokenizer.Flush();
  for (const TaggedSentence& ts : emitted) {
    ASSERT_TRUE(tokenizer.HasSentence());
    EXPECT_EQ(ts.tokens, tokenizer.NextSentence());
    for (const text::Span& span : ts.spans) {
      ASSERT_GE(span.start, 0);
      ASSERT_LT(span.start, span.end);
      ASSERT_LE(span.end, static_cast<int>(ts.tokens.size()));
    }
  }
  EXPECT_FALSE(tokenizer.HasSentence());
}

TEST(StreamFuzzTest, MutatedDocumentsNeverBreakTheStream) {
  const StreamFixture& f = Fixture();
  const std::string base = data::RenderDocument(f.test, 0);
  const std::string other =
      data::RenderDocument(f.test, f.test.DocCount() > 1 ? 1 : 0);
  for (uint64_t iter = 0; iter < 48; ++iter) {
    Rng rng(1000 + iter);  // the failing iter reproduces the exact input
    const std::string mutated = testsup::MutateBytes(base, other, &rng);
    CheckStreamAgainstTokenizer(*f.pipeline, mutated, 2000 + iter);
  }
}

TEST(StreamFuzzTest, HostileInputsAreHandled) {
  const StreamFixture& f = Fixture();
  const std::vector<std::string> hostile = {
      std::string("caf\xC3"),                    // truncated UTF-8 at EOF
      std::string("caf\xC3 suite .\n"),          // truncated UTF-8 mid-stream
      std::string("\xE2\x82"),                   // lone truncated 3-byte seq
      std::string("a\0b c\0 .\n", 9),            // NUL bytes inside tokens
      std::string(3, '\n'),                      // blank lines only
      std::string("\xFF\xFE garbage \x80\x81\n"),  // invalid UTF-8 soup
  };
  uint64_t seed = 9000;
  for (const std::string& bytes : hostile) {
    CheckStreamAgainstTokenizer(*f.pipeline, bytes, seed++);
  }

  // A 1 MiB single-token line must pass through without splitting, without
  // quadratic blowup, and without leaking (the asan run checks the latter).
  std::string huge(1 << 20, 'x');
  huge += " .\n";
  StreamTagger tagger(f.pipeline.get());
  std::vector<TaggedSentence> emitted;
  for (auto& ts : tagger.Feed(huge)) emitted.push_back(std::move(ts));
  for (auto& ts : tagger.Flush()) emitted.push_back(std::move(ts));
  ASSERT_EQ(emitted.size(), 1u);
  ASSERT_EQ(emitted[0].tokens.size(), 2u);
  EXPECT_EQ(emitted[0].tokens[0].size(), static_cast<std::size_t>(1 << 20));
}

}  // namespace
}  // namespace dlner::stream
