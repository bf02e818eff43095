#include <sstream>

#include <gtest/gtest.h>

#include "support/corpus_gen.h"
#include "text/conll.h"
#include "text/tagging.h"
#include "text/types.h"
#include "text/vocab.h"

namespace dlner::text {

// Prints a TagScheme by name, so parameterized test names read
// "GetParam() = bio" instead of the enum's bytes. Declared in the enum's
// namespace so that gtest finds it by argument-dependent lookup.
void PrintTo(TagScheme scheme, std::ostream* os) {
  *os << testsup::SchemeName(scheme);
}

namespace {

TEST(SpanTest, ValidityChecks) {
  EXPECT_TRUE(SpansAreValid({{0, 2, "PER"}, {3, 4, "LOC"}}, 4));
  EXPECT_FALSE(SpansAreValid({{0, 5, "PER"}}, 4));   // end out of range
  EXPECT_FALSE(SpansAreValid({{2, 2, "PER"}}, 4));   // empty span
  EXPECT_FALSE(SpansAreValid({{-1, 2, "PER"}}, 4));  // negative start
  EXPECT_FALSE(SpansAreValid({{0, 1, ""}}, 4));      // empty type
}

TEST(SpanTest, FlatnessChecks) {
  EXPECT_TRUE(SpansAreFlat({{0, 2, "A"}, {2, 4, "B"}}));
  EXPECT_FALSE(SpansAreFlat({{0, 3, "A"}, {2, 4, "B"}}));
  EXPECT_FALSE(SpansAreFlat({{0, 4, "A"}, {1, 2, "B"}}));  // nested
  EXPECT_TRUE(SpansAreFlat({}));
}

TEST(CorpusTest, Counts) {
  Corpus c;
  c.sentences.push_back({{"a", "b", "c"}, {{0, 1, "X"}}});
  c.sentences.push_back({{"d", "e"}, {{0, 2, "Y"}, {1, 2, "X"}}});
  EXPECT_EQ(c.size(), 2);
  EXPECT_EQ(c.TokenCount(), 5);
  EXPECT_EQ(c.EntityCount(), 3);
}

TEST(VocabTest, UnkIsIdZero) {
  Vocabulary v;
  EXPECT_EQ(v.Id("anything"), Vocabulary::kUnkId);
  EXPECT_EQ(v.TokenOf(0), Vocabulary::kUnkToken);
}

TEST(VocabTest, AddAndLookup) {
  Vocabulary v;
  int cat = v.Add("cat");
  int dog = v.Add("dog");
  EXPECT_NE(cat, dog);
  EXPECT_EQ(v.Id("cat"), cat);
  EXPECT_EQ(v.Id("dog"), dog);
  EXPECT_EQ(v.Add("cat"), cat);  // re-adding returns the same id
  EXPECT_EQ(v.size(), 3);
}

TEST(VocabTest, FreezeWithMinCount) {
  Vocabulary v;
  v.Add("frequent");
  v.Add("frequent");
  v.Add("frequent");
  v.Add("rare");
  v.Freeze(/*min_count=*/2);
  EXPECT_TRUE(v.Contains("frequent"));
  EXPECT_FALSE(v.Contains("rare"));
  EXPECT_EQ(v.Id("rare"), Vocabulary::kUnkId);
  EXPECT_EQ(v.size(), 2);
}

TEST(VocabTest, FromCorpusAndEncode) {
  Corpus c;
  c.sentences.push_back({{"the", "cat", "sat"}, {}});
  c.sentences.push_back({{"the", "dog", "ran"}, {}});
  Vocabulary v = Vocabulary::FromCorpus(c);
  EXPECT_TRUE(v.frozen());
  std::vector<int> ids = v.Encode({"the", "unseen", "dog"});
  EXPECT_NE(ids[0], Vocabulary::kUnkId);
  EXPECT_EQ(ids[1], Vocabulary::kUnkId);
  EXPECT_NE(ids[2], Vocabulary::kUnkId);
}

TEST(VocabTest, CharVocabulary) {
  Corpus c;
  c.sentences.push_back({{"ab", "ba"}, {}});
  Vocabulary v = Vocabulary::CharsFromCorpus(c);
  EXPECT_EQ(v.size(), 3);  // unk, a, b
  std::vector<int> ids = v.EncodeChars("abz");
  EXPECT_NE(ids[0], Vocabulary::kUnkId);
  EXPECT_NE(ids[1], Vocabulary::kUnkId);
  EXPECT_EQ(ids[2], Vocabulary::kUnkId);
}

TEST(VocabTest, SaveLoadRoundTrip) {
  Vocabulary v;
  for (const char* tok : {"the", "cat", "the", "a b", "x\ty", "the"}) {
    v.Add(tok);
  }
  std::ostringstream saved;
  v.Save(saved);
  Vocabulary back;
  ASSERT_TRUE(Vocabulary::Load(saved.str(), &back));
  EXPECT_TRUE(back.frozen());
  ASSERT_EQ(back.size(), v.size());
  for (int id = 0; id < v.size(); ++id) {
    EXPECT_EQ(back.TokenOf(id), v.TokenOf(id));
    EXPECT_EQ(back.Id(v.TokenOf(id)), id);
  }
  std::ostringstream again;
  back.Save(again);
  EXPECT_EQ(again.str(), saved.str());
}

TEST(VocabTest, LoadRejectsMalformedBlocks) {
  Vocabulary v;
  v.Add("kept");
  v.Freeze();
  const char* const bad[] = {
      "",                    // no header
      "0\n",                 // count below 1
      "x\n",                 // non-numeric header
      "2",                   // header without newline
      "3\n1\ta\n",           // fewer entries than the header claims
      "2\n1\t\n",            // empty token
      "2\n1a\n",             // no tab
      "2\nz\ta\n",           // non-numeric count
      "2\n\ta\n",            // empty count
      "3\n1\ta\n2\ta\n",     // duplicate token would shift ids
      "2\n1\t<unk>\n",       // collides with the implicit UNK
      "2000000000\n1\ta\n",  // huge count, tiny block
  };
  for (const char* block : bad) {
    EXPECT_FALSE(Vocabulary::Load(block, &v)) << '"' << block << '"';
    // A failed load leaves the target untouched.
    EXPECT_EQ(v.size(), 2);
    EXPECT_EQ(v.Id("kept"), 1);
  }
}

TEST(VocabDeathTest, AddAfterFreezeAborts) {
  Vocabulary v;
  v.Add("x");
  v.Freeze();
  EXPECT_DEATH(v.Add("y"), "Freeze");
}

// --- Tagging schemes ---

TEST(TagSetTest, SizesPerScheme) {
  std::vector<std::string> types = {"PER", "LOC"};
  EXPECT_EQ(TagSet(types, TagScheme::kIo).size(), 3);
  EXPECT_EQ(TagSet(types, TagScheme::kBio).size(), 5);
  EXPECT_EQ(TagSet(types, TagScheme::kBioes).size(), 9);
}

TEST(TagSetTest, SchemeStringRoundTrip) {
  for (auto s : {TagScheme::kIo, TagScheme::kBio, TagScheme::kBioes}) {
    EXPECT_EQ(TagSchemeFromString(testsup::SchemeName(s)), s);
  }
}

class SchemeRoundTripTest : public ::testing::TestWithParam<TagScheme> {};

TEST_P(SchemeRoundTripTest, SpansSurviveEncodeDecode) {
  TagSet tags({"PER", "LOC", "ORG"}, GetParam());
  std::vector<Span> spans = {{0, 3, "PER"}, {4, 5, "LOC"}, {6, 9, "ORG"}};
  std::vector<int> ids = tags.SpansToTagIds(spans, 10);
  std::vector<Span> back = tags.TagIdsToSpans(ids);
  ASSERT_EQ(back.size(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) EXPECT_EQ(back[i], spans[i]);
}

TEST_P(SchemeRoundTripTest, AdjacentSameTypeSpans) {
  // Two adjacent PER spans: IO cannot distinguish them (known scheme
  // limitation); BIO and BIOES must keep them separate.
  TagSet tags({"PER"}, GetParam());
  std::vector<Span> spans = {{0, 2, "PER"}, {2, 4, "PER"}};
  std::vector<int> ids = tags.SpansToTagIds(spans, 4);
  std::vector<Span> back = tags.TagIdsToSpans(ids);
  if (GetParam() == TagScheme::kIo) {
    ASSERT_EQ(back.size(), 1u);
    EXPECT_EQ(back[0], (Span{0, 4, "PER"}));
  } else {
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(back[0], spans[0]);
    EXPECT_EQ(back[1], spans[1]);
  }
}

TEST_P(SchemeRoundTripTest, EmptyAndFullCoverage) {
  TagSet tags({"X"}, GetParam());
  EXPECT_TRUE(tags.TagIdsToSpans(tags.SpansToTagIds({}, 5)).empty());
  std::vector<Span> all = {{0, 5, "X"}};
  EXPECT_EQ(tags.TagIdsToSpans(tags.SpansToTagIds(all, 5)), all);
}

INSTANTIATE_TEST_SUITE_P(Schemes, SchemeRoundTripTest,
                         ::testing::Values(TagScheme::kIo, TagScheme::kBio,
                                           TagScheme::kBioes),
                         [](const auto& info) {
                           return testsup::SchemeName(info.param);
                         });

TEST(TagSetTest, BioesSingletonUsesS) {
  TagSet tags({"PER"}, TagScheme::kBioes);
  std::vector<int> ids = tags.SpansToTagIds({{1, 2, "PER"}}, 3);
  EXPECT_EQ(tags.TagOf(ids[1]), "S-PER");
}

TEST(TagSetTest, LenientDecodingOfInvalidSequences) {
  TagSet tags({"PER", "LOC"}, TagScheme::kBio);
  // O I-PER I-PER O : stray I- run becomes a span.
  std::vector<int> ids = {0, tags.IdOf("I-PER"), tags.IdOf("I-PER"), 0};
  std::vector<Span> spans = tags.TagIdsToSpans(ids);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{1, 3, "PER"}));

  // B-PER I-LOC : type change splits the span.
  ids = {tags.IdOf("B-PER"), tags.IdOf("I-LOC")};
  spans = tags.TagIdsToSpans(ids);
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0], (Span{0, 1, "PER"}));
  EXPECT_EQ(spans[1], (Span{1, 2, "LOC"}));
}

TEST(TagSetTest, LenientBioesStrayEnd) {
  TagSet tags({"PER"}, TagScheme::kBioes);
  std::vector<int> ids = {0, tags.IdOf("E-PER"), 0};
  std::vector<Span> spans = tags.TagIdsToSpans(ids);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{1, 2, "PER"}));
}

TEST(TagSetTest, UnterminatedEntityClosedAtEnd) {
  TagSet tags({"PER"}, TagScheme::kBioes);
  std::vector<int> ids = {tags.IdOf("B-PER"), tags.IdOf("I-PER")};
  std::vector<Span> spans = tags.TagIdsToSpans(ids);
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0], (Span{0, 2, "PER"}));
}

TEST(TagSetTest, BioTransitionRules) {
  TagSet tags({"PER", "LOC"}, TagScheme::kBio);
  const int o = tags.IdOf("O");
  const int b_per = tags.IdOf("B-PER");
  const int i_per = tags.IdOf("I-PER");
  const int i_loc = tags.IdOf("I-LOC");
  EXPECT_TRUE(tags.IsValidTransition(b_per, i_per));
  EXPECT_TRUE(tags.IsValidTransition(i_per, i_per));
  EXPECT_FALSE(tags.IsValidTransition(o, i_per));
  EXPECT_FALSE(tags.IsValidTransition(b_per, i_loc));
  EXPECT_TRUE(tags.IsValidTransition(i_per, o));
  EXPECT_FALSE(tags.IsValidStart(i_per));
  EXPECT_TRUE(tags.IsValidStart(b_per));
  EXPECT_TRUE(tags.IsValidEnd(i_per));
}

TEST(TagSetTest, BioesTransitionRules) {
  TagSet tags({"PER", "LOC"}, TagScheme::kBioes);
  const int o = tags.IdOf("O");
  const int b = tags.IdOf("B-PER");
  const int i = tags.IdOf("I-PER");
  const int e = tags.IdOf("E-PER");
  const int s = tags.IdOf("S-PER");
  const int e_loc = tags.IdOf("E-LOC");
  EXPECT_TRUE(tags.IsValidTransition(b, i));
  EXPECT_TRUE(tags.IsValidTransition(b, e));
  EXPECT_FALSE(tags.IsValidTransition(b, o));      // open entity must continue
  EXPECT_FALSE(tags.IsValidTransition(b, b));
  EXPECT_FALSE(tags.IsValidTransition(i, e_loc));  // type mismatch
  EXPECT_TRUE(tags.IsValidTransition(e, o));
  EXPECT_TRUE(tags.IsValidTransition(e, b));
  EXPECT_TRUE(tags.IsValidTransition(s, s));
  EXPECT_FALSE(tags.IsValidTransition(o, i));
  EXPECT_FALSE(tags.IsValidEnd(b));
  EXPECT_TRUE(tags.IsValidEnd(e));
  EXPECT_TRUE(tags.IsValidEnd(s));
}

TEST(TagSetDeathTest, OverlappingSpansAbort) {
  TagSet tags({"PER"}, TagScheme::kBio);
  EXPECT_DEATH(tags.SpansToTagIds({{0, 3, "PER"}, {2, 4, "PER"}}, 5), "flat");
}

TEST(TagSetDeathTest, UnknownTagAborts) {
  TagSet tags({"PER"}, TagScheme::kBio);
  EXPECT_DEATH(tags.IdOf("B-XYZ"), "unknown tag");
}

TEST(StringTagsTest, MixedPrefixDecoding) {
  std::vector<Span> spans = SpansFromStringTags(
      {"B-PER", "E-PER", "O", "S-LOC", "I-ORG", "I-ORG"});
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0], (Span{0, 2, "PER"}));
  EXPECT_EQ(spans[1], (Span{3, 4, "LOC"}));
  EXPECT_EQ(spans[2], (Span{4, 6, "ORG"}));
}

// --- CoNLL I/O ---

TEST(ConllTest, RoundTrip) {
  Corpus c;
  c.sentences.push_back(
      {{"John", "Smith", "visited", "Paris", "."},
       {{0, 2, "PER"}, {3, 4, "LOC"}}});
  c.sentences.push_back({{"Nothing", "here", "."}, {}});
  TagSet tags({"PER", "LOC"}, TagScheme::kBioes);

  std::stringstream ss;
  WriteConll(ss, c, tags);
  Corpus back;
  ASSERT_TRUE(ReadConll(ss, &back));
  ASSERT_EQ(back.size(), 2);
  EXPECT_EQ(back.sentences[0].tokens, c.sentences[0].tokens);
  EXPECT_EQ(back.sentences[0].spans, c.sentences[0].spans);
  EXPECT_TRUE(back.sentences[1].spans.empty());
}

TEST(ConllTest, MalformedLineFails) {
  std::stringstream ss;
  ss << "token_without_tag\n";
  Corpus c;
  EXPECT_FALSE(ReadConll(ss, &c));
}

TEST(ConllTest, MissingTrailingBlankLineStillParses) {
  std::stringstream ss;
  ss << "Rome S-LOC";  // no trailing newline or blank line
  Corpus c;
  ASSERT_TRUE(ReadConll(ss, &c));
  ASSERT_EQ(c.size(), 1);
  EXPECT_EQ(c.sentences[0].spans[0], (Span{0, 1, "LOC"}));
}

TEST(ConllTest, CrlfLineEndingsParse) {
  // Windows-formatted file: "\r\n" everywhere, including the sentence
  // separator. Sentences must still flush and tags must carry no '\r'.
  std::stringstream ss;
  ss << "John B-PER\r\nSmith E-PER\r\n\r\nRome S-LOC\r\n";
  Corpus c;
  ASSERT_TRUE(ReadConll(ss, &c));
  ASSERT_EQ(c.size(), 2);
  EXPECT_EQ(c.sentences[0].tokens, (std::vector<std::string>{"John", "Smith"}));
  ASSERT_EQ(c.sentences[0].spans.size(), 1u);
  EXPECT_EQ(c.sentences[0].spans[0], (Span{0, 2, "PER"}));
  ASSERT_EQ(c.sentences[1].spans.size(), 1u);
  EXPECT_EQ(c.sentences[1].spans[0], (Span{0, 1, "LOC"}));
}

TEST(ConllTest, FourColumnRowsUseLastField) {
  // Standard CoNLL-2003 layout: token POS chunk tag. The NER tag is the
  // last column, not the second.
  std::stringstream ss;
  ss << "U.N. NNP I-NP S-ORG\n"
     << "official NN I-NP O\n"
     << "Ekeus NNP I-NP S-PER\n";
  Corpus c;
  ASSERT_TRUE(ReadConll(ss, &c));
  ASSERT_EQ(c.size(), 1);
  ASSERT_EQ(c.sentences[0].spans.size(), 2u);
  EXPECT_EQ(c.sentences[0].spans[0], (Span{0, 1, "ORG"}));
  EXPECT_EQ(c.sentences[0].spans[1], (Span{2, 3, "PER"}));
}

// CoNLL-2003 marks document boundaries with "-DOCSTART- -X- -X- O" sentinel
// rows. The sentinel is a marker, not a token: it must not appear in any
// sentence, and it must populate Corpus::doc_starts. Regression for the
// reader treating it as a one-token sentence.
TEST(ConllTest, DocstartSentinelsBecomeDocumentBoundaries) {
  std::stringstream ss;
  ss << "-DOCSTART- -X- -X- O\n"
     << "\n"
     << "EU NNP I-NP S-ORG\n"
     << "rejects VBZ I-VP O\n"
     << "\n"
     << "Peter NNP I-NP B-PER\n"
     << "Blackburn NNP I-NP E-PER\n"
     << "\n"
     << "-DOCSTART- -X- -X- O\n"
     << "\n"
     << "Rome NNP I-NP S-LOC\n";
  Corpus c;
  ASSERT_TRUE(ReadConll(ss, &c));
  ASSERT_EQ(c.size(), 3);
  for (const Sentence& s : c.sentences) {
    for (const std::string& tok : s.tokens) {
      EXPECT_NE(tok, "-DOCSTART-");
    }
  }
  EXPECT_EQ(c.sentences[0].tokens, (std::vector<std::string>{"EU", "rejects"}));
  EXPECT_EQ(c.sentences[0].spans[0], (Span{0, 1, "ORG"}));
  EXPECT_EQ(c.doc_starts, (std::vector<int>{0, 2}));
  ASSERT_EQ(c.DocCount(), 2);
  EXPECT_EQ(c.DocRange(0), (std::pair<int, int>{0, 2}));
  EXPECT_EQ(c.DocRange(1), (std::pair<int, int>{2, 3}));
}

TEST(ConllTest, DocstartHandlesSparseAndDegenerateLayouts) {
  // Bare two-column sentinel, no blank line before the next sentence (the
  // sentinel itself must flush), consecutive sentinels, and a trailing
  // sentinel with no document after it.
  std::stringstream ss;
  ss << "John S-PER\n"      // content before the first sentinel: implicit doc
     << "-DOCSTART- O\n"
     << "-DOCSTART- O\n"    // consecutive sentinels collapse to one boundary
     << "Rome S-LOC\n"
     << "-DOCSTART- O\n";   // trailing sentinel marks no document
  Corpus c;
  ASSERT_TRUE(ReadConll(ss, &c));
  ASSERT_EQ(c.size(), 2);
  EXPECT_EQ(c.sentences[0].tokens, (std::vector<std::string>{"John"}));
  EXPECT_EQ(c.sentences[1].tokens, (std::vector<std::string>{"Rome"}));
  EXPECT_EQ(c.doc_starts, (std::vector<int>{0, 1}));
  EXPECT_EQ(c.DocCount(), 2);
}

TEST(ConllTest, NoDocstartMeansSingleImplicitDocument) {
  std::stringstream ss;
  ss << "Rome S-LOC\n\nParis S-LOC\n";
  Corpus c;
  ASSERT_TRUE(ReadConll(ss, &c));
  EXPECT_TRUE(c.doc_starts.empty());
  ASSERT_EQ(c.DocCount(), 1);
  EXPECT_EQ(c.DocRange(0), (std::pair<int, int>{0, 2}));
}

}  // namespace
}  // namespace dlner::text
