// Fuzz suite (ctest label "fuzz"): deterministic structure-aware byte
// mutation of valid checkpoints and CoNLL files, driven through the binary
// readers. The readers' contract is total: any input either parses into a
// usable object or is rejected (nullptr / false) — never a crash, hang, or
// out-of-bounds access. Run under the asan preset for the full guarantee.
// See docs/TESTING.md; the same corpus logic backs the optional libFuzzer
// targets in tests/fuzz/.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "runtime/runtime.h"
#include "support/corpus_gen.h"
#include "support/mutate.h"
#include "text/conll.h"

namespace dlner {
namespace {

// Per-base-input mutation counts; the two checkpoint bases plus the CoNLL
// base put the suite above the 5000-iteration acceptance bar.
constexpr int kCheckpointIters = 2600;
constexpr int kConllIters = 2600;

std::string CheckpointBytes(const std::string& encoder,
                            const std::string& decoder, uint64_t seed) {
  runtime::Runtime::Get().SetThreads(1);
  const text::Corpus train = testsup::SmallCorpus("conll-like", 6, seed);
  core::TrainConfig tc;
  tc.epochs = 1;
  const auto pipeline =
      core::Pipeline::Train(testsup::TinyConfig(encoder, decoder, seed), tc,
                            train, nullptr, train.EntityTypes());
  std::ostringstream os;
  EXPECT_TRUE(pipeline->Save(os));
  return os.str();
}

TEST(CheckpointFuzzTest, MutatedCheckpointsNeverCrashTheLoader) {
  // Two architectures so splices cross checkpoints with different block
  // layouts (different decoder parameter sets, tag set vs none).
  const std::string base = CheckpointBytes("mlp", "crf", 41);
  const std::string donor = CheckpointBytes("cnn", "semicrf", 43);
  const std::vector<std::string> probe = {"Alice", "visited", "Paris"};

  Rng rng(0xf0220);
  int accepted = 0;
  for (int iter = 0; iter < kCheckpointIters; ++iter) {
    const bool from_base = rng.Bernoulli(0.5);
    const std::string bytes = testsup::MutateBytes(from_base ? base : donor,
                                          from_base ? donor : base, &rng);
    std::istringstream is(bytes);
    const auto loaded = core::Pipeline::Load(is);
    if (loaded != nullptr) {
      // A checkpoint the loader accepts must yield a *usable* pipeline:
      // tagging must produce structurally valid spans, not UB.
      ++accepted;
      const auto spans = loaded->Tag(probe);
      EXPECT_TRUE(text::SpansAreValid(spans, static_cast<int>(probe.size())))
          << "iteration " << iter;
    }
  }
  // Mutations that only touch parameter bytes still load; wholesale
  // acceptance would mean the mutator (or validation) is broken.
  EXPECT_LT(accepted, kCheckpointIters / 2);
  RecordProperty("accepted", accepted);
}

TEST(CheckpointFuzzTest, EveryStrictPrefixIsRejected) {
  const std::string base = CheckpointBytes("mlp", "softmax", 47);
  for (size_t len = 0; len < base.size(); ++len) {
    std::istringstream is(base.substr(0, len));
    EXPECT_EQ(core::Pipeline::Load(is), nullptr) << "prefix length " << len;
  }
}

TEST(ConllFuzzTest, MutatedConllFilesNeverCrashTheReader) {
  const text::Corpus corpus = testsup::SmallCorpus("conll-like", 8, 53);
  text::TagSet tags(corpus.EntityTypes(), text::TagScheme::kBio);
  std::ostringstream base_os, donor_os;
  text::WriteConll(base_os, corpus, tags);
  const text::Corpus donor_corpus =
      testsup::SmallCorpus("ontonotes-like", 5, 59);
  text::TagSet donor_tags(donor_corpus.EntityTypes(),
                          text::TagScheme::kBioes);
  text::WriteConll(donor_os, donor_corpus, donor_tags);
  const std::string base = base_os.str();
  const std::string donor = donor_os.str();

  Rng rng(0xc0411u);
  int accepted = 0;
  for (int iter = 0; iter < kConllIters; ++iter) {
    const std::string bytes = testsup::MutateBytes(base, donor, &rng);
    std::istringstream is(bytes);
    text::Corpus out;
    if (text::ReadConll(is, &out)) {
      ++accepted;
      for (const text::Sentence& s : out.sentences) {
        ASSERT_TRUE(text::SpansAreValid(s.spans, s.size()))
            << "iteration " << iter;
      }
    }
  }
  // The text format is lenient by design, so most mutants still parse; the
  // guarantee under test is validity of whatever comes back.
  EXPECT_GT(accepted, 0);
  RecordProperty("accepted", accepted);
}

}  // namespace
}  // namespace dlner
