// Invariance suite (ctest label "invariance"): a trained pipeline's outputs
// must be bit-identical across thread counts, across a save -> load round
// trip, and across batch reorderings; training itself must be bit-identical
// across runs with the same seeds. See docs/TESTING.md.
#include <cstdint>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "runtime/runtime.h"
#include "support/corpus_gen.h"
#include "support/oracles.h"
#include "support/params.h"
#include "tensor/tensor.h"

namespace dlner {
namespace {

// The thread counts the acceptance bar names: serial, small, odd (so shards
// divide unevenly), and 0 = hardware concurrency.
constexpr int kThreadCounts[] = {1, 2, 7, 0};

core::TrainConfig TinyTrainConfig() {
  core::TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 0.05;
  tc.optimizer = "adam";
  tc.shuffle_seed = 11;
  return tc;
}

std::vector<std::uint64_t> ParameterFingerprints(core::NerModel* model) {
  std::vector<std::uint64_t> prints;
  for (const Var& p : model->Parameters()) {
    prints.push_back(testsup::Fingerprint(p->value));
  }
  return prints;
}

// Results are compared for *bit* equality throughout this suite: the
// contract under test is "identical", not "close".
void ExpectSameExact(const eval::ExactResult& a, const eval::ExactResult& b) {
  EXPECT_EQ(a.micro.tp, b.micro.tp);
  EXPECT_EQ(a.micro.fp, b.micro.fp);
  EXPECT_EQ(a.micro.fn, b.micro.fn);
  EXPECT_EQ(a.macro_f1, b.macro_f1);
  ASSERT_EQ(a.per_type.size(), b.per_type.size());
  for (const auto& [type, prf] : a.per_type) {
    const auto it = b.per_type.find(type);
    ASSERT_NE(it, b.per_type.end()) << type;
    EXPECT_EQ(prf.tp, it->second.tp) << type;
    EXPECT_EQ(prf.fp, it->second.fp) << type;
    EXPECT_EQ(prf.fn, it->second.fn) << type;
  }
}

// One trained pipeline shared by the whole suite (training dominates the
// suite's runtime; the invariants are all inference-side).
class InvarianceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    runtime::Runtime::Get().SetThreads(1);
    split_ = new data::DataSplit(
        testsup::SmallSplit(data::Genre::kNews, 40, 12, 2024));
    auto config = testsup::TinyConfig("cnn", "crf", 9);
    pipeline_ = core::Pipeline::Train(config, TinyTrainConfig(),
                                      split_->train, &split_->dev,
                                      data::EntityTypesFor(data::Genre::kNews))
                    .release();
    ASSERT_NE(pipeline_, nullptr);
    reference_tags_ = pipeline_->TagCorpus(split_->test);
    reference_eval_ = pipeline_->Evaluate(split_->test);
  }

  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
    delete split_;
    split_ = nullptr;
    runtime::Runtime::Get().SetThreads(1);
  }

  void TearDown() override { runtime::Runtime::Get().SetThreads(1); }

  static data::DataSplit* split_;
  static core::Pipeline* pipeline_;
  static std::vector<std::vector<text::Span>> reference_tags_;
  static eval::ExactResult reference_eval_;
};

data::DataSplit* InvarianceTest::split_ = nullptr;
core::Pipeline* InvarianceTest::pipeline_ = nullptr;
std::vector<std::vector<text::Span>> InvarianceTest::reference_tags_;
eval::ExactResult InvarianceTest::reference_eval_;

TEST_F(InvarianceTest, PredictionsIdenticalAcrossThreadCounts) {
  for (const int threads : kThreadCounts) {
    runtime::Runtime::Get().SetThreads(threads);
    EXPECT_EQ(pipeline_->TagCorpus(split_->test), reference_tags_)
        << "threads=" << threads;
    ExpectSameExact(pipeline_->Evaluate(split_->test), reference_eval_);
    // Single-sentence path too (no sharding, but shares the kernels).
    EXPECT_EQ(pipeline_->Tag(split_->test.sentences[0].tokens),
              reference_tags_[0])
        << "threads=" << threads;
  }
}

TEST_F(InvarianceTest, SaveLoadRoundTripIsBitIdentical) {
  std::ostringstream out;
  ASSERT_TRUE(pipeline_->Save(out));
  std::istringstream in(out.str());
  const auto loaded = core::Pipeline::Load(in);
  ASSERT_NE(loaded, nullptr);

  EXPECT_EQ(ParameterFingerprints(loaded->model()),
            ParameterFingerprints(pipeline_->model()));
  EXPECT_EQ(loaded->TagCorpus(split_->test), reference_tags_);
  ExpectSameExact(loaded->Evaluate(split_->test), reference_eval_);

  // Round-tripping the loaded pipeline again yields the same bytes: the
  // format has a canonical encoding, nothing drifts per generation.
  std::ostringstream again;
  ASSERT_TRUE(loaded->Save(again));
  EXPECT_EQ(again.str(), out.str());
}

TEST_F(InvarianceTest, BatchOrderPermutationOnlyPermutesResults) {
  std::vector<int> perm(split_->test.sentences.size());
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(33);
  rng.Shuffle(&perm);

  text::Corpus permuted;
  for (const int i : perm) {
    permuted.sentences.push_back(split_->test.sentences[i]);
  }
  const auto tags = pipeline_->TagCorpus(permuted);
  ASSERT_EQ(tags.size(), reference_tags_.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(tags[i], reference_tags_[perm[i]]) << "sentence " << i;
  }
  // Exact-match counts are order-free, so evaluation must agree too.
  ExpectSameExact(pipeline_->Evaluate(permuted), reference_eval_);
}

TEST_F(InvarianceTest, PlannedAndEagerInferenceAgreeExactly) {
  // The suite's reference outputs were produced by the compiled-plan path;
  // the eager per-sentence oracle must reproduce them bit-for-bit.
  const core::NerModel& model = *pipeline_->model();
  const auto eager_tags = testsup::EagerPredictCorpus(model, split_->test);
  const auto eager_eval = testsup::EagerEvaluate(model, split_->test);
  EXPECT_EQ(eager_tags, reference_tags_);
  ExpectSameExact(eager_eval, reference_eval_);
}

TEST_F(InvarianceTest, PlannedPathIsThreadCountAndOrderInvariant) {
  // Same contracts as the suite-wide tests, stated directly for the plan
  // path that TagCorpus runs.
  for (const int threads : kThreadCounts) {
    runtime::Runtime::Get().SetThreads(threads);
    EXPECT_EQ(pipeline_->TagCorpus(split_->test), reference_tags_)
        << "threads=" << threads;
  }
  runtime::Runtime::Get().SetThreads(1);
  std::vector<int> perm(split_->test.sentences.size());
  std::iota(perm.begin(), perm.end(), 0);
  Rng rng(57);
  rng.Shuffle(&perm);
  text::Corpus permuted;
  for (const int i : perm) {
    permuted.sentences.push_back(split_->test.sentences[i]);
  }
  const auto tags = pipeline_->TagCorpus(permuted);
  ASSERT_EQ(tags.size(), reference_tags_.size());
  for (size_t i = 0; i < perm.size(); ++i) {
    EXPECT_EQ(tags[i], reference_tags_[perm[i]]) << "sentence " << i;
  }
}

// Satellite (b): two Train runs from identical seeds must agree on every
// parameter bit and every recorded metric.
TEST(SeededDeterminismTest, IdenticalSeedsYieldBitIdenticalTraining) {
  runtime::Runtime::Get().SetThreads(1);
  const auto split = testsup::SmallSplit(data::Genre::kNews, 25, 8, 501);
  const auto types = data::EntityTypesFor(data::Genre::kNews);
  const auto config = testsup::TinyConfig("mlp", "softmax", 13);
  core::TrainConfig tc = TinyTrainConfig();
  tc.epochs = 2;

  const auto a =
      core::Pipeline::Train(config, tc, split.train, &split.dev, types);
  const auto b =
      core::Pipeline::Train(config, tc, split.train, &split.dev, types);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);

  EXPECT_EQ(ParameterFingerprints(a->model()),
            ParameterFingerprints(b->model()));

  const core::TrainResult& ra = a->train_result();
  const core::TrainResult& rb = b->train_result();
  ASSERT_EQ(ra.history.size(), rb.history.size());
  for (size_t e = 0; e < ra.history.size(); ++e) {
    EXPECT_EQ(ra.history[e].train_loss, rb.history[e].train_loss)
        << "epoch " << e;
    EXPECT_EQ(ra.history[e].dev_f1, rb.history[e].dev_f1) << "epoch " << e;
  }
  EXPECT_EQ(ra.best_dev_f1, rb.best_dev_f1);
  EXPECT_EQ(ra.best_epoch, rb.best_epoch);
  EXPECT_EQ(ra.final_train_loss, rb.final_train_loss);

  EXPECT_EQ(a->TagCorpus(split.test), b->TagCorpus(split.test));
  ExpectSameExact(a->Evaluate(split.test), b->Evaluate(split.test));
}

}  // namespace
}  // namespace dlner
