#include <cmath>
#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "applied/active.h"
#include "applied/adversarial.h"
#include "applied/distant.h"
#include "applied/multitask.h"
#include "applied/nested.h"
#include "applied/transfer.h"
#include "data/dataset.h"
#include "decoders/crf.h"
#include "support/oracles.h"

namespace dlner::applied {
namespace {

using data::Genre;

core::NerConfig SmallConfig(uint64_t seed = 5) {
  core::NerConfig config;
  config.word_dim = 12;
  config.hidden_dim = 10;
  config.input_dropout = 0.1;
  config.seed = seed;
  return config;
}

core::TrainConfig FastTrain(int epochs) {
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = 0.02;
  return tc;
}

text::Corpus SmallNews(int n, uint64_t seed) {
  data::GenOptions opts;
  opts.num_sentences = n;
  opts.seed = seed;
  return data::GenerateCorpus(Genre::kNews, opts);
}

// --- Multi-task ---

TEST(MultiTaskTest, LmTermAddsToTrainingLoss) {
  text::Corpus corpus = SmallNews(20, 1);
  MultiTaskLmModel model(SmallConfig(), corpus,
                         data::EntityTypesFor(Genre::kNews), 0.5);
  const text::Sentence& s = corpus.sentences[0];
  // Training loss includes the LM term; eval loss does not.
  const double train_loss = model.Loss(s, /*training=*/true)->value[0];
  const double eval_loss = model.Loss(s, /*training=*/false)->value[0];
  EXPECT_GT(train_loss, eval_loss);
}

TEST(MultiTaskTest, HasExtraParametersAndTrains) {
  text::Corpus corpus = SmallNews(30, 2);
  core::NerModel plain(SmallConfig(), corpus,
                       data::EntityTypesFor(Genre::kNews));
  MultiTaskLmModel mtl(SmallConfig(), corpus,
                       data::EntityTypesFor(Genre::kNews), 0.3);
  EXPECT_GT(mtl.ParameterCount(), plain.ParameterCount());
  core::Trainer trainer(&mtl, FastTrain(3));
  core::TrainResult r = trainer.Train(corpus, nullptr);
  EXPECT_LT(r.history.back().train_loss, r.history.front().train_loss);
}

TEST(MultiTaskTest, ZeroWeightMatchesPlainLoss) {
  text::Corpus corpus = SmallNews(10, 3);
  core::NerConfig config = SmallConfig();
  config.input_dropout = 0.0;  // make train/eval passes deterministic
  MultiTaskLmModel model(config, corpus,
                         data::EntityTypesFor(Genre::kNews), 0.0);
  const text::Sentence& s = corpus.sentences[0];
  EXPECT_DOUBLE_EQ(model.Loss(s, true)->value[0],
                   model.Loss(s, false)->value[0]);
}

TEST(BoundaryMultiTaskTest, AuxHeadDetectsUntypedBoundaries) {
  text::Corpus corpus = SmallNews(60, 41);
  MultiTaskBoundaryModel model(SmallConfig(), corpus,
                               data::EntityTypesFor(Genre::kNews),
                               /*boundary_weight=*/0.5);
  core::Trainer trainer(&model, FastTrain(6));
  trainer.Train(corpus, nullptr);
  // The auxiliary head must recover most gold boundaries (untyped).
  int tp = 0, total = 0;
  for (int i = 0; i < 20; ++i) {
    const auto& s = corpus.sentences[i];
    auto predicted = model.PredictBoundaries(s.tokens);
    std::set<std::pair<int, int>> pred_set;
    for (const auto& sp : predicted) pred_set.insert({sp.start, sp.end});
    for (const auto& g : s.spans) {
      ++total;
      if (pred_set.count({g.start, g.end}) > 0) ++tp;
    }
  }
  EXPECT_GT(static_cast<double>(tp) / total, 0.7);
}

TEST(BoundaryMultiTaskTest, TrainingLossIncludesAuxTerm) {
  text::Corpus corpus = SmallNews(10, 42);
  core::NerConfig config = SmallConfig();
  config.input_dropout = 0.0;
  MultiTaskBoundaryModel model(config, corpus,
                               data::EntityTypesFor(Genre::kNews), 0.5);
  const auto& s = corpus.sentences[0];
  EXPECT_GT(model.Loss(s, true)->value[0], model.Loss(s, false)->value[0]);
}

// --- Transfer ---

TEST(TransferTest, CopyMatchingParametersByNameAndShape) {
  text::Corpus source_corpus = SmallNews(30, 4);
  text::Corpus target_corpus = SmallNews(10, 5);
  core::NerModel source(SmallConfig(7), source_corpus,
                        data::EntityTypesFor(Genre::kNews));
  core::NerModel target(SmallConfig(8), target_corpus,
                        data::EntityTypesFor(Genre::kNews));
  const int copied = CopyMatchingParameters(source, &target);
  // Encoder and decoder shapes match (same config, same label set); the
  // word embedding tables have different vocab sizes and are skipped.
  EXPECT_GT(copied, 0);
  // Encoder parameters actually carried over.
  const auto src_enc = source.encoder()->Parameters();
  const auto tgt_enc = target.encoder()->Parameters();
  ASSERT_EQ(src_enc.size(), tgt_enc.size());
  for (size_t i = 0; i < src_enc.size(); ++i) {
    for (int j = 0; j < src_enc[i]->value.size(); ++j) {
      EXPECT_DOUBLE_EQ(tgt_enc[i]->value[j], src_enc[i]->value[j]);
    }
  }
}

TEST(TransferTest, FineTuneModelReusesVocabulary) {
  text::Corpus source_corpus = SmallNews(30, 6);
  core::NerModel source(SmallConfig(), source_corpus,
                        data::EntityTypesFor(Genre::kNews));
  auto target = MakeFineTuneModel(source, SmallConfig(),
                                  data::EntityTypesFor(Genre::kNews));
  EXPECT_EQ(target->word_vocab().size(), source.word_vocab().size());
  // Word embedding table transfers because vocabularies match.
  const auto& src_rep = source.representation()->Parameters();
  const auto& tgt_rep = target->representation()->Parameters();
  ASSERT_EQ(src_rep.size(), tgt_rep.size());
  EXPECT_DOUBLE_EQ(tgt_rep[0]->value[0], src_rep[0]->value[0]);
}

TEST(TransferTest, DifferentLabelSetSkipsDecoder) {
  text::Corpus source_corpus = SmallNews(20, 7);
  core::NerModel source(SmallConfig(), source_corpus,
                        data::EntityTypesFor(Genre::kNews));
  // Bio types: different tag-set size -> decoder projection shape differs.
  auto target = MakeFineTuneModel(source, SmallConfig(),
                                  data::EntityTypesFor(Genre::kBio));
  const auto src_dec = source.decoder()->Parameters();
  const auto tgt_dec = target->decoder()->Parameters();
  // Shapes differ so values must NOT have been copied.
  EXPECT_NE(src_dec[0]->value.size(), tgt_dec[0]->value.size());
}

TEST(TransferTest, FrozenModulesDoNotMove) {
  text::Corpus corpus = SmallNews(15, 8);
  core::NerModel model(SmallConfig(), corpus,
                       data::EntityTypesFor(Genre::kNews));
  FreezeModules(&model, /*freeze_representation=*/true,
                /*freeze_encoder=*/true);
  const Tensor before = model.encoder()->Parameters()[0]->value;
  core::Trainer trainer(&model, FastTrain(2));
  trainer.Train(corpus, nullptr);
  const Tensor after = model.encoder()->Parameters()[0]->value;
  for (int i = 0; i < before.size(); ++i) {
    EXPECT_DOUBLE_EQ(after[i], before[i]);
  }
  // Decoder still moved.
  EXPECT_GT(model.decoder()->Parameters()[0]->grad.size(), 0);
}

// --- Active learning ---

TEST(ActiveTest, RunsAndGrowsLabeledSet) {
  text::Corpus pool = SmallNews(60, 9);
  text::Corpus test = SmallNews(20, 10);
  core::NerModel model(SmallConfig(), pool,
                       data::EntityTypesFor(Genre::kNews));
  ActiveConfig config;
  config.seed_size = 10;
  config.batch_size = 10;
  config.rounds = 3;
  config.train = FastTrain(2);
  ActiveLearner learner(&model, config);
  auto history = learner.Run(pool, test);
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[0].labeled_sentences, 10);
  EXPECT_EQ(history[3].labeled_sentences, 40);
  EXPECT_GT(history[3].test_f1, history[0].test_f1 - 0.05);
}

TEST(ActiveTest, UncertaintyIsNonNegative) {
  text::Corpus pool = SmallNews(10, 11);
  core::NerModel model(SmallConfig(), pool,
                       data::EntityTypesFor(Genre::kNews));
  ActiveConfig config;
  config.train = FastTrain(1);
  ActiveLearner learner(&model, config);
  const std::vector<double> scores = learner.Uncertainty(pool);
  ASSERT_EQ(static_cast<int>(scores.size()), pool.size());
  for (const double u : scores) EXPECT_GE(u, -1e-9);
}

// Least confidence tags the whole set in one planned pass; each score is
// still the loss of the sentence relabeled with the eager prediction.
TEST(ActiveTest, LeastConfidenceScoresTheTaggersOwnPrediction) {
  text::Corpus pool = SmallNews(12, 17);
  core::NerModel model(SmallConfig(), pool,
                       data::EntityTypesFor(Genre::kNews));
  ActiveConfig config;
  config.train = FastTrain(1);
  ActiveLearner learner(&model, config);
  const std::vector<double> scores = learner.Uncertainty(pool);
  ASSERT_EQ(static_cast<int>(scores.size()), pool.size());
  for (int i = 0; i < pool.size(); ++i) {
    text::Sentence self = pool.sentences[i];
    self.spans = testsup::EagerPredict(model, self.tokens);
    EXPECT_EQ(scores[i], model.Loss(self, /*training=*/false)->value[0])
        << "sentence " << i;
  }
}

// The entropy strategy scores the encoding the tagger itself uses: for the
// recursive encoder that is the punctuation-heuristic bracketing of
// EncodeTokens, which differs from a balanced tree on this sentence.
TEST(ActiveTest, EntropyUsesTheTaggersBrnnBracketing) {
  text::Corpus pool = SmallNews(10, 13);
  core::NerConfig model_config = SmallConfig();
  model_config.encoder = "brnn";
  model_config.decoder = "crf";
  core::NerModel model(model_config, pool,
                       data::EntityTypesFor(Genre::kNews));
  ActiveConfig config;
  config.strategy = "entropy";
  ActiveLearner learner(&model, config);

  text::Sentence s;
  s.tokens = {"Maria", "Lopez", ",", "a",     "director", "at",
              "Acme",  "Corp",  ",", "spoke", "in",       "Lyon", "."};
  auto* crf = dynamic_cast<decoders::CrfDecoder*>(model.decoder());
  ASSERT_NE(crf, nullptr);
  const Var rep = model.Represent(s.tokens, /*training=*/false);
  const Var enc = model.EncodeTokens(rep, s.tokens, /*training=*/false);
  const Tensor marginals = crf->Marginals(crf->Emissions(enc)->value);
  double entropy = 0.0;
  for (int t = 0; t < marginals.rows(); ++t) {
    for (int k = 0; k < marginals.cols(); ++k) {
      const double p = marginals.at(t, k);
      if (p > 1e-12) entropy -= p * std::log(p);
    }
  }
  text::Corpus one;
  one.sentences.push_back(s);
  EXPECT_DOUBLE_EQ(learner.Uncertainty(one)[0], entropy / marginals.rows());
}

// --- Adversarial ---

AdversarialNerModel SmallAdversarial(const text::Corpus& corpus,
                                     Float epsilon) {
  return AdversarialNerModel(SmallConfig(), corpus,
                             data::EntityTypesFor(Genre::kNews), epsilon,
                             /*adv_weight=*/1.0);
}

TEST(AdversarialTest, PerturbationHasEpsilonNorm) {
  text::Corpus corpus = SmallNews(10, 12);
  AdversarialNerModel model = SmallAdversarial(corpus, 0.25);
  Tensor eta = model.ComputePerturbation(corpus.sentences[0]);
  EXPECT_NEAR(eta.Norm(), 0.25, 1e-9);
}

TEST(AdversarialTest, PerturbationIncreasesLoss) {
  text::Corpus corpus = SmallNews(20, 13);
  AdversarialNerModel model = SmallAdversarial(corpus, 0.5);
  // Brief training so gradients are meaningful.
  core::Trainer warm(&model, FastTrain(2));
  warm.Train(corpus, nullptr);

  int increased = 0, total = 0;
  for (int i = 0; i < 10; ++i) {
    const text::Sentence& s = corpus.sentences[i];
    Tensor eta = model.ComputePerturbation(s);
    // Evaluate loss without dropout for a clean comparison.
    Var rep_clean = model.Represent(s.tokens, false);
    const double clean =
        model.LossFromRepresentation(rep_clean, s, false)->value[0];
    Var rep_adv = Add(model.Represent(s.tokens, false), Constant(eta));
    const double perturbed =
        model.LossFromRepresentation(rep_adv, s, false)->value[0];
    ++total;
    if (perturbed > clean) ++increased;
  }
  // The FGSM direction must raise the loss in the large majority of cases.
  EXPECT_GE(increased, total - 2);
}

TEST(AdversarialTest, TrainingDecreasesLoss) {
  text::Corpus corpus = SmallNews(20, 14);
  AdversarialNerModel model = SmallAdversarial(corpus, 0.5);
  core::Trainer trainer(&model, FastTrain(1));
  const double l1 = trainer.Train(corpus, nullptr).final_train_loss;
  for (int e = 0; e < 3; ++e) trainer.Train(corpus, nullptr);
  const double l2 = trainer.Train(corpus, nullptr).final_train_loss;
  EXPECT_LT(l2, l1);
}

TEST(AdversarialTest, LossOverrideMatchesTheInlineAdversarialStep) {
  text::Corpus corpus = SmallNews(16, 15);
  core::NerConfig config = SmallConfig();
  config.use_char_cnn = true;
  config.word_unk_dropout = 0.2;
  const core::TrainConfig tc = FastTrain(3);
  const Float epsilon = 0.6, adv_weight = 0.7;
  const auto types = data::EntityTypesFor(Genre::kNews);

  // Oracle: the adversarial epoch written out by hand on a plain model —
  // the perturbation pass and its Backward, then one combined clean +
  // adversarial step per sentence.
  core::NerModel oracle(config, corpus, types);
  std::unique_ptr<Optimizer> opt =
      MakeOptimizer(tc.optimizer, oracle.Parameters(), tc.lr);
  Rng shuffle(tc.shuffle_seed);
  for (int epoch = 0; epoch < tc.epochs; ++epoch) {
    std::vector<int> order(corpus.sentences.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    shuffle.Shuffle(&order);
    for (int idx : order) {
      const text::Sentence& s = corpus.sentences[idx];
      if (s.size() == 0) continue;
      Var probe = oracle.Represent(s.tokens, true);
      Backward(oracle.LossFromRepresentation(probe, s, true));
      Tensor eta = probe->grad;
      const Float norm = eta.Norm();
      if (norm > 0.0) {
        for (int i = 0; i < eta.size(); ++i) eta[i] *= epsilon / norm;
      }
      opt->ZeroGrad();
      Var clean = oracle.LossFromRepresentation(
          oracle.Represent(s.tokens, true), s, true);
      Var adv_rep =
          Add(oracle.Represent(s.tokens, true), Constant(std::move(eta)));
      Var adv = oracle.LossFromRepresentation(adv_rep, s, true);
      Backward(Add(clean, Scale(adv, adv_weight)));
      opt->ClipGradNorm(tc.clip_norm);
      opt->Step();
    }
  }

  AdversarialNerModel model(config, corpus, types, epsilon, adv_weight);
  core::Trainer trainer(&model, tc);
  trainer.Train(corpus, nullptr);

  const std::vector<Var> want = oracle.Parameters();
  const std::vector<Var> got = model.Parameters();
  ASSERT_EQ(got.size(), want.size());
  for (size_t p = 0; p < want.size(); ++p) {
    ASSERT_EQ(got[p]->value.size(), want[p]->value.size()) << got[p]->name;
    EXPECT_EQ(std::memcmp(got[p]->value.data(), want[p]->value.data(),
                          sizeof(Float) * want[p]->value.size()),
              0)
        << got[p]->name;
  }
}

// --- Distant supervision / RL ---

TEST(DistantTest, SelectorRunsAndRecordsEpisodes) {
  text::Corpus clean = SmallNews(60, 15);
  data::DataSplit split = data::SplitCorpus(clean, 0.6, 0.2, 3);
  text::Corpus noisy = data::CorruptLabels(
      split.train, 0.4, data::EntityTypesFor(Genre::kNews), 7);

  DistantConfig config;
  config.episodes = 2;
  config.warmup_epochs = 1;
  config.episode_epochs = 1;
  config.final_epochs = 2;
  config.model_config = SmallConfig();
  config.train = FastTrain(2);
  InstanceSelector selector(config);
  DistantResult result =
      selector.Run(noisy, split.dev, split.test,
                   data::EntityTypesFor(Genre::kNews));
  EXPECT_EQ(result.episode_rewards.size(), 2u);
  EXPECT_EQ(result.keep_fractions.size(), 2u);
  EXPECT_GE(result.f1_selected, 0.0);
  EXPECT_GE(result.f1_all_data, 0.0);
  EXPECT_EQ(result.policy_weights.size(), 3u);
}

// --- Nested NER ---

TEST(NestedTest, SplitLevelsPeelsInnermostFirst) {
  text::Corpus corpus;
  // "University of Singapore" with inner LOC.
  corpus.sentences.push_back(
      {{"University", "of", "Singapore", "opened"},
       {{0, 3, "ORG"}, {2, 3, "LOC"}}});
  auto levels = SplitNestingLevels(corpus, 3);
  ASSERT_EQ(levels.size(), 3u);
  ASSERT_EQ(levels[0].sentences[0].spans.size(), 1u);
  EXPECT_EQ(levels[0].sentences[0].spans[0].type, "LOC");
  ASSERT_EQ(levels[1].sentences[0].spans.size(), 1u);
  EXPECT_EQ(levels[1].sentences[0].spans[0].type, "ORG");
  EXPECT_TRUE(levels[2].sentences[0].spans.empty());
}

TEST(NestedTest, FlatCorpusFitsInLevelZero) {
  text::Corpus corpus;
  corpus.sentences.push_back(
      {{"a", "b", "c"}, {{0, 1, "X"}, {2, 3, "Y"}}});
  auto levels = SplitNestingLevels(corpus);
  EXPECT_EQ(levels[0].sentences[0].spans.size(), 2u);
  EXPECT_TRUE(levels[1].sentences[0].spans.empty());
}

TEST(NestedTest, LevelsAreFlatAndCoverAllSpans) {
  data::GenOptions opts;
  opts.num_sentences = 60;
  opts.seed = 16;
  text::Corpus corpus = data::GenerateCorpus(Genre::kNested, opts);
  auto levels = SplitNestingLevels(corpus);
  int covered = 0;
  for (size_t l = 0; l < levels.size(); ++l) {
    for (const auto& s : levels[l].sentences) {
      EXPECT_TRUE(text::SpansAreFlat(s.spans));
      covered += static_cast<int>(s.spans.size());
    }
  }
  EXPECT_EQ(covered, corpus.EntityCount());
}

TEST(NestedTest, LayeredModelRecoversNestedMentions) {
  data::GenOptions opts;
  opts.num_sentences = 80;
  opts.seed = 17;
  text::Corpus corpus = data::GenerateCorpus(Genre::kNested, opts);
  data::DataSplit split = data::SplitCorpus(corpus, 0.75, 0.0, 4);

  LayeredNerModel layered(SmallConfig(),
                          data::EntityTypesFor(Genre::kNested));
  layered.Train(split.train, FastTrain(5));
  EXPECT_GE(layered.num_levels(), 2);
  eval::ExactResult result = layered.Evaluate(split.test);
  EXPECT_GT(result.micro.f1(), 0.4);
}

// Evaluate runs through the planned PredictCorpus, which maps an empty
// sentence to no spans (the eager per-sentence Predict rejects it).
TEST(NestedTest, LayeredEvaluateAcceptsEmptySentences) {
  data::GenOptions opts;
  opts.num_sentences = 30;
  opts.seed = 18;
  text::Corpus corpus = data::GenerateCorpus(Genre::kNested, opts);
  LayeredNerModel layered(SmallConfig(),
                          data::EntityTypesFor(Genre::kNested));
  layered.Train(corpus, FastTrain(1));

  text::Corpus with_empty = corpus;
  with_empty.sentences.insert(with_empty.sentences.begin() + 3,
                              text::Sentence{});
  const std::vector<std::vector<text::Span>> predicted =
      layered.PredictCorpus(with_empty);
  ASSERT_EQ(predicted.size(), with_empty.sentences.size());
  EXPECT_TRUE(predicted[3].empty());
  for (std::size_t i = 0; i < corpus.sentences.size(); ++i) {
    const std::size_t j = i < 3 ? i : i + 1;
    EXPECT_EQ(predicted[j], layered.Predict(corpus.sentences[i].tokens));
  }
  const eval::ExactResult plain = layered.Evaluate(corpus);
  const eval::ExactResult padded = layered.Evaluate(with_empty);
  EXPECT_EQ(padded.micro.tp, plain.micro.tp);
  EXPECT_EQ(padded.micro.fp, plain.micro.fp);
  EXPECT_EQ(padded.micro.fn, plain.micro.fn);
}

}  // namespace
}  // namespace dlner::applied
