// E12 — Section 4.4: reinforcement-learned instance selection for
// distantly supervised NER (Yang et al. 2018).
//
// Distant supervision: annotate raw text by gazetteer matching with partial
// coverage, producing noisy labels (missed entities + additional corruption).
// The RL instance selector learns to keep sentences whose noisy labels are
// trustworthy, "reducing the effect of noisy annotation".
#include "bench/bench_common.h"

#include "applied/distant.h"

int main() {
  using namespace dlner;
  using namespace dlner::bench;

  PrintHeader("E12: RL instance selection for distant supervision "
              "(survey Section 4.4)");

  const auto genre = data::Genre::kNews;
  const auto& types = data::EntityTypesFor(genre);

  // Clean corpora for dev/test and as the distant-supervision source.
  data::DataSplit bd =
      data::MakeOovSplit(genre, 300, 120, 121, /*test_oov=*/0.2);

  // Distant supervision: a 55%-coverage gazetteer annotates raw training
  // text; remaining gold structure is discarded.
  data::Gazetteer gazetteer =
      data::Gazetteer::FromCorpus(bd.train, /*coverage=*/0.55, 122);
  text::Corpus noisy;
  for (const text::Sentence& s : bd.train.sentences) {
    text::Sentence distant;
    distant.tokens = s.tokens;
    distant.spans = gazetteer.Annotate(s.tokens);
    noisy.sentences.push_back(std::move(distant));
  }
  // Additional boundary/type corruption on top of the coverage gaps.
  noisy = data::CorruptLabels(noisy, 0.15, types, 123);

  eval::ExactMatchEvaluator noise_ev;
  for (size_t i = 0; i < noisy.sentences.size(); ++i) {
    noise_ev.Add(bd.train.sentences[i].spans, noisy.sentences[i].spans);
  }
  std::printf("noisy-label quality vs gold: F1=%.3f\n\n",
              noise_ev.Result().micro.f1());

  // Clean-data upper bound.
  core::NerConfig config;
  config.seed = 124;
  core::TrainConfig tc;
  tc.epochs = 8;
  tc.lr = 0.015;
  double clean_f1;
  {
    core::NerModel model(config, bd.train, types);
    core::Trainer trainer(&model, tc);
    trainer.Train(bd.train, nullptr);
    clean_f1 = model.Evaluate(bd.test).micro.f1();
  }

  applied::DistantConfig dcfg;
  dcfg.episodes = 8;
  dcfg.warmup_epochs = 4;
  dcfg.episode_epochs = 3;
  dcfg.final_epochs = 8;
  dcfg.policy_lr = 0.3;
  dcfg.model_config = config;
  dcfg.train = tc;
  applied::InstanceSelector selector(dcfg);
  applied::DistantResult result = selector.Run(noisy, bd.dev, bd.test, types);

  std::printf("%-36s %10s\n", "training data", "test F1");
  std::printf("%-36s %10.3f\n", "clean gold labels (upper bound)", clean_f1);
  std::printf("%-36s %10.3f\n", "all noisy distant labels",
              result.f1_all_data);
  std::printf("%-36s %10.3f\n", "RL-selected noisy subset",
              result.f1_selected);
  std::printf("\nepisodes: ");
  for (size_t e = 0; e < result.episode_rewards.size(); ++e) {
    std::printf("[R=%.3f keep=%.0f%%] ", result.episode_rewards[e],
                100.0 * result.keep_fractions[e]);
  }
  std::printf(
      "\n\nShape check vs the paper: the dev-gated selection trains a tagger\n"
      "at or above the all-noisy baseline and below the clean upper bound\n"
      "(survey Section 4.4).\n");
  return 0;
}
