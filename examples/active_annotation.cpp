// Deep active learning for annotation budgeting (survey Section 4.3; Shen
// et al. 2017): uncertainty sampling with incremental training reaches
// near-full-data accuracy with a fraction of the labels.
#include <cstdio>

#include "applied/active.h"
#include "data/dataset.h"

int main() {
  using namespace dlner;

  text::Corpus corpus = data::MakeDataset("conll-like", 500, 21);
  data::DataSplit split = data::SplitCorpus(corpus, 0.8, 0.0, 22);

  core::NerConfig config;
  config.encoder = "bilstm";
  config.decoder = "crf";

  // Full-data reference model.
  core::TrainConfig full_tc;
  full_tc.epochs = 10;
  full_tc.lr = 0.015;
  core::NerModel full_model(config, split.train,
                            data::EntityTypesFor(data::Genre::kNews));
  core::Trainer full_trainer(&full_model, full_tc);
  full_trainer.Train(split.train, nullptr);
  const double full_f1 = full_model.Evaluate(split.test).micro.f1();
  std::printf("full-data model (%d sentences): F1 = %.3f\n\n",
              split.train.size(), full_f1);

  applied::ActiveConfig active_config;
  active_config.seed_size = 25;
  active_config.batch_size = 25;
  active_config.rounds = 8;
  active_config.train.epochs = 4;
  active_config.train.lr = 0.015;

  core::NerConfig al_config = config;
  al_config.seed = 77;
  core::NerModel al_model(al_config, split.train,
                          data::EntityTypesFor(data::Genre::kNews));
  applied::ActiveLearner learner(&al_model, active_config);
  auto history = learner.Run(split.train, split.test);

  std::printf("%6s %9s %8s %10s %14s\n", "round", "#labeled", "%pool",
              "test F1", "% of full F1");
  for (const auto& round : history) {
    std::printf("%6d %9d %7.1f%% %10.3f %13.1f%%\n", round.round,
                round.labeled_sentences, 100.0 * round.labeled_fraction,
                round.test_f1, 100.0 * round.test_f1 / full_f1);
  }
  std::printf(
      "\nExpected shape: the curve approaches ~99%% of the full-data F1 with\n"
      "a quarter-to-half of the pool labeled (survey Section 4.3).\n");
  return 0;
}
