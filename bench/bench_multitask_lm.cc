// E10 — Section 4.1: multi-task learning with an auxiliary LM objective.
//
// Rei (2017), quoted by the survey: "by including an unsupervised language
// modeling objective in the training process, the sequence labeling model
// achieves consistent performance improvement". The regularization effect
// is strongest when the labeled set is small, so we sweep training size.
#include "bench/bench_common.h"

#include "applied/multitask.h"

int main() {
  using namespace dlner;
  using namespace dlner::bench;

  PrintHeader("E10: auxiliary LM objective (survey Section 4.1, Fig. 9)");

  const auto genre = data::Genre::kNews;
  const auto& types = data::EntityTypesFor(genre);
  data::DataSplit bd =
      data::MakeOovSplit(genre, 300, 120, 91, /*test_oov=*/0.3);

  // Both variants train with dev-based early stopping to their own best
  // epoch (the auxiliary objective changes convergence speed, so a fixed
  // epoch budget would conflate regularization with undertraining).
  core::TrainConfig tc;
  tc.epochs = 16;
  tc.lr = 0.015;
  tc.patience = 4;

  std::printf("%8s %14s %18s %8s\n", "#train", "NER only F1",
              "NER + LM obj F1", "delta");
  for (int size : {25, 50, 100, 200, 300}) {
    text::Corpus small;
    for (int i = 0; i < size && i < bd.train.size(); ++i) {
      small.sentences.push_back(bd.train.sentences[i]);
    }

    core::NerConfig config;
    config.seed = 100 + size;
    core::NerModel plain(config, small, types);
    {
      core::Trainer trainer(&plain, tc);
      trainer.Train(small, &bd.dev);
    }
    const double f1_plain = plain.Evaluate(bd.test).micro.f1();

    applied::MultiTaskLmModel mtl(config, small, types, /*lm_weight=*/0.1);
    {
      core::Trainer trainer(&mtl, tc);
      trainer.Train(small, &bd.dev);
    }
    const double f1_mtl = mtl.Evaluate(bd.test).micro.f1();

    std::printf("%8d %14.3f %18.3f %+8.3f\n", size, f1_plain, f1_mtl,
                f1_mtl - f1_plain);
  }
  std::printf(
      "\nShape check vs the paper: the LM-augmented model matches or beats\n"
      "the plain model, with the largest gains at the smallest training\n"
      "sizes (survey Section 4.1 / Rei 2017).\n");
  return 0;
}
