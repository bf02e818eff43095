// Entity boundary detection as a dedicated subtask (survey Section 5.2's
// future direction: "define named entity boundary detection as a dedicated
// task to detect NE boundaries while ignoring the NE types", and Section
// 4.1's segmentation/categorization multi-task decomposition).
//
// A MultiTaskBoundaryModel trains the typed tagger and an untyped B/I/O
// boundary head on a shared encoder. The example reports:
//   * typed exact-match F1 of the main head,
//   * untyped boundary F1 of the auxiliary head (the "robust recognizer
//     shared across domains" the survey envisions),
//   * a paired significance test between the multi-task model and a
//     plain single-task baseline.
#include <cstdio>

#include "applied/multitask.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "eval/metrics.h"

int main() {
  using namespace dlner;

  text::Corpus corpus = data::MakeDataset("conll-like", 400, 61);
  data::DataSplit split = data::SplitCorpus(corpus, 0.75, 0.0, 62);
  const auto& types = data::EntityTypesFor(data::Genre::kNews);

  core::NerConfig config;
  config.use_char_cnn = true;
  config.word_unk_dropout = 0.2;
  core::TrainConfig tc;
  tc.epochs = 10;
  tc.lr = 0.015;

  // Plain single-task baseline.
  core::NerModel baseline(config, split.train, types);
  {
    core::Trainer trainer(&baseline, tc);
    trainer.Train(split.train, nullptr);
  }

  // Multi-task: typed NER + untyped boundary detection.
  core::NerConfig mtl_config = config;
  mtl_config.seed = 63;
  applied::MultiTaskBoundaryModel mtl(mtl_config, split.train, types,
                                      /*boundary_weight=*/0.5);
  {
    core::Trainer trainer(&mtl, tc);
    trainer.Train(split.train, nullptr);
  }

  // Typed evaluation + prediction collection for the significance test.
  const std::vector<std::vector<text::Span>> pred_base =
      baseline.PredictCorpus(split.test);
  const std::vector<std::vector<text::Span>> pred_mtl =
      mtl.PredictCorpus(split.test);
  std::vector<std::vector<text::Span>> gold;
  eval::ExactMatchEvaluator boundary_eval;
  for (const text::Sentence& s : split.test.sentences) {
    gold.push_back(s.spans);
    // Untyped boundary evaluation of the dedicated head.
    std::vector<text::Span> untyped_gold = s.spans;
    for (text::Span& sp : untyped_gold) sp.type = "ENT";
    boundary_eval.Add(untyped_gold, mtl.PredictBoundaries(s.tokens));
  }

  const double f1_base = eval::EvaluateExact(gold, pred_base).micro.f1();
  const double f1_mtl = eval::EvaluateExact(gold, pred_mtl).micro.f1();
  const double f1_boundary = boundary_eval.Result().micro.f1();
  const double p_value =
      eval::ApproximateRandomizationPValue(gold, pred_mtl, pred_base,
                                           /*trials=*/1000, /*seed=*/64);

  std::printf("%-44s %8s\n", "model", "test F1");
  std::printf("%-44s %8.3f\n", "single-task typed NER", f1_base);
  std::printf("%-44s %8.3f\n", "multi-task typed NER (+boundary aux)",
              f1_mtl);
  std::printf("%-44s %8.3f\n",
              "dedicated boundary head (untyped B/I/O)", f1_boundary);
  std::printf(
      "\npaired approximate-randomization test (multi-task vs single-task):\n"
      "  |delta F1| = %.3f, p = %.3f %s\n",
      std::abs(f1_mtl - f1_base), p_value,
      p_value < 0.05 ? "(significant at 0.05)"
                     : "(not significant at 0.05)");
  std::printf(
      "\nTakeaway: boundary detection is easier than typed NER (no type\n"
      "confusion), matching the survey's argument for decoupling boundary\n"
      "detection from type classification (Section 5.2).\n");
  return 0;
}
