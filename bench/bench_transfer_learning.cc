// E9 — Section 4.2: deep transfer learning under low-resource conditions.
//
// Yang et al. (quoted by the survey) report "significant improvements on
// various datasets under low-resource conditions" from parameter-sharing
// transfer. Source domain: formal news. Target domain: noisy social media
// with a different label set (so decoder parameters cannot transfer —
// Yang's non-mappable case). We sweep the target training size and compare
// from-scratch, fine-tuned, and frozen-encoder variants.
#include "bench/bench_common.h"

#include "applied/transfer.h"

int main() {
  using namespace dlner;
  using namespace dlner::bench;

  PrintHeader("E9: cross-domain transfer learning (survey Section 4.2)");

  core::NerConfig config;
  config.use_char_cnn = true;
  config.word_unk_dropout = 0.2;
  config.seed = 81;
  core::TrainConfig tc;
  tc.epochs = 10;
  tc.lr = 0.015;

  // Source model on abundant news data.
  text::Corpus source_corpus = data::MakeDataset("conll-like", 400, 82);
  core::NerModel source(config, source_corpus,
                        data::EntityTypesFor(data::Genre::kNews));
  {
    core::Trainer trainer(&source, tc);
    trainer.Train(source_corpus, nullptr);
  }

  data::DataSplit target = data::MakeOovSplit(data::Genre::kSocial, 200, 120,
                                              83, /*test_oov=*/0.2);
  const auto& target_types = data::EntityTypesFor(data::Genre::kSocial);

  std::printf("%8s %12s %12s %16s\n", "#target", "scratch", "fine-tune",
              "frozen-encoder");
  for (int size : {10, 25, 50, 100, 200}) {
    text::Corpus small;
    for (int i = 0; i < size && i < target.train.size(); ++i) {
      small.sentences.push_back(target.train.sentences[i]);
    }

    core::NerConfig scratch_config = config;
    scratch_config.seed = 90 + size;
    core::NerModel scratch(scratch_config, small, target_types);
    {
      core::Trainer trainer(&scratch, tc);
      trainer.Train(small, nullptr);
    }

    auto tuned = applied::MakeFineTuneModel(source, config, target_types);
    {
      core::Trainer trainer(tuned.get(), tc);
      trainer.Train(small, nullptr);
    }

    auto frozen = applied::MakeFineTuneModel(source, config, target_types);
    applied::FreezeModules(frozen.get(), /*freeze_representation=*/false,
                           /*freeze_encoder=*/true);
    {
      core::Trainer trainer(frozen.get(), tc);
      trainer.Train(small, nullptr);
    }

    std::printf("%8d %12.3f %12.3f %16.3f\n", size,
                scratch.Evaluate(target.test).micro.f1(),
                tuned->Evaluate(target.test).micro.f1(),
                frozen->Evaluate(target.test).micro.f1());
  }
  std::printf(
      "\nShape check vs the paper: transfer dominates at the smallest\n"
      "target sizes and the advantage shrinks as target data grows; full\n"
      "fine-tuning beats a frozen encoder once enough target data exists\n"
      "(survey Section 4.2).\n");
  return 0;
}
