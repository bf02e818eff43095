// E11 — Section 4.5: adversarial training (DATNet-style FGSM perturbation).
//
// The survey: "the classifier is trained on the mixture of original and
// adversarial examples to improve generalization". We compare clean
// training with adversarial training, evaluating on a clean test split and
// on a character-noised split (typos + lowercasing), where robustness to
// input perturbation matters most.
#include "bench/bench_common.h"

#include "applied/adversarial.h"

int main() {
  using namespace dlner;
  using namespace dlner::bench;

  PrintHeader("E11: adversarial training (survey Section 4.5)");

  const auto genre = data::Genre::kNews;
  const auto& types = data::EntityTypesFor(genre);

  data::GenOptions train_opts;
  train_opts.num_sentences = 200;
  train_opts.seed = 111;
  text::Corpus train = data::GenerateCorpus(genre, train_opts);

  data::GenOptions clean_opts = train_opts;
  clean_opts.num_sentences = 120;
  clean_opts.seed = 112;
  clean_opts.oov_entity_fraction = 0.3;
  text::Corpus clean_test = data::GenerateCorpus(genre, clean_opts);

  data::GenOptions noisy_opts = clean_opts;
  noisy_opts.seed = 113;
  noisy_opts.typo_prob = 0.06;
  noisy_opts.lowercase_prob = 0.3;
  text::Corpus noisy_test = data::GenerateCorpus(genre, noisy_opts);

  core::TrainConfig tc;
  tc.lr = 0.015;
  tc.epochs = 8;

  core::NerConfig config;
  config.use_char_cnn = true;
  config.word_unk_dropout = 0.2;
  config.seed = 114;

  // Clean training.
  core::NerModel clean_model(config, train, types);
  {
    core::Trainer trainer(&clean_model, tc);
    trainer.Train(train, nullptr);
  }

  // Adversarial training (same budget of epochs).
  core::NerConfig adv_config = config;
  adv_config.seed = 115;
  applied::AdversarialNerModel adv_model(adv_config, train, types,
                                        /*epsilon=*/0.6, /*adv_weight=*/1.0);
  {
    core::Trainer trainer(&adv_model, tc);
    trainer.Train(train, nullptr);
  }

  std::printf("%-24s %12s %14s\n", "training", "clean F1", "noised F1");
  std::printf("%-24s %12.3f %14.3f\n", "standard",
              clean_model.Evaluate(clean_test).micro.f1(),
              clean_model.Evaluate(noisy_test).micro.f1());
  std::printf("%-24s %12.3f %14.3f\n", "adversarial (FGSM)",
              adv_model.Evaluate(clean_test).micro.f1(),
              adv_model.Evaluate(noisy_test).micro.f1());
  std::printf(
      "\nShape check vs the paper: adversarial training keeps clean\n"
      "accuracy comparable while improving the perturbed-input score\n"
      "(survey Section 4.5 / DATNet).\n");
  return 0;
}
