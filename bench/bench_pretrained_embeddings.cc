// E13 — Sections 3.2.1 and 3.5: the pre-trained-embedding ladder.
//
// The survey: "recent studies have shown the importance of such pre-trained
// word embeddings"; "integrating or fine-tuning pre-trained language model
// embeddings is becoming a new paradigm ... significant performance
// improvements". We hold the downstream model fixed and swap only the input
// representation: random init -> SGNS (frozen) -> SGNS (fine-tuned) ->
// + contextual char-LM embeddings -> + token-LM embeddings.
#include "bench/bench_common.h"

int main() {
  using namespace dlner;
  using namespace dlner::bench;

  PrintHeader("E13: pre-trained input ladder (survey Sections 3.2.1/3.5)");

  const auto genre = data::Genre::kNews;
  const auto& types = data::EntityTypesFor(genre);
  // Two labeled-data regimes: freezing-vs-fine-tuning flips between them.
  data::DataSplit small_bd =
      data::MakeOovSplit(genre, 100, 120, 131, /*test_oov=*/0.4);
  data::DataSplit large_bd =
      data::MakeOovSplit(genre, 300, 120, 136, /*test_oov=*/0.4);

  // Pretraining corpus is much larger than the labeled set (the survey's
  // setting for Word2Vec/ELMo-style inputs).
  auto unlabeled = data::GenerateUnlabeledText(genre, 2500, 132);

  embeddings::SkipGramModel::Config sgns_cfg;
  sgns_cfg.dim = 24;
  sgns_cfg.epochs = 3;
  sgns_cfg.seed = 133;
  auto sgns = embeddings::SkipGramModel::Train(unlabeled, sgns_cfg);

  embeddings::CharLm::Config char_cfg;
  char_cfg.hidden_dim = 24;
  char_cfg.epochs = 2;
  char_cfg.seed = 134;
  embeddings::CharLm char_lm(char_cfg);
  char_lm.Train({unlabeled.begin(), unlabeled.begin() + 250});

  embeddings::TokenLm::Config tok_cfg;
  tok_cfg.hidden_dim = 20;
  tok_cfg.epochs = 2;
  tok_cfg.seed = 135;
  embeddings::TokenLm token_lm(tok_cfg);
  token_lm.Train({unlabeled.begin(), unlabeled.begin() + 500});

  struct Rung {
    const char* name;
    core::NerConfig config;
    core::Resources resources;
  };
  std::vector<Rung> ladder;
  core::NerConfig base;
  base.word_dim = 24;
  {
    Rung r{"random init word vectors", base, {}};
    ladder.push_back(r);
  }
  {
    Rung r{"SGNS pre-trained (frozen)", base, {}};
    r.config.freeze_word = true;
    r.resources.sgns = &sgns;
    ladder.push_back(r);
  }
  {
    Rung r{"SGNS pre-trained (fine-tuned)", base, {}};
    r.resources.sgns = &sgns;
    ladder.push_back(r);
  }
  {
    Rung r{"SGNS + contextual char-LM", base, {}};
    r.config.use_char_lm = true;
    r.resources.sgns = &sgns;
    r.resources.char_lm = &char_lm;
    ladder.push_back(r);
  }
  {
    Rung r{"SGNS + token-LM (TagLM-style)", base, {}};
    r.config.use_token_lm = true;
    r.resources.sgns = &sgns;
    r.resources.token_lm = &token_lm;
    ladder.push_back(r);
  }

  std::printf("%-34s %12s %12s\n", "input representation",
              "F1 @100 sent", "F1 @300 sent");
  for (size_t i = 0; i < ladder.size(); ++i) {
    ladder[i].config.seed = 140 + i;
    const double f1_small = TrainAndScore(ladder[i].config, small_bd, types,
                                          ladder[i].resources, /*epochs=*/10);
    const double f1_large = TrainAndScore(ladder[i].config, large_bd, types,
                                          ladder[i].resources, /*epochs=*/10);
    std::printf("%-34s %12.3f %12.3f\n", ladder[i].name, f1_small, f1_large);
  }
  std::printf(
      "\nShape check vs the paper: pre-trained vectors beat random init;\n"
      "freezing protects the pre-trained structure when labeled data is\n"
      "tiny while fine-tuning catches up with more labels (the \"fixed or\n"
      "further fine-tuned\" choice of Section 3.2.1); LM embeddings give a\n"
      "further lift (Section 3.5's new paradigm).\n");
  return 0;
}
