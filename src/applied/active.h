// Deep active learning for NER (survey Section 4.3; Shen et al. 2017).
//
// Rounds of: select the most uncertain unlabeled sentences up to the
// annotation budget, reveal their labels, and *incrementally* train the
// model for a few epochs on the augmented labeled set (no retraining from
// scratch — Shen et al.'s key efficiency trick). Uncertainty is least
// confidence: the model's negative log likelihood of its own best
// prediction (for a CRF this is exactly log Z minus the Viterbi score).
#ifndef DLNER_APPLIED_ACTIVE_H_
#define DLNER_APPLIED_ACTIVE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"

namespace dlner::applied {

struct ActiveConfig {
  int seed_size = 20;        // initial random labeled set
  int batch_size = 20;       // sentences labeled per round
  int rounds = 8;
  /// "least_confidence": NLL of the model's own best prediction (works for
  /// every decoder; for a CRF this is logZ - Viterbi score).
  /// "entropy": mean posterior token entropy from CRF forward-backward
  /// marginals (requires a CRF decoder).
  /// "random": baseline.
  std::string strategy = "least_confidence";
  /// `train.epochs` incremental epochs run after each acquisition.
  core::TrainConfig train{.epochs = 3};
  uint64_t seed = 17;
};

struct ActiveRound {
  int round = 0;
  int labeled_sentences = 0;
  double labeled_fraction = 0.0;
  double test_f1 = 0.0;
};

class ActiveLearner {
 public:
  /// Borrows the model; the caller owns it.
  ActiveLearner(core::NerModel* model, const ActiveConfig& config);

  /// Runs the acquisition loop against a fully-labeled pool (labels are
  /// revealed on selection) and evaluates on `test` after each round.
  std::vector<ActiveRound> Run(const text::Corpus& pool,
                               const text::Corpus& test);

  /// Uncertainty of every sentence of `sentences` under the current model,
  /// in corpus order (higher = more informative). Least confidence tags the
  /// whole corpus with one PredictCorpus call, then scores each sentence's
  /// loss against its own prediction. Value-only: runs under NoGradGuard.
  std::vector<double> Uncertainty(const text::Corpus& sentences);

 private:
  core::NerModel* model_;  // not owned
  ActiveConfig config_;
  std::unique_ptr<core::Trainer> trainer_;
  Rng rng_;
};

}  // namespace dlner::applied

#endif  // DLNER_APPLIED_ACTIVE_H_
