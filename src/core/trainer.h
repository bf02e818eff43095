// Training loop: shuffled per-sentence SGD with gradient clipping, optional
// dev-set early stopping — the recipe shared by every Table 3 system and
// by the applied techniques, which change NerModel::Loss or the data.
#ifndef DLNER_CORE_TRAINER_H_
#define DLNER_CORE_TRAINER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "tensor/optim.h"

namespace dlner::core {

struct TrainConfig {
  int epochs = 10;
  double lr = 0.01;
  std::string optimizer = "adam";  // sgd|adagrad|adam
  double clip_norm = 5.0;
  uint64_t shuffle_seed = 7;
  /// Early stopping: stop after `patience` epochs without dev-F1
  /// improvement (0 disables; requires a dev corpus).
  int patience = 0;
};

struct EpochStats {
  int epoch = 0;
  double train_loss = 0.0;
  double dev_f1 = -1.0;  // -1 when no dev corpus
  /// Wall time of the whole epoch (training pass + dev evaluation).
  double wall_seconds = 0.0;
  /// Training throughput of this epoch (tokens in the training pass over
  /// the training-pass wall time only).
  double tokens_per_sec = 0.0;
};

struct TrainResult {
  std::vector<EpochStats> history;
  double best_dev_f1 = -1.0;
  int best_epoch = -1;
  double final_train_loss = 0.0;
};

class Trainer {
 public:
  /// The trainer borrows the model and owns the optimizer over its current
  /// parameter set. Parameters frozen after construction are not updated.
  Trainer(NerModel* model, const TrainConfig& config);

  /// Full training run over `train`, optionally evaluating on `dev` each
  /// epoch for early stopping and history. With a dev corpus the model's
  /// parameters are restored to the best-dev-F1 epoch before returning, so
  /// the trained model always carries best-epoch (not last-epoch) weights.
  /// A call continues from the current weights, optimizer state and shuffle
  /// stream, so repeated calls train incrementally (deep active learning,
  /// Section 4.3: "update for a small number of epochs").
  TrainResult Train(const text::Corpus& train, const text::Corpus* dev);

  Optimizer* optimizer() { return optimizer_.get(); }

 private:
  double RunEpoch(const text::Corpus& train);

  NerModel* model_;  // not owned
  TrainConfig config_;
  Rng shuffle_rng_;
  std::unique_ptr<Optimizer> optimizer_;
};

}  // namespace dlner::core

#endif  // DLNER_CORE_TRAINER_H_
