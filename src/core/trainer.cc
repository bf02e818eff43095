#include "core/trainer.h"

#include "obs/metrics.h"
#include "obs/trace.h"

namespace dlner::core {

Trainer::Trainer(NerModel* model, const TrainConfig& config)
    : model_(model), config_(config), shuffle_rng_(config.shuffle_seed) {
  DLNER_CHECK(model_ != nullptr);
  optimizer_ =
      MakeOptimizer(config_.optimizer, model_->Parameters(), config_.lr);
}

double Trainer::RunEpoch(const text::Corpus& train) {
  std::vector<int> order(train.sentences.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  shuffle_rng_.Shuffle(&order);

  double total_loss = 0.0;
  for (int idx : order) {
    const text::Sentence& sentence = train.sentences[idx];
    if (sentence.size() == 0) continue;
    optimizer_->ZeroGrad();
    Var loss = model_->Loss(sentence, /*training=*/true);
    {
      obs::ScopedSpan span("backward");
      Backward(loss);
    }
    {
      obs::ScopedSpan span("optimizer");
      optimizer_->ClipGradNorm(config_.clip_norm);
      optimizer_->Step();
    }
    total_loss += loss->value[0];
  }
  return train.sentences.empty()
             ? 0.0
             : total_loss / static_cast<double>(train.sentences.size());
}

TrainResult Trainer::Train(const text::Corpus& train,
                           const text::Corpus* dev) {
  TrainResult result;
  int epochs_since_best = 0;
  // Snapshot of every parameter tensor at the best dev epoch, restored
  // before returning so the caller gets best-epoch weights even when a
  // patience break (or a worse final epoch) ends the run later.
  const std::vector<Var> params = model_->Parameters();
  std::vector<Tensor> best_params;
  std::int64_t train_tokens = 0;
  for (const auto& s : train.sentences) {
    train_tokens += static_cast<std::int64_t>(s.tokens.size());
  }
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    obs::ScopedSpan span("epoch");
    obs::Stopwatch epoch_sw;
    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = RunEpoch(train);
    const double train_seconds = epoch_sw.Seconds();
    stats.tokens_per_sec = train_seconds > 0.0
                               ? static_cast<double>(train_tokens) /
                                     train_seconds
                               : 0.0;
    result.final_train_loss = stats.train_loss;
    if (dev != nullptr) {
      stats.dev_f1 = model_->Evaluate(*dev).micro.f1();
      if (stats.dev_f1 > result.best_dev_f1) {
        result.best_dev_f1 = stats.dev_f1;
        result.best_epoch = epoch;
        epochs_since_best = 0;
        best_params.clear();
        best_params.reserve(params.size());
        for (const Var& p : params) best_params.push_back(p->value);
      } else {
        ++epochs_since_best;
      }
    }
    stats.wall_seconds = epoch_sw.Seconds();
    if (obs::MetricsEnabled()) {
      obs::Metrics& m = obs::Metrics::Get();
      const double step = static_cast<double>(epoch);
      m.series("train.loss")->Append(step, stats.train_loss);
      m.series("train.lr")->Append(step, config_.lr);
      m.series("train.epoch_wall_s")->Append(step, stats.wall_seconds);
      m.series("train.tokens_per_sec")->Append(step, stats.tokens_per_sec);
      if (dev != nullptr) m.series("train.dev_f1")->Append(step, stats.dev_f1);
      m.counter("train.epochs")->Add(1);
      m.counter("train.sentences")
          ->Add(static_cast<std::int64_t>(train.sentences.size()));
      m.counter("train.tokens")->Add(train_tokens);
    }
    // Structured per-epoch record, visible from --log-level info.
    obs::Log(obs::LogLevel::kInfo, "epoch",
             {{"epoch", stats.epoch},
              {"loss", stats.train_loss},
              {"dev_f1", stats.dev_f1},
              {"lr", config_.lr},
              {"wall_s", stats.wall_seconds},
              {"tokens_per_sec", stats.tokens_per_sec}});
    result.history.push_back(stats);
    if (dev != nullptr && config_.patience > 0 &&
        epochs_since_best >= config_.patience) {
      break;
    }
  }
  if (!best_params.empty()) {
    for (size_t i = 0; i < params.size(); ++i) {
      params[i]->value = best_params[i];
    }
  }
  return result;
}

}  // namespace dlner::core
