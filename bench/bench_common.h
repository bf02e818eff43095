// Shared helpers for the benchmark harnesses (one binary per table/figure
// of the survey; see DESIGN.md Section 4 for the experiment index).
#ifndef DLNER_BENCH_BENCH_COMMON_H_
#define DLNER_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <string>

#include "core/trainer.h"
#include "data/dataset.h"
#include "data/gazetteer.h"
#include "embeddings/lm.h"
#include "embeddings/sgns.h"
#include "obs/obs.h"

namespace dlner::bench {

/// Trains a model described by `config` and returns its exact-match test
/// micro-F1.
inline double TrainAndScore(const core::NerConfig& config,
                            const data::DataSplit& data,
                            const std::vector<std::string>& types,
                            const core::Resources& resources = {},
                            int epochs = 8, double lr = 0.015) {
  core::NerModel model(config, data.train, types, resources);
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = lr;
  core::Trainer trainer(&model, tc);
  trainer.Train(data.train, nullptr);
  return model.Evaluate(data.test).micro.f1();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

}  // namespace dlner::bench

#endif  // DLNER_BENCH_BENCH_COMMON_H_
