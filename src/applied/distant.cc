#include "applied/distant.h"

#include <algorithm>
#include <cmath>

namespace dlner::applied {
namespace {

constexpr int kNumFeatures = 3;  // bias, normalized NLL, entity density

double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

}  // namespace

InstanceSelector::InstanceSelector(const DistantConfig& config)
    : config_(config), policy_(kNumFeatures, 0.0) {
  // Optimistic initialization: start near "keep most sentences" (p ~ 0.73)
  // so early episodes explore dropping the suspicious tail rather than
  // random halves of the data.
  policy_[0] = 1.0;
}

double InstanceSelector::KeepProbability(
    const std::vector<double>& features) const {
  DLNER_CHECK_EQ(features.size(), policy_.size());
  double z = 0.0;
  for (size_t i = 0; i < policy_.size(); ++i) z += policy_[i] * features[i];
  return Sigmoid(z);
}

DistantResult InstanceSelector::Run(
    const text::Corpus& noisy_train, const text::Corpus& dev,
    const text::Corpus& test, const std::vector<std::string>& entity_types) {
  DistantResult result;
  Rng rng(config_.seed);

  auto train_for = [&](core::NerModel* model, const text::Corpus& data,
                       int epochs) {
    core::TrainConfig tc = config_.train;
    tc.epochs = epochs;
    core::Trainer(model, tc).Train(data, nullptr);
  };

  // Baseline: tagger trained on all noisy data.
  {
    core::NerModel model(config_.model_config, noisy_train, entity_types);
    train_for(&model, noisy_train, config_.train.epochs);
    result.f1_all_data = model.Evaluate(test).micro.f1();
  }

  // Warm-up tagger used only for sentence features.
  core::NerModel warm(config_.model_config, noisy_train, entity_types);
  train_for(&warm, noisy_train, config_.warmup_epochs);

  // Per-sentence features under the warm model. The NLL of the noisy
  // labels is z-scored so the policy's logistic weights act on a
  // well-scaled signal.
  std::vector<double> nlls;
  for (const text::Sentence& s : noisy_train.sentences) {
    nlls.push_back(warm.Loss(s, /*training=*/false)->value[0]);
  }
  double mean = 0.0;
  for (double v : nlls) mean += v;
  mean /= std::max<size_t>(1, nlls.size());
  double var = 0.0;
  for (double v : nlls) var += (v - mean) * (v - mean);
  const double stddev =
      std::sqrt(var / std::max<size_t>(1, nlls.size())) + 1e-9;

  std::vector<std::vector<double>> features;
  features.reserve(noisy_train.sentences.size());
  for (size_t i = 0; i < noisy_train.sentences.size(); ++i) {
    const text::Sentence& s = noisy_train.sentences[i];
    int entity_tokens = 0;
    for (const text::Span& sp : s.spans) entity_tokens += sp.end - sp.start;
    features.push_back({1.0, (nlls[i] - mean) / stddev,
                        s.size() > 0 ? static_cast<double>(entity_tokens) /
                                           s.size()
                                     : 0.0});
  }

  // REINFORCE episodes.
  double baseline = 0.0;
  bool have_baseline = false;
  for (int ep = 0; ep < config_.episodes; ++ep) {
    std::vector<bool> keep(noisy_train.sentences.size());
    text::Corpus kept;
    for (size_t i = 0; i < keep.size(); ++i) {
      keep[i] = rng.Bernoulli(KeepProbability(features[i]));
      if (keep[i]) kept.sentences.push_back(noisy_train.sentences[i]);
    }
    double reward = 0.0;
    if (!kept.sentences.empty()) {
      // A fixed episode seed keeps initialization identical across
      // episodes, so reward differences reflect the selected data.
      core::NerConfig episode_config = config_.model_config;
      episode_config.seed = config_.seed + 1000;
      core::NerModel model(episode_config, noisy_train, entity_types);
      train_for(&model, kept, config_.episode_epochs);
      reward = model.Evaluate(dev).micro.f1();
    }
    result.episode_rewards.push_back(reward);
    result.keep_fractions.push_back(
        static_cast<double>(kept.size()) / noisy_train.size());

    if (!have_baseline) {
      baseline = reward;
      have_baseline = true;
    }
    const double advantage = reward - baseline;
    baseline = 0.8 * baseline + 0.2 * reward;

    // d log pi / dw = (a - p) * f for Bernoulli action a with prob p.
    for (size_t i = 0; i < keep.size(); ++i) {
      const double p = KeepProbability(features[i]);
      const double a = keep[i] ? 1.0 : 0.0;
      for (int d = 0; d < kNumFeatures; ++d) {
        policy_[d] += config_.policy_lr * advantage * (a - p) *
                      features[i][d] / static_cast<double>(keep.size());
      }
    }
  }
  result.policy_weights = policy_;

  // Final tagger on the deterministic selection. The learned selection is
  // accepted only if it beats training on everything on the dev set
  // (standard dev-based model selection; REINFORCE on few episodes is
  // noisy, and deploying a selector that loses on dev would be malpractice).
  text::Corpus selected;
  for (size_t i = 0; i < noisy_train.sentences.size(); ++i) {
    if (KeepProbability(features[i]) > 0.5) {
      selected.sentences.push_back(noisy_train.sentences[i]);
    }
  }
  if (selected.sentences.empty()) selected = noisy_train;

  auto train_and_dev = [&](const text::Corpus& data, uint64_t seed_offset) {
    core::NerConfig final_config = config_.model_config;
    final_config.seed = config_.seed + seed_offset;
    auto model = std::make_unique<core::NerModel>(final_config, noisy_train,
                                                  entity_types);
    train_for(model.get(), data, config_.final_epochs);
    const double dev_f1 = model->Evaluate(dev).micro.f1();
    return std::make_pair(std::move(model), dev_f1);
  };
  auto [selected_model, selected_dev] = train_and_dev(selected, 7);
  auto [all_model, all_dev] = train_and_dev(noisy_train, 7);
  result.f1_selected = selected_dev >= all_dev
                           ? selected_model->Evaluate(test).micro.f1()
                           : all_model->Evaluate(test).micro.f1();
  return result;
}

}  // namespace dlner::applied
