#include "applied/active.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "decoders/crf.h"

namespace dlner::applied {

ActiveLearner::ActiveLearner(core::NerModel* model,
                             const ActiveConfig& config)
    : model_(model), config_(config), rng_(config.seed) {
  DLNER_CHECK(model_ != nullptr);
  trainer_ = std::make_unique<core::Trainer>(model_, config_.train);
}

std::vector<double> ActiveLearner::Uncertainty(const text::Corpus& sentences) {
  NoGradGuard no_grad;  // scores read values only
  std::vector<double> scores;
  if (config_.strategy == "entropy") {
    auto* crf = dynamic_cast<decoders::CrfDecoder*>(model_->decoder());
    DLNER_CHECK_MSG(crf != nullptr,
                    "entropy strategy requires a CRF decoder");
    for (const text::Sentence& sentence : sentences.sentences) {
      Var rep = model_->Represent(sentence.tokens, /*training=*/false);
      Var enc = model_->EncodeTokens(rep, sentence.tokens, /*training=*/false);
      Tensor marginals = crf->Marginals(crf->Emissions(enc)->value);
      double total = 0.0;
      for (int t = 0; t < marginals.rows(); ++t) {
        for (int k = 0; k < marginals.cols(); ++k) {
          const double p = marginals.at(t, k);
          if (p > 1e-12) total -= p * std::log(p);
        }
      }
      scores.push_back(total / marginals.rows());
    }
    return scores;
  }
  // Least confidence: NLL of the model's own best prediction. The spans
  // are re-labeled with the predicted annotation, so this works for every
  // decoder type uniformly.
  const std::vector<std::vector<text::Span>> predicted =
      model_->PredictCorpus(sentences);
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    text::Sentence self = sentences.sentences[i];
    self.spans = predicted[i];
    scores.push_back(text::SpansAreFlat(self.spans)  // defensive
                         ? model_->Loss(self, /*training=*/false)->value[0]
                         : 0.0);
  }
  return scores;
}

std::vector<ActiveRound> ActiveLearner::Run(const text::Corpus& pool,
                                            const text::Corpus& test) {
  const int n = pool.size();
  std::vector<int> unlabeled(n);
  std::iota(unlabeled.begin(), unlabeled.end(), 0);
  rng_.Shuffle(&unlabeled);

  text::Corpus labeled;
  auto acquire = [&](int count) {
    // Order remaining pool items by uncertainty (or leave the random
    // shuffle order for the baseline strategy).
    if (config_.strategy != "random" && !labeled.sentences.empty()) {
      text::Corpus candidates;
      for (int idx : unlabeled) {
        candidates.sentences.push_back(pool.sentences[idx]);
      }
      const std::vector<double> scores = Uncertainty(candidates);
      std::vector<std::pair<double, int>> scored;
      for (std::size_t i = 0; i < unlabeled.size(); ++i) {
        scored.push_back({scores[i], unlabeled[i]});
      }
      std::sort(scored.begin(), scored.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
      unlabeled.clear();
      for (const auto& [u, idx] : scored) unlabeled.push_back(idx);
    }
    const int take = std::min<int>(count, static_cast<int>(unlabeled.size()));
    for (int i = 0; i < take; ++i) {
      labeled.sentences.push_back(pool.sentences[unlabeled[i]]);
    }
    unlabeled.erase(unlabeled.begin(), unlabeled.begin() + take);
  };

  std::vector<ActiveRound> history;
  acquire(config_.seed_size);
  for (int round = 0; round <= config_.rounds; ++round) {
    if (round > 0) acquire(config_.batch_size);
    trainer_->Train(labeled, nullptr);
    ActiveRound stats;
    stats.round = round;
    stats.labeled_sentences = labeled.size();
    stats.labeled_fraction = static_cast<double>(labeled.size()) / n;
    stats.test_f1 = model_->Evaluate(test).micro.f1();
    history.push_back(stats);
    if (unlabeled.empty()) break;
  }
  return history;
}

}  // namespace dlner::applied
