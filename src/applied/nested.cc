#include "applied/nested.h"

#include <algorithm>
#include <set>

namespace dlner::applied {
namespace {

bool StrictlyContains(const text::Span& outer, const text::Span& inner) {
  return outer.start <= inner.start && inner.end <= outer.end &&
         (outer.end - outer.start) > (inner.end - inner.start);
}

}  // namespace

std::vector<text::Corpus> SplitNestingLevels(const text::Corpus& corpus,
                                             int max_levels) {
  DLNER_CHECK_GE(max_levels, 1);
  std::vector<text::Corpus> levels(max_levels);
  for (auto& level : levels) {
    level.sentences.resize(corpus.sentences.size());
  }
  for (size_t si = 0; si < corpus.sentences.size(); ++si) {
    const text::Sentence& s = corpus.sentences[si];
    for (int l = 0; l < max_levels; ++l) {
      levels[l].sentences[si].tokens = s.tokens;
    }
    // Deduplicate spans, then peel innermost layers.
    std::set<text::Span> remaining(s.spans.begin(), s.spans.end());
    int level = 0;
    while (!remaining.empty() && level < max_levels) {
      std::vector<text::Span> inner;
      for (const text::Span& sp : remaining) {
        bool contains_other = false;
        for (const text::Span& other : remaining) {
          if (!(other == sp) && StrictlyContains(sp, other)) {
            contains_other = true;
            break;
          }
        }
        if (!contains_other) inner.push_back(sp);
      }
      // Overlapping same-level spans (rare, partial overlap) would break
      // flat tagging; keep a flat subset greedily.
      std::sort(inner.begin(), inner.end());
      std::vector<text::Span> flat;
      for (const text::Span& sp : inner) {
        if (flat.empty() || sp.start >= flat.back().end) flat.push_back(sp);
      }
      levels[level].sentences[si].spans = flat;
      for (const text::Span& sp : flat) remaining.erase(sp);
      ++level;
    }
  }
  return levels;
}

LayeredNerModel::LayeredNerModel(const core::NerConfig& config,
                                 std::vector<std::string> entity_types)
    : config_(config), entity_types_(std::move(entity_types)) {}

void LayeredNerModel::Train(const text::Corpus& train,
                            const core::TrainConfig& train_config) {
  models_.clear();
  std::vector<text::Corpus> levels = SplitNestingLevels(train);
  for (size_t l = 0; l < levels.size(); ++l) {
    // Skip empty trailing levels.
    if (levels[l].EntityCount() == 0) break;
    core::NerConfig config = config_;
    config.seed = config_.seed + 31 * static_cast<uint64_t>(l);
    auto model =
        std::make_unique<core::NerModel>(config, train, entity_types_);
    core::Trainer trainer(model.get(), train_config);
    trainer.Train(levels[l], nullptr);
    models_.push_back(std::move(model));
  }
  DLNER_CHECK(!models_.empty());
}

std::vector<std::vector<text::Span>> LayeredNerModel::PredictCorpus(
    const text::Corpus& corpus) const {
  std::vector<std::set<text::Span>> merged(corpus.sentences.size());
  for (const auto& model : models_) {
    const std::vector<std::vector<text::Span>> level =
        model->PredictCorpus(corpus);
    for (size_t i = 0; i < level.size(); ++i) {
      merged[i].insert(level[i].begin(), level[i].end());
    }
  }
  std::vector<std::vector<text::Span>> out;
  out.reserve(merged.size());
  for (const std::set<text::Span>& spans : merged) {
    out.emplace_back(spans.begin(), spans.end());
  }
  return out;
}

eval::ExactResult LayeredNerModel::Evaluate(const text::Corpus& corpus) const {
  const std::vector<std::vector<text::Span>> predicted = PredictCorpus(corpus);
  eval::ExactMatchEvaluator ev;
  for (size_t i = 0; i < corpus.sentences.size(); ++i) {
    ev.Add(corpus.sentences[i].spans, predicted[i]);
  }
  return ev.Result();
}

}  // namespace dlner::applied
