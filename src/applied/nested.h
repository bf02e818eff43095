// Nested NER via layered flat models (survey Section 3.3.2; Ju et al.
// 2018): decompose overlapping annotations into nesting levels (innermost
// first), train one flat NER model per level, and take the union of their
// predictions. The survey motivates this with the prevalence of nesting
// (17% of GENIA entities, 30% of ACE sentences).
#ifndef DLNER_APPLIED_NESTED_H_
#define DLNER_APPLIED_NESTED_H_

#include <memory>
#include <string>
#include <vector>

#include "core/trainer.h"

namespace dlner::applied {

/// Splits possibly-nested annotations into flat layers. Layer 0 holds the
/// innermost spans; each subsequent layer holds spans that strictly contain
/// spans of earlier layers. Every returned corpus has the same sentences
/// with a flat subset of the original spans; at most `max_levels` layers.
std::vector<text::Corpus> SplitNestingLevels(const text::Corpus& corpus,
                                             int max_levels = 3);

/// A stack of flat NER models, one per nesting level.
class LayeredNerModel {
 public:
  LayeredNerModel(const core::NerConfig& config,
                  std::vector<std::string> entity_types);

  /// Trains one model per nesting level of `train`.
  void Train(const text::Corpus& train, const core::TrainConfig& train_config);

  /// Union of per-level predictions (duplicates removed, sorted) for every
  /// sentence of a corpus, in corpus order: one planned
  /// NerModel::PredictCorpus pass per level, merged per sentence. Empty
  /// sentences yield empty vectors.
  std::vector<std::vector<text::Span>> PredictCorpus(
      const text::Corpus& corpus) const;

  /// Exact-match evaluation against (possibly nested) gold annotations.
  eval::ExactResult Evaluate(const text::Corpus& corpus) const;

  int num_levels() const { return static_cast<int>(models_.size()); }

 private:
  core::NerConfig config_;
  std::vector<std::string> entity_types_;
  std::vector<std::unique_ptr<core::NerModel>> models_;
};

}  // namespace dlner::applied

#endif  // DLNER_APPLIED_NESTED_H_
