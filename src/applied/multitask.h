// Deep multi-task learning for NER (survey Section 4.1).
//
// MultiTaskLmModel implements Rei (2017): alongside the NER objective, the
// shared encoder is trained with an auxiliary language-modeling objective —
// at each position the model predicts the next and previous word (Fig. 9).
// The auxiliary signal regularizes the representation, which is what yields
// the "consistent performance improvement" the survey reports, especially
// with small training sets (bench_multitask_lm).
#ifndef DLNER_APPLIED_MULTITASK_H_
#define DLNER_APPLIED_MULTITASK_H_

#include <memory>
#include <vector>

#include "core/model.h"

namespace dlner::applied {

class MultiTaskLmModel : public core::NerModel {
 public:
  /// `lm_weight` scales the auxiliary LM loss relative to the NER loss.
  MultiTaskLmModel(const core::NerConfig& config, const text::Corpus& train,
                   std::vector<std::string> entity_types, Float lm_weight,
                   const core::Resources& resources = {});

  /// NER loss + lm_weight * bidirectional LM loss over the shared encoder.
  Var Loss(const text::Sentence& sentence, bool training) override;

  std::vector<Var> Parameters() const override;

  /// Auxiliary LM loss alone (for diagnostics).
  Var LmLoss(const Var& encodings, const std::vector<std::string>& tokens);

 private:
  Float lm_weight_;
  std::unique_ptr<Linear> next_head_;  // enc_dim -> |V|: predict word t+1
  std::unique_ptr<Linear> prev_head_;  // enc_dim -> |V|: predict word t-1
};

/// Multi-task NER + entity-boundary detection (survey Section 4.1, Aguilar
/// et al.: "model NER as two related subtasks: entity segmentation and
/// entity category prediction"; also the Section 5.2 future direction of
/// treating boundary detection as a dedicated task). The auxiliary head
/// labels each token as B/I/O with the entity type erased, sharing the
/// encoder with the main typed tagger.
class MultiTaskBoundaryModel : public core::NerModel {
 public:
  MultiTaskBoundaryModel(const core::NerConfig& config,
                         const text::Corpus& train,
                         std::vector<std::string> entity_types,
                         Float boundary_weight,
                         const core::Resources& resources = {});

  Var Loss(const text::Sentence& sentence, bool training) override;
  std::vector<Var> Parameters() const override;

  /// Auxiliary boundary loss alone (for diagnostics). Uses untyped B/I/O.
  Var BoundaryLoss(const Var& encodings, const text::Sentence& gold);

  /// Untyped boundary spans predicted by the auxiliary head (a dedicated
  /// boundary detector, usable on its own). Value-only: runs under
  /// NoGradGuard.
  std::vector<text::Span> PredictBoundaries(
      const std::vector<std::string>& tokens) const;

 private:
  Float boundary_weight_;
  text::TagSet boundary_tags_;        // single pseudo-type "ENT", BIO
  std::unique_ptr<Linear> boundary_head_;  // enc_dim -> 3 (O, B, I)
};

}  // namespace dlner::applied

#endif  // DLNER_APPLIED_MULTITASK_H_
