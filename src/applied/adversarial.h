// Deep adversarial learning for NER (survey Section 4.5; DATNet, Zhou et
// al. 2019).
//
// FGSM-style adversarial training on the input representation: the
// perturbation eta = epsilon * g / ||g|| maximizes the loss to first order,
// where g is the loss gradient at the representation matrix. Each training
// step minimizes loss(x) + adv_weight * loss(x + eta), which the survey
// reports "improves generalization", particularly on noisy/low-resource
// inputs (bench_adversarial). The objective is a NerModel::Loss override,
// so core::Trainer runs it like any other model.
#ifndef DLNER_APPLIED_ADVERSARIAL_H_
#define DLNER_APPLIED_ADVERSARIAL_H_

#include <string>
#include <vector>

#include "core/model.h"

namespace dlner::applied {

class AdversarialNerModel : public core::NerModel {
 public:
  /// `epsilon` is the L2 radius of the perturbation; `adv_weight` scales
  /// the adversarial term relative to the clean loss.
  AdversarialNerModel(const core::NerConfig& config, const text::Corpus& train,
                      std::vector<std::string> entity_types, Float epsilon,
                      Float adv_weight, const core::Resources& resources = {});

  /// Clean loss + adv_weight * loss at the perturbed representation; the
  /// clean loss alone when not training. Computing eta runs its own
  /// Backward, which the caller's Backward on the result fully overwrites.
  Var Loss(const text::Sentence& sentence, bool training) override;

  /// The FGSM perturbation for one sentence under the current model
  /// (exposed for tests: it must increase the loss to first order).
  Tensor ComputePerturbation(const text::Sentence& sentence);

 private:
  Float epsilon_;
  Float adv_weight_;
};

}  // namespace dlner::applied

#endif  // DLNER_APPLIED_ADVERSARIAL_H_
