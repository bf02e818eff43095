#include "applied/adversarial.h"

#include "tensor/ops.h"

namespace dlner::applied {

AdversarialNerModel::AdversarialNerModel(const core::NerConfig& config,
                                         const text::Corpus& train,
                                         std::vector<std::string> entity_types,
                                         Float epsilon, Float adv_weight,
                                         const core::Resources& resources)
    : core::NerModel(config, train, std::move(entity_types), resources),
      epsilon_(epsilon),
      adv_weight_(adv_weight) {}

Tensor AdversarialNerModel::ComputePerturbation(
    const text::Sentence& sentence) {
  // Throwaway pass: gradient of the loss at the representation matrix.
  Var rep = Represent(sentence.tokens, /*training=*/true);
  DLNER_CHECK_MSG(rep->requires_grad,
                  "adversarial training needs a trainable representation");
  Backward(LossFromRepresentation(rep, sentence, /*training=*/true));
  Tensor eta = rep->grad;
  const Float norm = eta.Norm();
  if (norm > 0.0) {
    for (int i = 0; i < eta.size(); ++i) eta[i] *= epsilon_ / norm;
  }
  return eta;
}

Var AdversarialNerModel::Loss(const text::Sentence& sentence, bool training) {
  if (!training) return core::NerModel::Loss(sentence, false);
  // The perturbation pass, then the clean and the perturbed pass, in this
  // order, so dropout draws follow one fixed sequence.
  Tensor eta = ComputePerturbation(sentence);
  Var clean = LossFromRepresentation(Represent(sentence.tokens, true),
                                     sentence, true);
  Var adv_rep = Add(Represent(sentence.tokens, true), Constant(std::move(eta)));
  Var adv = LossFromRepresentation(adv_rep, sentence, true);
  return Add(clean, Scale(adv, adv_weight_));
}

}  // namespace dlner::applied
