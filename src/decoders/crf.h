// Linear-chain CRF tag decoder (survey Section 3.4.2) — the most common
// decoder of Table 3 (Huang et al., Lample et al., Ma & Hovy, Akbik et
// al.). Emission scores come from a linear projection of the encodings;
// learned transition, start, and end scores capture tag-sequence structure.
//
// Training maximizes the conditional log likelihood via the forward
// algorithm, built from differentiable log-sum-exp ops so gradients flow
// through the dynamic program. Inference is (optionally scheme-constrained)
// Viterbi.
#ifndef DLNER_DECODERS_CRF_H_
#define DLNER_DECODERS_CRF_H_

#include <memory>
#include <string>
#include <vector>

#include "decoders/decoder.h"
#include "text/tagging.h"

namespace dlner::decoders {

class CrfDecoder : public TagDecoder {
 public:
  /// When `constrained_decoding` is true, Viterbi forbids transitions that
  /// are invalid under the tag scheme (e.g. O -> I-PER in BIO).
  CrfDecoder(int in_dim, const text::TagSet* tags, Rng* rng,
             bool constrained_decoding = true,
             const std::string& name = "crf_dec");

  Var Loss(const Var& encodings, const text::Sentence& gold) override;
  std::vector<text::Span> Predict(const Var& encodings) const override;
  std::vector<Var> Parameters() const override;
  /// Emissions for the whole packed batch in one GEMM, then Viterbi per
  /// sentence over the arena rows.
  void DecodePacked(const batched::PackedBatch& batch, const Float* x,
                    int in_dim,
                    std::vector<std::vector<text::Span>>* out) const override;
  const char* packed_kind() const override { return "crf"; }

  /// Sequence log partition function (exposed for tests against brute
  /// force enumeration).
  Var LogPartition(const Var& emissions) const;
  /// Unnormalized score of a specific tag path.
  Var PathScore(const Var& emissions, const std::vector<int>& path) const;
  /// Emission matrix [T, K] for the given encodings.
  Var Emissions(const Var& encodings) const { return proj_->Apply(encodings); }
  /// Best tag path under the model (Viterbi) for emissions [T, K].
  std::vector<int> ViterbiPath(const Tensor& emissions) const;
  /// The same over `t_len` raw emission rows of K floats each, read in
  /// place (DecodePacked passes its arena rows). Reads the live
  /// parameters on every call, because training and active learning
  /// change them between decodes; only the scheme's mask is fixed.
  std::vector<int> ViterbiPath(const Float* emissions, int t_len) const;

  /// Posterior tag marginals p(y_t = k | x) via the forward-backward
  /// algorithm -> [T, K] (rows sum to 1). Value-only (no gradients); used
  /// for uncertainty estimates (token entropy, Shen et al.).
  Tensor Marginals(const Tensor& emissions) const;

  const text::TagSet& tags() const { return *tags_; }

 private:
  const text::TagSet* tags_;  // not owned
  // Entries Viterbi must never take, fixed by the tag scheme: starting in
  // tag j ([j]), ending in j ([K + j]), and i -> j ([2K + j*K + i]). All
  // false without constrained decoding.
  std::vector<char> forbidden_;
  std::unique_ptr<Linear> proj_;
  Var transitions_;  // [K, K]: score of tag j following tag i
  Var start_;        // [K]
  Var end_;          // [K]
};

}  // namespace dlner::decoders

#endif  // DLNER_DECODERS_CRF_H_
