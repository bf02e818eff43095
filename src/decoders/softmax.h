// MLP + softmax tag decoder (survey Section 3.4.1): each token's tag is
// predicted independently — no transition modeling. The baseline that CRF
// decoders are compared against throughout Table 3.
#ifndef DLNER_DECODERS_SOFTMAX_H_
#define DLNER_DECODERS_SOFTMAX_H_

#include <memory>
#include <string>

#include "decoders/decoder.h"
#include "text/tagging.h"

namespace dlner::decoders {

class SoftmaxDecoder : public TagDecoder {
 public:
  SoftmaxDecoder(int in_dim, const text::TagSet* tags, Rng* rng,
                 const std::string& name = "softmax_dec");

  Var Loss(const Var& encodings, const text::Sentence& gold) override;
  std::vector<text::Span> Predict(const Var& encodings) const override;
  std::vector<Var> Parameters() const override { return proj_->Parameters(); }
  void DecodePacked(const batched::PackedBatch& batch, const Float* x,
                    int in_dim,
                    std::vector<std::vector<text::Span>>* out) const override;
  const char* packed_kind() const override { return "softmax"; }
  const text::TagSet& tags() const { return *tags_; }

 private:
  const text::TagSet* tags_;  // not owned
  std::unique_ptr<Linear> proj_;
};

}  // namespace dlner::decoders

#endif  // DLNER_DECODERS_SOFTMAX_H_
