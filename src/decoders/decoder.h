// Tag decoder interface (survey Section 3.4, Fig. 12): the final stage of
// the taxonomy, mapping context-dependent token representations [T, d] to a
// loss at training time and to entity spans at inference time.
//
// Decoders return *spans* from Predict rather than raw tags so that
// tag-sequence decoders (softmax, CRF, RNN) and segment decoders (semi-CRF,
// pointer network) share one interface and one span-level evaluation path.
#ifndef DLNER_DECODERS_DECODER_H_
#define DLNER_DECODERS_DECODER_H_

#include <vector>

#include "tensor/batched.h"
#include "tensor/nn.h"
#include "text/types.h"

namespace dlner::decoders {

class TagDecoder : public Module {
 public:
  /// Scalar training loss for one sentence. `encodings` is [T, d] with T
  /// equal to gold.size(); gold spans must be flat.
  virtual Var Loss(const Var& encodings, const text::Sentence& gold) = 0;

  /// Decodes entity spans from [T, d] encodings.
  virtual std::vector<text::Span> Predict(const Var& encodings) const = 0;

  /// Inference over a packed micro-batch: x is the packed [batch.rows(),
  /// in_dim] encodings; writes sentence b's spans to (*out)[b]. Must equal
  /// Predict on every segment. The default is an eager bridge: Predict per
  /// sentence.
  virtual void DecodePacked(const batched::PackedBatch& batch, const Float* x,
                            int in_dim,
                            std::vector<std::vector<text::Span>>* out) const;
  /// Non-null (the decoder's name in InferencePlan::Describe) when
  /// DecodePacked is a packed kernel rather than the eager bridge.
  virtual const char* packed_kind() const { return nullptr; }
};

}  // namespace dlner::decoders

#endif  // DLNER_DECODERS_DECODER_H_
