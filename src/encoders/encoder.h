// Context encoder interface (survey Section 3.3, the middle stage of the
// Fig. 2 taxonomy): reads one sentence, as its [T, d_in] input
// representation and its T tokens, and produces context-dependent token
// representations [T, d_out].
#ifndef DLNER_ENCODERS_ENCODER_H_
#define DLNER_ENCODERS_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "tensor/batched.h"
#include "tensor/nn.h"

namespace dlner::encoders {

class ContextEncoder : public Module {
 public:
  /// Input [T, in_dim] -> output [T, out_dim]. `tokens` are the sentence's
  /// T tokens; encoders that need only the matrix ignore them, structured
  /// ones (the recursive encoder's bracketing) build from them. Const so a
  /// shared model can run concurrent forward passes; implementations must
  /// not mutate state.
  virtual Var Encode(const Var& input, const std::vector<std::string>& tokens,
                     bool training) const = 0;
  virtual int out_dim() const = 0;

  /// Inference over a packed micro-batch: x is the packed [batch.rows(),
  /// in_dim] representation; returns the packed [batch.rows(), out_dim()]
  /// encodings, allocated from batch.arena. Must equal Encode(segment,
  /// tokens, false) bit for bit on every segment. The default is an eager
  /// bridge: Encode per sentence, rows copied out.
  virtual const Float* EncodePacked(const batched::PackedBatch& batch,
                                    const Float* x, int in_dim) const;
  /// Non-null (the encoder's name in InferencePlan::Describe) when
  /// EncodePacked is a packed kernel rather than the eager bridge.
  virtual const char* packed_kind() const { return nullptr; }
};

/// No-context baseline: a per-token MLP (tanh). Equivalent to tagging each
/// token from its own representation only — the degenerate taxonomy cell
/// used by FOFE-style local detection models.
class MlpEncoder : public ContextEncoder {
 public:
  MlpEncoder(int in_dim, int hidden_dim, Rng* rng,
             const std::string& name = "mlp_enc");

  Var Encode(const Var& input, const std::vector<std::string>& tokens,
             bool training) const override;
  int out_dim() const override { return hidden_->out_dim(); }
  std::vector<Var> Parameters() const override { return hidden_->Parameters(); }
  const Float* EncodePacked(const batched::PackedBatch& batch, const Float* x,
                            int in_dim) const override;
  const char* packed_kind() const override { return "mlp"; }

 private:
  std::unique_ptr<Linear> hidden_;
};

}  // namespace dlner::encoders

#endif  // DLNER_ENCODERS_ENCODER_H_
