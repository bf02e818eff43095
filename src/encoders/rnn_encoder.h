// Recurrent context encoders (survey Section 3.3.2, Fig. 7): stacked
// bidirectional LSTM/GRU layers, the de-facto standard encoder of the
// Table 3 systems (Huang et al., Lample et al., Ma & Hovy).
#ifndef DLNER_ENCODERS_RNN_ENCODER_H_
#define DLNER_ENCODERS_RNN_ENCODER_H_

#include <memory>
#include <string>
#include <vector>

#include "encoders/encoder.h"
#include "tensor/rnn.h"

namespace dlner::encoders {

class RnnEncoder : public ContextEncoder {
 public:
  /// `kind` is "lstm" or "gru"; `num_layers` stacked BiRNNs with inter-layer
  /// dropout.
  RnnEncoder(const std::string& kind, int in_dim, int hidden_dim,
             int num_layers, Float dropout, Rng* rng,
             const std::string& name = "rnn_enc");

  Var Encode(const Var& input, const std::vector<std::string>& tokens,
             bool training) const override;
  int out_dim() const override { return 2 * hidden_dim_; }
  std::vector<Var> Parameters() const override;
  /// Inter-layer dropout is the identity at inference, so each layer is
  /// one BiRnn::ApplyPacked.
  const Float* EncodePacked(const batched::PackedBatch& batch, const Float* x,
                            int in_dim) const override;
  /// "bilstm" or "bigru".
  const char* packed_kind() const override { return layers_.front()->kind(); }

 private:
  int hidden_dim_;
  Float dropout_;
  Rng* rng_;  // not owned
  std::vector<std::unique_ptr<BiRnn>> layers_;
};

}  // namespace dlner::encoders

#endif  // DLNER_ENCODERS_RNN_ENCODER_H_
