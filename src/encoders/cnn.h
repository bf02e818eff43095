// Convolutional context encoders (survey Section 3.3.1).
//
// CnnEncoder is Collobert et al.'s sentence approach network (Fig. 5):
// stacked same-length convolutions produce local features, and a global
// max-pooled sentence vector is concatenated to every position so each
// token is tagged "with the consideration of the whole sentence".
//
// IdCnnEncoder is Strubell et al.'s Iterated Dilated CNN (Fig. 6): a block
// of dilated convolutions (dilation 1, 2, 4, ...) applied repeatedly with
// shared parameters, giving exponentially growing receptive fields with
// fixed depth — the architecture behind the paper's 14-20x test-time
// speedup claim over BiLSTMs.
#ifndef DLNER_ENCODERS_CNN_H_
#define DLNER_ENCODERS_CNN_H_

#include <memory>
#include <string>
#include <vector>

#include "encoders/encoder.h"

namespace dlner::encoders {

class CnnEncoder : public ContextEncoder {
 public:
  /// `num_layers` stacked width-3 convolutions with ReLU. When
  /// `global_feature` is true, the max-pooled sentence vector is appended
  /// to every token representation (doubling out_dim).
  CnnEncoder(int in_dim, int hidden_dim, int num_layers, bool global_feature,
             Rng* rng, const std::string& name = "cnn_enc");

  Var Encode(const Var& input, const std::vector<std::string>& tokens,
             bool training) const override;
  int out_dim() const override;
  std::vector<Var> Parameters() const override;
  const Float* EncodePacked(const batched::PackedBatch& batch, const Float* x,
                            int in_dim) const override;
  const char* packed_kind() const override { return "cnn"; }

 private:
  int hidden_dim_;
  bool global_feature_;
  std::vector<std::unique_ptr<Conv1d>> layers_;
};

class IdCnnEncoder : public ContextEncoder {
 public:
  /// One block = dilated width-3 convolutions with the given dilations;
  /// the block is applied `iterations` times with shared parameters.
  IdCnnEncoder(int in_dim, int hidden_dim, std::vector<int> dilations,
               int iterations, Rng* rng, const std::string& name = "idcnn");

  Var Encode(const Var& input, const std::vector<std::string>& tokens,
             bool training) const override;
  int out_dim() const override { return hidden_dim_; }
  std::vector<Var> Parameters() const override;
  const Float* EncodePacked(const batched::PackedBatch& batch, const Float* x,
                            int in_dim) const override;
  const char* packed_kind() const override { return "idcnn"; }

 private:
  int hidden_dim_;
  int iterations_;
  std::unique_ptr<Linear> project_;  // in_dim -> hidden
  std::vector<std::unique_ptr<Conv1d>> block_;
  // One LayerNorm per block conv (shared across iterations, like the conv
  // weights): keeps the deep iterated ReLU stack trainable at normal
  // learning rates.
  std::vector<std::unique_ptr<LayerNorm>> norms_;
};

}  // namespace dlner::encoders

#endif  // DLNER_ENCODERS_CNN_H_
