// Transformer context encoder (survey Section 3.3.5; Vaswani et al.).
//
// Sinusoidal position encodings, multi-head scaled dot-product
// self-attention, position-wise feed-forward blocks, residual connections
// and layer normalization (post-norm). Self-attention cost is O(n^2 * d)
// versus O(n * d^2) for recurrence — the complexity trade-off the survey
// highlights in Section 3.5 and that bench_complexity_crossover measures.
#ifndef DLNER_ENCODERS_TRANSFORMER_H_
#define DLNER_ENCODERS_TRANSFORMER_H_

#include <memory>
#include <string>
#include <vector>

#include "encoders/encoder.h"

namespace dlner::encoders {

/// Multi-head scaled dot-product self-attention over [T, model_dim].
class MultiHeadAttention : public Module {
 public:
  MultiHeadAttention(int model_dim, int num_heads, Rng* rng,
                     const std::string& name = "mha");

  /// Self-attention: queries, keys, and values all come from `x`.
  Var Apply(const Var& x) const;

  std::vector<Var> Parameters() const override;
  int model_dim() const { return model_dim_; }
  int num_heads() const { return num_heads_; }

 private:
  int model_dim_;
  int num_heads_;
  int head_dim_;
  std::unique_ptr<Linear> wq_;
  std::unique_ptr<Linear> wk_;
  std::unique_ptr<Linear> wv_;
  std::unique_ptr<Linear> wo_;
};

class TransformerEncoder : public ContextEncoder {
 public:
  TransformerEncoder(int in_dim, int model_dim, int num_heads, int ffn_dim,
                     int num_layers, Float dropout, Rng* rng,
                     const std::string& name = "transformer");

  Var Encode(const Var& input, const std::vector<std::string>& tokens,
             bool training) const override;
  int out_dim() const override { return model_dim_; }
  std::vector<Var> Parameters() const override;

 private:
  struct Block {
    std::unique_ptr<MultiHeadAttention> attention;
    std::unique_ptr<Linear> ffn1;
    std::unique_ptr<Linear> ffn2;
    std::unique_ptr<LayerNorm> norm1;
    std::unique_ptr<LayerNorm> norm2;
  };

  /// Sinusoidal position encodings [t_len, model_dim].
  Tensor PositionEncodings(int t_len) const;

  int model_dim_;
  Float dropout_;
  Rng* rng_;  // not owned
  std::unique_ptr<Linear> input_proj_;
  std::vector<Block> blocks_;
};

}  // namespace dlner::encoders

#endif  // DLNER_ENCODERS_TRANSFORMER_H_
