#include "encoders/encoder.h"

#include "obs/trace.h"

namespace dlner::encoders {

MlpEncoder::MlpEncoder(int in_dim, int hidden_dim, Rng* rng,
                       const std::string& name)
    : hidden_(std::make_unique<Linear>(in_dim, hidden_dim, rng, name)) {}

Var MlpEncoder::Encode(const Var& input, const std::vector<std::string>&,
                       bool /*training*/) const {
  obs::ScopedSpan span("encode/mlp");
  return hidden_->ApplyTanh(input);
}

}  // namespace dlner::encoders
