#include "encoders/encoder.h"

#include <cstring>

#include "obs/trace.h"

namespace dlner::encoders {

const Float* ContextEncoder::EncodePacked(const batched::PackedBatch& batch,
                                          const Float* x, int in_dim) const {
  const int d = out_dim();
  Float* out = batch.AllocRows(d);
  for (int b = 0; b < batch.batch(); ++b) {
    const Var encoded = Encode(Constant(batch.SegmentRows(x, in_dim, b)),
                               batch.tokens(b), /*training=*/false);
    std::memcpy(out + static_cast<std::size_t>(batch.layout->offset(b)) * d,
                encoded->value.data(),
                static_cast<std::size_t>(encoded->value.size()) *
                    sizeof(Float));
  }
  return out;
}

MlpEncoder::MlpEncoder(int in_dim, int hidden_dim, Rng* rng,
                       const std::string& name)
    : hidden_(std::make_unique<Linear>(in_dim, hidden_dim, rng, name)) {}

Var MlpEncoder::Encode(const Var& input, const std::vector<std::string>&,
                       bool /*training*/) const {
  obs::ScopedSpan span("encode/mlp");
  return hidden_->ApplyTanh(input);
}

const Float* MlpEncoder::EncodePacked(const batched::PackedBatch& batch,
                                      const Float* x, int /*in_dim*/) const {
  obs::ScopedSpan span("encode/mlp");
  Float* out = batch.AllocRows(out_dim());
  batched::Affine(x, batch.rows(), hidden_->weight()->value,
                  hidden_->bias()->value, out, batched::Act::kTanh);
  return out;
}

}  // namespace dlner::encoders
