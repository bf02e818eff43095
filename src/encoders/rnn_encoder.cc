#include "encoders/rnn_encoder.h"

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::encoders {

RnnEncoder::RnnEncoder(const std::string& kind, int in_dim, int hidden_dim,
                       int num_layers, Float dropout, Rng* rng,
                       const std::string& name)
    : hidden_dim_(hidden_dim), dropout_(dropout), rng_(rng) {
  DLNER_CHECK_GE(num_layers, 1);
  int d = in_dim;
  for (int l = 0; l < num_layers; ++l) {
    layers_.push_back(std::make_unique<BiRnn>(
        kind, d, hidden_dim, rng, name + ".layer" + std::to_string(l)));
    d = 2 * hidden_dim;
  }
}

Var RnnEncoder::Encode(const Var& input, const std::vector<std::string>&,
                       bool training) const {
  obs::ScopedSpan span("encode/rnn");
  Var h = input;
  for (size_t l = 0; l < layers_.size(); ++l) {
    h = layers_[l]->Apply(h);
    if (l + 1 < layers_.size()) {
      h = Dropout(h, dropout_, rng_, training);
    }
  }
  return h;
}

const Float* RnnEncoder::EncodePacked(const batched::PackedBatch& batch,
                                      const Float* x, int in_dim) const {
  obs::ScopedSpan span("encode/rnn");
  const Float* h = x;
  int d = in_dim;
  for (const auto& layer : layers_) {
    Float* out = batch.AllocRows(layer->out_dim());
    layer->ApplyPacked(h, d, *batch.layout, out, batch.arena);
    h = out;
    d = layer->out_dim();
  }
  return h;
}

std::vector<Var> RnnEncoder::Parameters() const {
  std::vector<Var> all;
  for (const auto& l : layers_) {
    for (const Var& p : l->Parameters()) all.push_back(p);
  }
  return all;
}

}  // namespace dlner::encoders
