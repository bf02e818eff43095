#include "encoders/cnn.h"

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::encoders {

CnnEncoder::CnnEncoder(int in_dim, int hidden_dim, int num_layers,
                       bool global_feature, Rng* rng, const std::string& name)
    : hidden_dim_(hidden_dim), global_feature_(global_feature) {
  DLNER_CHECK_GE(num_layers, 1);
  int d = in_dim;
  for (int l = 0; l < num_layers; ++l) {
    layers_.push_back(std::make_unique<Conv1d>(
        d, hidden_dim, /*width=*/3, /*dilation=*/1, rng,
        name + ".conv" + std::to_string(l)));
    d = hidden_dim;
  }
}

Var CnnEncoder::Encode(const Var& input, const std::vector<std::string>&,
                       bool /*training*/) const {
  obs::ScopedSpan span("encode/cnn");
  Var h = input;
  for (const auto& layer : layers_) h = Relu(layer->Apply(h));
  if (!global_feature_) return h;
  // Global sentence vector broadcast to every position (Fig. 5's fixed-size
  // global feature).
  Var global = MaxOverRows(h);  // [hidden]
  const int t_len = h->value.rows();
  std::vector<Var> rows;
  rows.reserve(t_len);
  for (int t = 0; t < t_len; ++t) {
    rows.push_back(Concat({Row(h, t), global}));
  }
  return StackRows(rows);
}

const Float* CnnEncoder::EncodePacked(const batched::PackedBatch& batch,
                                      const Float* x, int in_dim) const {
  obs::ScopedSpan span("encode/cnn");
  const Float* h = x;
  int d = in_dim;
  for (const auto& layer : layers_) {
    Float* conv = batch.AllocRows(hidden_dim_);
    batched::ConvSegments(h, d, *batch.layout, layer->width(),
                          layer->dilation(), layer->weight()->value,
                          layer->bias()->value, conv, batched::Act::kRelu);
    h = conv;
    d = hidden_dim_;
  }
  if (!global_feature_) return h;
  Float* g = batch.AllocRows(2 * hidden_dim_);
  batched::GlobalMaxConcat(h, hidden_dim_, *batch.layout, g);
  return g;
}

int CnnEncoder::out_dim() const {
  return global_feature_ ? 2 * hidden_dim_ : hidden_dim_;
}

std::vector<Var> CnnEncoder::Parameters() const {
  std::vector<Var> all;
  for (const auto& l : layers_) {
    for (const Var& p : l->Parameters()) all.push_back(p);
  }
  return all;
}

IdCnnEncoder::IdCnnEncoder(int in_dim, int hidden_dim,
                           std::vector<int> dilations, int iterations,
                           Rng* rng, const std::string& name)
    : hidden_dim_(hidden_dim), iterations_(iterations) {
  DLNER_CHECK(!dilations.empty());
  DLNER_CHECK_GE(iterations, 1);
  project_ =
      std::make_unique<Linear>(in_dim, hidden_dim, rng, name + ".proj");
  for (size_t i = 0; i < dilations.size(); ++i) {
    block_.push_back(std::make_unique<Conv1d>(
        hidden_dim, hidden_dim, /*width=*/3, dilations[i], rng,
        name + ".dil" + std::to_string(dilations[i]) + "_" +
            std::to_string(i)));
    norms_.push_back(std::make_unique<LayerNorm>(
        hidden_dim, name + ".norm" + std::to_string(i)));
  }
}

Var IdCnnEncoder::Encode(const Var& input, const std::vector<std::string>&,
                         bool /*training*/) const {
  obs::ScopedSpan span("encode/idcnn");
  Var h = Relu(project_->Apply(input));
  // The same block (shared parameters) is iterated, which is what lets
  // ID-CNNs cover large contexts without parameter growth.
  for (int it = 0; it < iterations_; ++it) {
    for (size_t i = 0; i < block_.size(); ++i) {
      h = norms_[i]->Apply(Relu(block_[i]->Apply(h)));
    }
  }
  return h;
}

const Float* IdCnnEncoder::EncodePacked(const batched::PackedBatch& batch,
                                        const Float* x,
                                        int /*in_dim*/) const {
  obs::ScopedSpan span("encode/idcnn");
  Float* h = batch.AllocRows(hidden_dim_);
  batched::Affine(x, batch.rows(), project_->weight()->value,
                  project_->bias()->value, h, batched::Act::kRelu);
  for (int it = 0; it < iterations_; ++it) {
    for (size_t i = 0; i < block_.size(); ++i) {
      const Conv1d& conv = *block_[i];
      Float* c = batch.AllocRows(hidden_dim_);
      batched::ConvSegments(h, hidden_dim_, *batch.layout, conv.width(),
                            conv.dilation(), conv.weight()->value,
                            conv.bias()->value, c, batched::Act::kRelu);
      Float* normed = batch.AllocRows(hidden_dim_);
      batched::LayerNormRows(c, batch.rows(), hidden_dim_,
                             norms_[i]->gain()->value, norms_[i]->bias()->value,
                             normed);
      h = normed;
    }
  }
  return h;
}

std::vector<Var> IdCnnEncoder::Parameters() const {
  std::vector<Var> all = project_->Parameters();
  for (const auto& c : block_) {
    for (const Var& p : c->Parameters()) all.push_back(p);
  }
  for (const auto& n : norms_) {
    for (const Var& p : n->Parameters()) all.push_back(p);
  }
  return all;
}

}  // namespace dlner::encoders
