#include "embeddings/features.h"

#include <algorithm>
#include <cctype>
#include <cstring>

namespace dlner::embeddings {

// ---------------------------------------------------------------------------
// TokenFeature: the eager bridge, and the frozen features' Forward.
// ---------------------------------------------------------------------------

void TokenFeature::FillPacked(const batched::PackedBatch& batch, Float* dst,
                              int stride) const {
  const int d = dim();
  for (int b = 0; b < batch.batch(); ++b) {
    const Var v = Forward(batch.tokens(b), /*training=*/false);
    const Tensor& m = v->value;
    const int off = batch.layout->offset(b);
    for (int t = 0; t < batch.layout->len(b); ++t) {
      std::memcpy(dst + static_cast<std::size_t>(off + t) * stride,
                  m.data() + static_cast<std::size_t>(t) * d,
                  d * sizeof(Float));
    }
  }
}

Var FrozenForward(const TokenFeature& feature,
                  const std::vector<std::string>& tokens) {
  thread_local Arena arena;  // as in InferencePlan::Execute
  const Arena::Scope scratch(&arena);
  batched::BatchLayout layout;
  layout.Add(static_cast<int>(tokens.size()));
  const std::vector<const std::vector<std::string>*> sentences{&tokens};
  const batched::PackedBatch batch{&arena, &layout, &sentences};
  const int d = feature.dim();
  Tensor out({layout.rows(), d});
  feature.FillPacked(batch, out.data(), d);
  return Constant(std::move(out));
}

// ---------------------------------------------------------------------------
// WordEmbeddingFeature.
// ---------------------------------------------------------------------------

WordEmbeddingFeature::WordEmbeddingFeature(const text::Vocabulary* vocab,
                                           int dim, Rng* rng,
                                           Float unk_dropout,
                                           const std::string& name)
    : vocab_(vocab),
      rng_(rng),
      unk_dropout_(unk_dropout),
      embedding_(std::make_unique<Embedding>(vocab->size(), dim, rng, name)) {
  DLNER_CHECK(vocab_ != nullptr);
  DLNER_CHECK_GE(unk_dropout_, 0.0);
  DLNER_CHECK_LT(unk_dropout_, 1.0);
}

Var WordEmbeddingFeature::Forward(const std::vector<std::string>& tokens,
                                  bool training) const {
  std::vector<int> ids = vocab_->Encode(tokens);
  if (training && unk_dropout_ > 0.0) {
    for (int& id : ids) {
      if (rng_->Bernoulli(unk_dropout_)) id = text::Vocabulary::kUnkId;
    }
  }
  return embedding_->Lookup(ids);
}

void WordEmbeddingFeature::FillPacked(const batched::PackedBatch& batch,
                                      Float* dst, int stride) const {
  const Tensor& table = embedding_->table()->value;
  const int d = dim();
  for (int b = 0; b < batch.batch(); ++b) {
    const std::vector<int> ids = vocab_->Encode(batch.tokens(b));
    const int off = batch.layout->offset(b);
    for (int t = 0; t < batch.layout->len(b); ++t) {
      std::memcpy(dst + static_cast<std::size_t>(off + t) * stride,
                  table.data() + static_cast<std::size_t>(ids[t]) * d,
                  d * sizeof(Float));
    }
  }
}

// ---------------------------------------------------------------------------
// WordShapeFeature.
// ---------------------------------------------------------------------------

std::vector<Float> WordShapeFeature::ShapeOf(const std::string& word) {
  int upper = 0, lower = 0, digit = 0, punct = 0;
  for (char ch : word) {
    const unsigned char c = static_cast<unsigned char>(ch);
    if (std::isupper(c)) {
      ++upper;
    } else if (std::islower(c)) {
      ++lower;
    } else if (std::isdigit(c)) {
      ++digit;
    } else {
      ++punct;
    }
  }
  const int len = static_cast<int>(word.size());
  const bool init_cap =
      !word.empty() && std::isupper(static_cast<unsigned char>(word[0]));
  std::vector<Float> f(kDim, 0.0);
  f[0] = (len > 0 && upper == len) ? 1.0 : 0.0;        // ALLCAPS
  f[1] = init_cap ? 1.0 : 0.0;                         // Initial cap
  f[2] = (upper > 0 && !init_cap) ? 1.0 : 0.0;         // has inner cap
  f[3] = (len > 0 && lower == len) ? 1.0 : 0.0;        // all lower
  f[4] = digit > 0 ? 1.0 : 0.0;                        // has digit
  f[5] = (len > 0 && digit == len) ? 1.0 : 0.0;        // all digit
  f[6] = punct > 0 ? 1.0 : 0.0;                        // has punct/symbol
  f[7] = std::min(len, 10) / 10.0;                     // scaled length
  return f;
}

void WordShapeFeature::FillPacked(const batched::PackedBatch& batch,
                                  Float* dst, int stride) const {
  for (int b = 0; b < batch.batch(); ++b) {
    for (const std::string& token : batch.tokens(b)) {
      const std::vector<Float> shape = ShapeOf(token);
      std::memcpy(dst, shape.data(), shape.size() * sizeof(Float));
      dst += stride;
    }
  }
}

// ---------------------------------------------------------------------------
// GazetteerFeature.
// ---------------------------------------------------------------------------

GazetteerFeature::GazetteerFeature(const data::Gazetteer* gazetteer)
    : gazetteer_(gazetteer) {
  DLNER_CHECK(gazetteer_ != nullptr);
}

int GazetteerFeature::dim() const {
  return static_cast<int>(gazetteer_->types().size());
}

void GazetteerFeature::FillPacked(const batched::PackedBatch& batch,
                                  Float* dst, int stride) const {
  for (int b = 0; b < batch.batch(); ++b) {
    for (const auto& row : gazetteer_->MatchFeatures(batch.tokens(b))) {
      std::memcpy(dst, row.data(), row.size() * sizeof(Float));
      dst += stride;
    }
  }
}

// ---------------------------------------------------------------------------
// ComposedRepresentation.
// ---------------------------------------------------------------------------

ComposedRepresentation::ComposedRepresentation(
    std::vector<std::unique_ptr<TokenFeature>> features, Float dropout,
    Rng* rng)
    : features_(std::move(features)), dropout_(dropout), rng_(rng), dim_(0) {
  DLNER_CHECK(!features_.empty());
  for (const auto& f : features_) dim_ += f->dim();
}

Var ComposedRepresentation::Forward(const std::vector<std::string>& tokens,
                                    bool training) const {
  DLNER_CHECK(!tokens.empty());
  std::vector<Var> parts;
  parts.reserve(features_.size());
  for (const auto& f : features_) parts.push_back(f->Forward(tokens, training));
  Var out = parts.size() == 1 ? parts[0] : Concat(parts);
  return Dropout(out, dropout_, rng_, training);
}

void ComposedRepresentation::FillPacked(const batched::PackedBatch& batch,
                                        Float* dst, int stride) const {
  int col = 0;
  for (const auto& f : features_) {
    f->FillPacked(batch, dst + col, stride);
    col += f->dim();
  }
}

const char* ComposedRepresentation::packed_kind() const {
  const bool packed =
      std::all_of(features_.begin(), features_.end(),
                  [](const auto& f) { return f->packed_kind() != nullptr; });
  return packed ? "batched" : nullptr;
}

std::vector<Var> ComposedRepresentation::Parameters() const {
  std::vector<Var> all;
  for (const auto& f : features_) {
    for (const Var& p : f->Parameters()) all.push_back(p);
  }
  return all;
}

}  // namespace dlner::embeddings
