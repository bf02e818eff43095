// Distributed representations for input (survey Section 3.2).
//
// A TokenFeature maps a token sequence to a [T, d] feature matrix. The
// ComposedRepresentation concatenates several features per token — exactly
// the hybrid-representation recipe of the Table 3 systems (word embedding
// + char-CNN/RNN + word shape + gazetteer + LM embeddings).
#ifndef DLNER_EMBEDDINGS_FEATURES_H_
#define DLNER_EMBEDDINGS_FEATURES_H_

#include <memory>
#include <string>
#include <vector>

#include "data/gazetteer.h"
#include "tensor/batched.h"
#include "tensor/nn.h"
#include "text/vocab.h"

namespace dlner::embeddings {

/// Per-token feature extractor producing a [T, dim] matrix.
class TokenFeature : public Module {
 public:
  /// Const so a shared model can run concurrent forward passes; the rng is
  /// only touched when `training` is true.
  virtual Var Forward(const std::vector<std::string>& tokens,
                      bool training) const = 0;
  virtual int dim() const = 0;

  /// Inference over a packed micro-batch: writes this feature's
  /// [batch.rows(), dim()] rows into the packed representation, packed row
  /// r at `dst + r * stride`. Must equal Forward(tokens, false) bit for
  /// bit. The default is an eager bridge: Forward per sentence, rows copied
  /// out.
  virtual void FillPacked(const batched::PackedBatch& batch, Float* dst,
                          int stride) const;
  /// Non-null when FillPacked is a packed kernel rather than the eager
  /// bridge.
  virtual const char* packed_kind() const { return nullptr; }
};

/// Forward of a feature with nothing to learn, written once as its
/// FillPacked (which it must override): that fill over `tokens` as a
/// one-sentence batch, returned as a Constant [T, feature.dim()].
Var FrozenForward(const TokenFeature& feature,
                  const std::vector<std::string>& tokens);

/// Trainable word-embedding lookup (survey Section 3.2.1). The table can be
/// initialized from pre-trained vectors (see SkipGramModel::CopyInto) and
/// optionally frozen.
class WordEmbeddingFeature : public TokenFeature {
 public:
  /// `unk_dropout` is word-level dropout (Lample et al.): during training
  /// each token is replaced by UNK with this probability, forcing the model
  /// to rely on character/context signals — the standard recipe for making
  /// character representations pay off on unseen entities.
  WordEmbeddingFeature(const text::Vocabulary* vocab, int dim, Rng* rng,
                       Float unk_dropout = 0.0,
                       const std::string& name = "word_emb");

  Var Forward(const std::vector<std::string>& tokens,
              bool training) const override;
  int dim() const override { return embedding_->dim(); }
  std::vector<Var> Parameters() const override {
    return embedding_->Parameters();
  }
  void FillPacked(const batched::PackedBatch& batch, Float* dst,
                  int stride) const override;
  const char* packed_kind() const override { return "word"; }
  Embedding* embedding() { return embedding_.get(); }
  const Embedding& embedding() const { return *embedding_; }

 private:
  const text::Vocabulary* vocab_;  // not owned
  Rng* rng_;                       // not owned
  Float unk_dropout_;
  std::unique_ptr<Embedding> embedding_;
};

/// Hand-crafted word-shape features (capitalization pattern, digits,
/// punctuation, length) — the survey's Section 3.2.3 hybrid add-ons
/// (Strubell et al., Chiu & Nichols). Parameter-free and deterministic.
class WordShapeFeature : public TokenFeature {
 public:
  static constexpr int kDim = 8;

  Var Forward(const std::vector<std::string>& tokens, bool) const override {
    return FrozenForward(*this, tokens);
  }
  int dim() const override { return kDim; }
  std::vector<Var> Parameters() const override { return {}; }
  void FillPacked(const batched::PackedBatch& batch, Float* dst,
                  int stride) const override;
  const char* packed_kind() const override { return "shape"; }

  /// Shape vector of a single word (exposed for tests).
  static std::vector<Float> ShapeOf(const std::string& word);
};

/// Gazetteer type-membership indicators (survey Section 3.2.3; Huang et
/// al.'s gazetteer features). Parameter-free; dimension = #gazetteer types.
class GazetteerFeature : public TokenFeature {
 public:
  explicit GazetteerFeature(const data::Gazetteer* gazetteer);

  Var Forward(const std::vector<std::string>& tokens, bool) const override {
    return FrozenForward(*this, tokens);
  }
  int dim() const override;
  std::vector<Var> Parameters() const override { return {}; }
  void FillPacked(const batched::PackedBatch& batch, Float* dst,
                  int stride) const override;
  const char* packed_kind() const override { return "gazetteer"; }

 private:
  const data::Gazetteer* gazetteer_;  // not owned
};

/// Concatenation of component features with optional input dropout — the
/// "distributed representations for input" stage of Fig. 2.
class ComposedRepresentation : public TokenFeature {
 public:
  ComposedRepresentation(std::vector<std::unique_ptr<TokenFeature>> features,
                         Float dropout, Rng* rng);

  Var Forward(const std::vector<std::string>& tokens,
              bool training) const override;
  int dim() const override { return dim_; }
  std::vector<Var> Parameters() const override;
  /// Each feature fills its own column range, in order.
  void FillPacked(const batched::PackedBatch& batch, Float* dst,
                  int stride) const override;
  /// "batched" when every feature has a packed kernel, else null.
  const char* packed_kind() const override;

 private:
  std::vector<std::unique_ptr<TokenFeature>> features_;
  Float dropout_;
  Rng* rng_;  // not owned
  int dim_;
};

}  // namespace dlner::embeddings

#endif  // DLNER_EMBEDDINGS_FEATURES_H_
