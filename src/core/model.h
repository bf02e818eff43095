// NerModel: the composed NER system of the survey's Fig. 2 taxonomy —
// distributed input representation -> context encoder -> tag decoder —
// assembled from a NerConfig. This is the toolkit's central class.
#ifndef DLNER_CORE_MODEL_H_
#define DLNER_CORE_MODEL_H_

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/gazetteer.h"
#include "decoders/decoder.h"
#include "embeddings/features.h"
#include "embeddings/lm.h"
#include "embeddings/sgns.h"
#include "encoders/encoder.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "text/tagging.h"
#include "text/vocab.h"

namespace dlner::core {

/// External pre-trained resources a model may consume. All pointers are
/// borrowed; the caller keeps them alive for the model's lifetime.
struct Resources {
  const embeddings::SkipGramModel* sgns = nullptr;  // pre-trained word vecs
  const embeddings::CharLm* char_lm = nullptr;      // contextual string emb
  const embeddings::TokenLm* token_lm = nullptr;    // token LM embeddings
  const data::Gazetteer* gazetteer = nullptr;       // typed phrase lists
};

class NerModel : public Module {
 public:
  /// Builds vocabularies from `train` and assembles the architecture
  /// selected by `config`. `entity_types` fixes the label inventory.
  NerModel(const NerConfig& config, const text::Corpus& train,
           std::vector<std::string> entity_types,
           const Resources& resources = {});

  /// Variant with explicit vocabularies (used by Pipeline::Load).
  NerModel(const NerConfig& config, text::Vocabulary word_vocab,
           text::Vocabulary char_vocab,
           std::vector<std::string> entity_types,
           const Resources& resources = {});

  ~NerModel() override = default;

  /// Training loss for one annotated sentence. Virtual so applied-DL
  /// wrappers (multi-task, adversarial) can extend it.
  virtual Var Loss(const text::Sentence& sentence, bool training = true);

  /// Predictions for every sentence of a corpus, in corpus order: the one
  /// inference entry. Sentences run through the compiled batched plan in
  /// packed micro-batches spread over the thread pool; results are
  /// identical to the eager per-sentence forward (Represent, EncodeTokens,
  /// decoder()->Predict; the differential suite's oracle), empty sentences
  /// yield empty vectors. Safe to call concurrently on a shared model.
  std::vector<std::vector<text::Span>> PredictCorpus(
      const text::Corpus& corpus) const;

  /// Exact-match evaluation of PredictCorpus over a corpus; bit-identical
  /// across thread counts.
  eval::ExactResult Evaluate(const text::Corpus& corpus) const;

  std::vector<Var> Parameters() const override;

  // --- Hooks for applied-DL techniques (Section 4) ---
  /// Input representation [T, rep_dim]; the node is retained so callers can
  /// read its gradient after Backward (adversarial training).
  Var Represent(const std::vector<std::string>& tokens, bool training) const;
  /// Encoder output for a representation matrix and its tokens, as Loss
  /// computes it and the plan reproduces it.
  Var EncodeTokens(const Var& representation,
                   const std::vector<std::string>& tokens,
                   bool training) const;
  /// Loss computed from an externally supplied (possibly perturbed)
  /// representation.
  Var LossFromRepresentation(const Var& representation,
                             const text::Sentence& gold, bool training) const;

  const NerConfig& config() const { return config_; }
  const text::Vocabulary& word_vocab() const { return word_vocab_; }
  const text::Vocabulary& char_vocab() const { return char_vocab_; }
  const std::vector<std::string>& entity_types() const {
    return entity_types_;
  }
  /// Tag set; null for segment-level decoders (semicrf, pointer).
  const text::TagSet* tag_set() const { return tags_.get(); }
  embeddings::ComposedRepresentation* representation() {
    return representation_.get();
  }
  encoders::ContextEncoder* encoder() { return encoder_.get(); }
  decoders::TagDecoder* decoder() { return decoder_.get(); }
  const decoders::TagDecoder* decoder() const { return decoder_.get(); }
  Rng* rng() { return &rng_; }

  /// The compiled inference plan for this model's architecture. Built
  /// lazily on first use (under a "plan/compile" span) and cached.
  const plan::InferencePlan& plan() const;

 private:
  void Build(const Resources& resources);

  /// PredictCorpus without its span and throughput accounting (Evaluate
  /// records its own).
  std::vector<std::vector<text::Span>> PredictPlanned(
      const text::Corpus& corpus) const;

  NerConfig config_;
  Rng rng_;
  text::Vocabulary word_vocab_;
  text::Vocabulary char_vocab_;
  std::vector<std::string> entity_types_;
  std::unique_ptr<text::TagSet> tags_;
  std::unique_ptr<embeddings::ComposedRepresentation> representation_;
  std::unique_ptr<encoders::ContextEncoder> encoder_;
  std::unique_ptr<decoders::TagDecoder> decoder_;

  mutable std::once_flag plan_once_;
  mutable std::unique_ptr<plan::InferencePlan> plan_;

  // Per-module wall-time instruments, registered once in Build under names
  // carrying the configured module kinds (e.g. "encoder.bilstm.forward_us")
  // and observed only while obs::MetricsEnabled().
  obs::Histogram* repr_forward_us_ = nullptr;
  obs::Histogram* encoder_forward_us_ = nullptr;
  obs::Histogram* decoder_loss_us_ = nullptr;
};

}  // namespace dlner::core

#endif  // DLNER_CORE_MODEL_H_
