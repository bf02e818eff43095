// Pipeline: the end-user facade of the toolkit (survey Section 5.2's
// "easy-to-use toolkit ... with standardized modules"): train a model on an
// annotated corpus, tag new text, and persist/restore the whole system.
#ifndef DLNER_CORE_PIPELINE_H_
#define DLNER_CORE_PIPELINE_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/model.h"
#include "core/trainer.h"

namespace dlner::core {

class Pipeline {
 public:
  /// Trains a fresh model. `dev` may be null. Resources are borrowed and
  /// only needed while the pipeline is alive.
  static std::unique_ptr<Pipeline> Train(
      const NerConfig& config, const TrainConfig& train_config,
      const text::Corpus& train, const text::Corpus* dev,
      std::vector<std::string> entity_types,
      const Resources& resources = {});

  /// Tags a pre-tokenized sentence: a one-sentence TagCorpus, so it runs
  /// the compiled plan. An empty token list yields no spans.
  std::vector<text::Span> Tag(const std::vector<std::string>& tokens) const;

  /// Whitespace-tokenizes and tags a raw string.
  text::Sentence TagText(const std::string& raw) const;

  /// Tags every sentence of a corpus in parallel (see
  /// NerModel::PredictCorpus); predictions are returned in corpus order.
  std::vector<std::vector<text::Span>> TagCorpus(
      const text::Corpus& corpus) const;

  /// Exact-match evaluation on a corpus (parallel over sentences).
  eval::ExactResult Evaluate(const text::Corpus& corpus) const;

  /// Persists config + entity types + vocabularies + external resources +
  /// parameters (checkpoint format v2, see docs/EXTENDING.md). Models that
  /// use a gazetteer, char-LM, or token-LM serialize those resources into
  /// the checkpoint, so every taxonomy cell round-trips. Pre-trained word
  /// vectors (Resources::sgns) need no block of their own: they only
  /// initialize the word embedding, which is saved as a parameter.
  bool Save(const std::string& path) const;

  /// Stream variant of Save(). The file overload delegates here; exposed so
  /// checkpoints can be written to in-memory buffers (tests, fuzzers,
  /// network transports) without touching the filesystem.
  bool Save(std::ostream& os) const;

  /// Restores a pipeline saved with Save(), reconstructing a self-contained
  /// copy of any serialized resources (owned by the pipeline). Returns null
  /// on any malformed, truncated, or version-mismatched checkpoint; no
  /// failure mode crashes or allocates unbounded memory.
  static std::unique_ptr<Pipeline> Load(const std::string& path);

  /// Stream variant of Load(); same rejection guarantees.
  static std::unique_ptr<Pipeline> Load(std::istream& is);

  NerModel* model() { return model_.get(); }
  const NerModel* model() const { return model_.get(); }
  const TrainResult& train_result() const { return train_result_; }

  /// The resources the model was built with (borrowed at Train time, owned
  /// after Load). Pointers are null for unused resource kinds.
  const Resources& resources() const { return resources_; }

 private:
  Pipeline() = default;

  // Owned reconstructions of checkpointed resources (set by Load). Declared
  // before model_: the model borrows them, so they must outlive it.
  std::unique_ptr<data::Gazetteer> owned_gazetteer_;
  std::unique_ptr<embeddings::CharLm> owned_char_lm_;
  std::unique_ptr<embeddings::TokenLm> owned_token_lm_;
  Resources resources_;

  std::unique_ptr<NerModel> model_;
  TrainResult train_result_;
};

}  // namespace dlner::core

#endif  // DLNER_CORE_PIPELINE_H_
