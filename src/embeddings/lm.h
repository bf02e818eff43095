// Neural language models for contextualized embeddings (survey Sections
// 3.3.4 and 3.2.3). Both are a BiLstmLm: independent forward and backward
// LSTM language models over one unit inventory, pre-trained once on
// unlabeled text and used frozen ("pre-trained language model embeddings").
//
// CharLm reproduces the contextual string embeddings of Akbik et al.
// (Fig. 4): a word's embedding concatenates the forward hidden state at its
// last character with the backward hidden state at its first character.
// Tokenization-independent and vocabulary-free.
//
// TokenLm is an ELMo-style token-level bidirectional LM (Peters et al.,
// TagLM): forward and backward word-level LSTM LMs whose hidden states are
// concatenated per token.
#ifndef DLNER_EMBEDDINGS_LM_H_
#define DLNER_EMBEDDINGS_LM_H_

#include <memory>
#include <string>
#include <vector>

#include "embeddings/features.h"
#include "tensor/optim.h"
#include "tensor/rnn.h"
#include "text/vocab.h"

namespace dlner::embeddings {

/// Forward and backward LSTM language models over the unit ids of one
/// vocabulary: the shared core of CharLm and TokenLm.
class BiLstmLm : public Module {
 public:
  /// Contextual embeddings of every packed token row of `batch`, row r at
  /// `dst + r * stride`. Value-only: the LM is frozen.
  virtual void Fill(const batched::PackedBatch& batch, Float* dst,
                    int stride) const = 0;

  int dim() const { return 2 * hidden_dim_; }
  /// Empty until the modules are built.
  std::vector<Var> Parameters() const override;

  /// The unit inventory, the unit embedding and the two direction LSTMs.
  const text::Vocabulary& vocab() const { return vocab_; }
  const Embedding& embedding() const { return *embedding_; }
  const LstmCell& forward_lm() const { return *fwd_; }
  const LstmCell& backward_lm() const { return *bwd_; }

 protected:
  /// Parameters are named `<prefix>.emb`, `.fwd`, `.bwd`, `.fwd_out` and
  /// `.bwd_out`; initialization draws from `seed` in that order.
  BiLstmLm(const std::string& prefix, int unit_dim, int hidden_dim,
           uint64_t seed);

  /// (Re)creates the modules sized to vocab_.
  void Build();
  bool built() const { return embedding_ != nullptr; }

  /// Mean next-unit NLL of `ids` (at least two) read in one direction.
  Var DirectionLoss(const std::vector<int>& ids, bool backward) const;
  /// The one pre-training loop: `epochs` passes of Adam at `lr` over
  /// `sequences`, one clipped step per sequence and direction. Returns the
  /// last epoch's mean NLL over every sequence and direction; a sequence of
  /// fewer than two ids counts as NLL 0 and takes no step.
  Float TrainSequences(const std::vector<std::vector<int>>& sequences,
                       int epochs, double lr);

  /// Hidden states [segments.rows(), 2*hidden] in `arena` after each unit
  /// of `ids`, every (non-empty) segment read as one sequence: the forward
  /// LM's in the first half of a row, the backward LM's in the second.
  const Float* States(const std::vector<int>& ids,
                      const batched::BatchLayout& segments,
                      Arena* arena) const;

  /// The checkpoint body after each class's config fields: the vocabulary
  /// block, then the named parameters.
  void SaveBody(std::ostream& os) const;
  /// Builds an `Lm` from its deserialized `config` and reads the body into
  /// it; null on malformed input, including dims far above any real LM's
  /// (tens), so a corrupt header cannot request a large LSTM allocation.
  template <typename Lm>
  static std::unique_ptr<Lm> LoadBody(std::istream& is,
                                      const typename Lm::Config& config,
                                      int unit_dim);

  text::Vocabulary vocab_;

 private:
  std::string prefix_;
  int unit_dim_;
  int hidden_dim_;
  Rng rng_;
  std::unique_ptr<Embedding> embedding_;
  std::unique_ptr<LstmCell> fwd_;
  std::unique_ptr<LstmCell> bwd_;
  std::unique_ptr<Linear> fwd_out_;
  std::unique_ptr<Linear> bwd_out_;
};

/// Character-level bidirectional language model (contextual string
/// embeddings).
class CharLm : public BiLstmLm {
 public:
  struct Config {
    int char_dim = 16;
    int hidden_dim = 24;
    int epochs = 2;
    double lr = 0.005;   // Adam
    uint64_t seed = 1;
    int max_chars = 160;  // training sentences truncated to this many chars
  };

  explicit CharLm(const Config& config);

  /// Trains both directions on unlabeled sentences; returns the final
  /// average per-character negative log likelihood. A sentence of fewer
  /// than two characters counts as NLL 0 and takes no step.
  Float Train(const std::vector<std::vector<std::string>>& sentences);

  /// One character segment per sentence: a word reads the forward state at
  /// its last character and the backward state at its first.
  void Fill(const batched::PackedBatch& batch, Float* dst,
            int stride) const override;

  /// Binary serialization: config + character vocabulary + parameters.
  /// A loaded CharLm extracts bit-identical embeddings.
  void Save(std::ostream& os) const;

  /// Restores a CharLm written by Save(); null on malformed input.
  static std::unique_ptr<CharLm> Load(std::istream& is);

 private:
  // Builds the char-id sequence of a sentence joined with spaces, plus the
  // [start, end] char index of each token.
  std::vector<int> CharIds(const std::vector<std::string>& tokens,
                           std::vector<std::pair<int, int>>* word_bounds) const;

  Config config_;
};

/// Token-level bidirectional language model (TagLM/ELMo-style embeddings).
class TokenLm : public BiLstmLm {
 public:
  struct Config {
    int word_dim = 24;
    int hidden_dim = 24;
    int epochs = 2;
    double lr = 0.005;  // Adam
    int min_count = 2;
    uint64_t seed = 1;
  };

  explicit TokenLm(const Config& config);

  /// Builds the vocabulary and trains both directions; returns the final
  /// average per-token NLL. Sentences of fewer than two tokens are skipped.
  Float Train(const std::vector<std::vector<std::string>>& sentences);

  /// Needs a trained TokenLm.
  void Fill(const batched::PackedBatch& batch, Float* dst,
            int stride) const override;

  /// Binary serialization: config + token vocabulary + parameters. Only a
  /// trained TokenLm can be saved; a loaded one extracts bit-identically.
  void Save(std::ostream& os) const;

  /// Restores a TokenLm written by Save(); null on malformed input.
  static std::unique_ptr<TokenLm> Load(std::istream& is);

 private:
  Config config_;
};

/// Frozen contextual-embedding feature backed by a trained CharLm or
/// TokenLm.
class LmFeature : public TokenFeature {
 public:
  explicit LmFeature(const BiLstmLm* lm) : lm_(lm) {
    DLNER_CHECK(lm_ != nullptr);
  }
  Var Forward(const std::vector<std::string>& tokens, bool) const override {
    return FrozenForward(*this, tokens);
  }
  int dim() const override { return lm_->dim(); }
  std::vector<Var> Parameters() const override { return {}; }
  void FillPacked(const batched::PackedBatch& batch, Float* dst,
                  int stride) const override {
    lm_->Fill(batch, dst, stride);
  }
  const char* packed_kind() const override { return "lm"; }

 private:
  const BiLstmLm* lm_;  // not owned
};

}  // namespace dlner::embeddings

#endif  // DLNER_EMBEDDINGS_LM_H_
