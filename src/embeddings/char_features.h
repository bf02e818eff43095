// Character-level word representations (survey Section 3.2.2, Fig. 3).
//
// CharCnnFeature follows Ma & Hovy / Chiu & Nichols: per word, embed its
// characters, convolve with window 3, and max-pool over character positions
// (Fig. 3a). CharRnnFeature follows Lample et al.: run a char-level BiLSTM
// and concatenate the two final states (Fig. 3b). Both handle out-of-
// vocabulary words by construction.
#ifndef DLNER_EMBEDDINGS_CHAR_FEATURES_H_
#define DLNER_EMBEDDINGS_CHAR_FEATURES_H_

#include <memory>
#include <string>
#include <vector>

#include "embeddings/features.h"
#include "tensor/rnn.h"

namespace dlner::embeddings {

/// CNN-over-characters word representation (Fig. 3a).
class CharCnnFeature : public TokenFeature {
 public:
  CharCnnFeature(const text::Vocabulary* char_vocab, int char_dim,
                 int num_filters, Rng* rng,
                 const std::string& name = "char_cnn");

  Var Forward(const std::vector<std::string>& tokens,
              bool training) const override;
  int dim() const override { return num_filters_; }
  std::vector<Var> Parameters() const override;
  /// Every token of the batch is one segment of one batched conv.
  void FillPacked(const batched::PackedBatch& batch, Float* dst,
                  int stride) const override;
  const char* packed_kind() const override { return "char_cnn"; }

 private:
  const text::Vocabulary* char_vocab_;  // not owned
  int num_filters_;
  std::unique_ptr<Embedding> char_embedding_;
  std::unique_ptr<Conv1d> conv_;
};

/// BiLSTM-over-characters word representation (Fig. 3b).
class CharRnnFeature : public TokenFeature {
 public:
  CharRnnFeature(const text::Vocabulary* char_vocab, int char_dim,
                 int hidden_dim, Rng* rng,
                 const std::string& name = "char_rnn");

  Var Forward(const std::vector<std::string>& tokens,
              bool training) const override;
  int dim() const override { return 2 * hidden_dim_; }
  std::vector<Var> Parameters() const override;
  /// Every token of the batch is one segment of one batched BiLSTM.
  void FillPacked(const batched::PackedBatch& batch, Float* dst,
                  int stride) const override;
  const char* packed_kind() const override { return "char_rnn"; }

 private:
  const text::Vocabulary* char_vocab_;  // not owned
  int hidden_dim_;
  std::unique_ptr<Embedding> char_embedding_;
  std::unique_ptr<LstmCell> forward_;
  std::unique_ptr<LstmCell> backward_;
};

}  // namespace dlner::embeddings

#endif  // DLNER_EMBEDDINGS_CHAR_FEATURES_H_
