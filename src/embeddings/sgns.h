// Skip-gram with negative sampling (word2vec SGNS, Mikolov et al.),
// the pre-trained word-embedding substrate of survey Section 3.2.1
// (the role Google Word2Vec / GloVe / SENNA play for the Table 3 systems).
//
// Trained with hand-rolled SGD updates (the standard word2vec trick) rather
// than the autograd tape: each (center, context) pair touches only two rows,
// so the closed-form logistic gradient is orders of magnitude faster.
#ifndef DLNER_EMBEDDINGS_SGNS_H_
#define DLNER_EMBEDDINGS_SGNS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/nn.h"
#include "text/vocab.h"

namespace dlner::embeddings {

class SkipGramModel {
 public:
  struct Config {
    int dim = 32;
    int window = 3;       // max context offset (sampled uniformly per center)
    int negatives = 5;    // negative samples per positive pair
    int epochs = 3;
    double lr = 0.05;     // linearly decayed to lr/10
    int min_count = 2;    // vocabulary frequency cutoff
    uint64_t seed = 1;
  };

  /// Trains embeddings on unlabeled sentences.
  static SkipGramModel Train(
      const std::vector<std::vector<std::string>>& sentences,
      const Config& config);

  bool HasWord(const std::string& word) const;
  /// Input vector of a word; word must be in the model's vocabulary.
  const std::vector<Float>& VectorOf(const std::string& word) const;
  int dim() const { return dim_; }
  int vocab_size() const { return vocab_.size(); }

  /// Copies trained vectors into the rows of `embedding` whose ids map to
  /// words of `vocab` that this model knows. Returns the number of rows
  /// initialized. This is the "use pre-trained embeddings as input" step.
  int CopyInto(const text::Vocabulary& vocab, Embedding* embedding) const;

 private:
  SkipGramModel() = default;

  text::Vocabulary vocab_;
  int dim_ = 0;
  std::vector<std::vector<Float>> in_vectors_;
  std::vector<std::vector<Float>> out_vectors_;
};

}  // namespace dlner::embeddings

#endif  // DLNER_EMBEDDINGS_SGNS_H_
