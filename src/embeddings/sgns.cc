#include "embeddings/sgns.h"

#include <algorithm>
#include <cmath>

#include "tensor/rng.h"
#include "text/types.h"

namespace dlner::embeddings {
namespace {

Float FastSigmoid(Float x) {
  if (x > 12.0) return 1.0;
  if (x < -12.0) return 0.0;
  return 1.0 / (1.0 + std::exp(-x));
}

// Unigram^0.75 sampler via cumulative weights + binary search.
class NegativeSampler {
 public:
  NegativeSampler(const std::vector<double>& counts) {
    cumulative_.resize(counts.size());
    double acc = 0.0;
    for (size_t i = 0; i < counts.size(); ++i) {
      acc += std::pow(counts[i], 0.75);
      cumulative_[i] = acc;
    }
  }

  int Sample(Rng* rng) const {
    const double r = rng->Uniform() * cumulative_.back();
    auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), r);
    return static_cast<int>(it - cumulative_.begin());
  }

 private:
  std::vector<double> cumulative_;
};

}  // namespace

SkipGramModel SkipGramModel::Train(
    const std::vector<std::vector<std::string>>& sentences,
    const Config& config) {
  SkipGramModel model;
  model.dim_ = config.dim;

  // Vocabulary.
  for (const auto& sent : sentences) {
    for (const std::string& w : sent) model.vocab_.Add(w);
  }
  model.vocab_.Freeze(config.min_count);
  const int v = model.vocab_.size();

  Rng rng(config.seed);
  model.in_vectors_.assign(v, std::vector<Float>(config.dim));
  model.out_vectors_.assign(v, std::vector<Float>(config.dim, 0.0));
  for (auto& row : model.in_vectors_) {
    for (Float& x : row) x = rng.Uniform(-0.5, 0.5) / config.dim;
  }

  std::vector<double> counts(v, 0.0);
  // Skip UNK (id 0) as a negative target: give it zero mass unless it is
  // the only entry.
  for (const auto& sent : sentences) {
    for (const std::string& w : sent) {
      const int id = model.vocab_.Id(w);
      if (id != text::Vocabulary::kUnkId) counts[id] += 1.0;
    }
  }
  if (v == 1) counts[0] = 1.0;
  NegativeSampler sampler(counts);

  // Pre-encode sentences once.
  std::vector<std::vector<int>> encoded;
  encoded.reserve(sentences.size());
  for (const auto& sent : sentences) encoded.push_back(model.vocab_.Encode(sent));

  const long long total_steps =
      static_cast<long long>(config.epochs) * sentences.size();
  long long step = 0;
  std::vector<Float> grad_in(config.dim);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& ids : encoded) {
      const double progress =
          total_steps > 0 ? static_cast<double>(step) / total_steps : 0.0;
      const Float lr = config.lr * (1.0 - 0.9 * progress);
      ++step;
      const int n = static_cast<int>(ids.size());
      for (int i = 0; i < n; ++i) {
        const int center = ids[i];
        if (center == text::Vocabulary::kUnkId) continue;
        const int win = rng.UniformInt(1, config.window);
        for (int off = -win; off <= win; ++off) {
          if (off == 0) continue;
          const int j = i + off;
          if (j < 0 || j >= n) continue;
          const int context = ids[j];
          if (context == text::Vocabulary::kUnkId) continue;

          std::vector<Float>& vin = model.in_vectors_[center];
          std::fill(grad_in.begin(), grad_in.end(), 0.0);
          // One positive and `negatives` negative targets.
          for (int k = 0; k <= config.negatives; ++k) {
            int target;
            Float label;
            if (k == 0) {
              target = context;
              label = 1.0;
            } else {
              target = sampler.Sample(&rng);
              if (target == context) continue;
              label = 0.0;
            }
            std::vector<Float>& vout = model.out_vectors_[target];
            Float dot = 0.0;
            for (int d = 0; d < config.dim; ++d) dot += vin[d] * vout[d];
            const Float g = (FastSigmoid(dot) - label) * lr;
            for (int d = 0; d < config.dim; ++d) {
              grad_in[d] += g * vout[d];
              vout[d] -= g * vin[d];
            }
          }
          for (int d = 0; d < config.dim; ++d) vin[d] -= grad_in[d];
        }
      }
    }
  }
  return model;
}

bool SkipGramModel::HasWord(const std::string& word) const {
  return vocab_.Contains(word);
}

const std::vector<Float>& SkipGramModel::VectorOf(
    const std::string& word) const {
  const int id = vocab_.Id(word);
  DLNER_CHECK_MSG(id != text::Vocabulary::kUnkId || word == "<unk>",
                  "word not in SGNS vocabulary: " << word);
  return in_vectors_[id];
}

int SkipGramModel::CopyInto(const text::Vocabulary& vocab,
                            Embedding* embedding) const {
  DLNER_CHECK(embedding != nullptr);
  DLNER_CHECK_EQ(embedding->dim(), dim_);
  DLNER_CHECK_EQ(embedding->vocab_size(), vocab.size());
  int copied = 0;
  for (int id = 1; id < vocab.size(); ++id) {
    const std::string& word = vocab.TokenOf(id);
    if (!HasWord(word)) continue;
    embedding->SetRow(id, VectorOf(word));
    ++copied;
  }
  return copied;
}

}  // namespace dlner::embeddings
