#include "decoders/fofe.h"

#include <algorithm>
#include <cmath>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::decoders {

FofeDecoder::FofeDecoder(int in_dim, std::vector<std::string> entity_types,
                         int max_span_len, Float alpha, Rng* rng,
                         const std::string& name)
    : entity_types_(std::move(entity_types)),
      max_len_(max_span_len),
      alpha_(alpha) {
  DLNER_CHECK(!entity_types_.empty());
  DLNER_CHECK_GE(max_len_, 1);
  DLNER_CHECK_GT(alpha_, 0.0);
  DLNER_CHECK_LT(alpha_, 1.0);
  const int hidden = 2 * in_dim;
  hidden_ =
      std::make_unique<Linear>(4 * in_dim, hidden, rng, name + ".hidden");
  out_ = std::make_unique<Linear>(
      hidden, static_cast<int>(entity_types_.size()) + 1, rng,
      name + ".out");
}

std::vector<Var> FofeDecoder::Parameters() const {
  return JoinParameters({hidden_.get(), out_.get()});
}

Var FofeDecoder::Encode(const Var& m, int start, int end,
                        bool reverse) const {
  const int d = m->value.cols();
  if (start >= end) return Constant(Tensor({d}));
  const int len = end - start;
  // Weights [len]: alpha^(len-1), ..., alpha, 1 (or reversed).
  Tensor w({len});
  for (int k = 0; k < len; ++k) {
    const int power = reverse ? k : len - 1 - k;
    w[k] = std::pow(alpha_, power);
  }
  std::vector<int> rows(len);
  for (int k = 0; k < len; ++k) rows[k] = start + k;
  return MatMul(Constant(std::move(w)), Rows(m, rows));
}

Var FofeDecoder::FragmentLogits(const Var& encodings, int i, int j) const {
  const int t_len = encodings->value.rows();
  Var frag_fwd = Encode(encodings, i, j, /*reverse=*/false);
  Var frag_bwd = Encode(encodings, i, j, /*reverse=*/true);
  Var left_ctx = Encode(encodings, 0, i, /*reverse=*/false);
  Var right_ctx = Encode(encodings, j, t_len, /*reverse=*/true);
  Var features = Concat({frag_fwd, frag_bwd, left_ctx, right_ctx});
  return out_->Apply(Tanh(hidden_->Apply(features)));
}

Var FofeDecoder::Loss(const Var& encodings, const text::Sentence& gold) {
  obs::ScopedSpan span("loss/fofe");
  const int t_len = encodings->value.rows();
  DLNER_CHECK_EQ(t_len, gold.size());

  auto label_of = [this](const std::string& type) {
    for (size_t k = 0; k < entity_types_.size(); ++k) {
      if (entity_types_[k] == type) return static_cast<int>(k) + 1;
    }
    DLNER_CHECK_MSG(false, "unknown entity type: " << type);
  };

  std::vector<Var> terms;
  for (int i = 0; i < t_len; ++i) {
    for (int j = i + 1; j <= std::min(t_len, i + max_len_); ++j) {
      int label = 0;
      for (const text::Span& sp : gold.spans) {
        if (sp.start == i && sp.end == j) {
          label = label_of(sp.type);
          break;
        }
      }
      terms.push_back(
          CrossEntropyWithLogits(FragmentLogits(encodings, i, j), label));
    }
  }
  return Scale(Sum(Concat(terms)), 1.0 / static_cast<int>(terms.size()));
}

std::vector<text::Span> FofeDecoder::Predict(const Var& encodings) const {
  obs::ScopedSpan span("decode/fofe");
  const int t_len = encodings->value.rows();
  struct Candidate {
    int start;
    int end;
    int label;  // 1..Y
    Float prob;
  };
  std::vector<Candidate> candidates;
  for (int i = 0; i < t_len; ++i) {
    for (int j = i + 1; j <= std::min(t_len, i + max_len_); ++j) {
      Var probs = Softmax(FragmentLogits(encodings, i, j));
      int arg = 0;
      for (int k = 1; k < probs->value.size(); ++k) {
        if (probs->value[k] > probs->value[arg]) arg = k;
      }
      if (arg != 0) candidates.push_back({i, j, arg, probs->value[arg]});
    }
  }
  // Greedy non-overlap selection by probability (Xu et al.'s post-process).
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.prob > b.prob;
            });
  std::vector<bool> taken(t_len, false);
  std::vector<text::Span> spans;
  for (const Candidate& c : candidates) {
    bool overlaps = false;
    for (int t = c.start; t < c.end; ++t) overlaps = overlaps || taken[t];
    if (overlaps) continue;
    for (int t = c.start; t < c.end; ++t) taken[t] = true;
    spans.push_back({c.start, c.end, entity_types_[c.label - 1]});
  }
  std::sort(spans.begin(), spans.end());
  return spans;
}

}  // namespace dlner::decoders
