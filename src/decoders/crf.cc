#include "decoders/crf.h"

#include <cmath>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::decoders {
namespace {
constexpr Float kNegInf = -1e9;
}  // namespace

CrfDecoder::CrfDecoder(int in_dim, const text::TagSet* tags, Rng* rng,
                       bool constrained_decoding, const std::string& name)
    : tags_(tags),
      proj_(std::make_unique<Linear>(in_dim, tags->size(), rng,
                                     name + ".proj")),
      transitions_(Parameter(
          UniformMatrix(tags->size(), tags->size(), 0.1, rng),
          name + ".trans")),
      start_(Parameter(UniformVector(tags->size(), 0.1, rng),
                       name + ".start")),
      end_(Parameter(UniformVector(tags->size(), 0.1, rng), name + ".end")) {
  DLNER_CHECK(tags_ != nullptr);
  const int k = tags_->size();
  forbidden_.assign(2 * k + static_cast<std::size_t>(k) * k, false);
  if (!constrained_decoding) return;
  for (int j = 0; j < k; ++j) {
    forbidden_[j] = !tags_->IsValidStart(j);
    forbidden_[k + j] = !tags_->IsValidEnd(j);
    for (int i = 0; i < k; ++i) {
      forbidden_[2 * k + static_cast<std::size_t>(j) * k + i] =
          !tags_->IsValidTransition(i, j);
    }
  }
}

std::vector<Var> CrfDecoder::Parameters() const {
  std::vector<Var> all = proj_->Parameters();
  all.push_back(transitions_);
  all.push_back(start_);
  all.push_back(end_);
  return all;
}

Var CrfDecoder::LogPartition(const Var& emissions) const {
  const int t_len = emissions->value.rows();
  DLNER_CHECK_EQ(emissions->value.cols(), tags_->size());
  Var alpha = Add(Row(emissions, 0), start_);  // [K]
  for (int t = 1; t < t_len; ++t) {
    // alpha'[j] = logsumexp_i(alpha[i] + trans[i][j]) + emit[t][j]
    Var broadcast = AddColBroadcast(transitions_, alpha);  // [K, K]
    alpha = Add(LogSumExpOverRows(broadcast), Row(emissions, t));
  }
  return LogSumExp(Add(alpha, end_));
}

Var CrfDecoder::PathScore(const Var& emissions,
                          const std::vector<int>& path) const {
  const int t_len = emissions->value.rows();
  DLNER_CHECK_EQ(static_cast<int>(path.size()), t_len);
  std::vector<Var> terms;
  terms.reserve(2 * t_len + 1);
  terms.push_back(Pick(start_, path[0]));
  for (int t = 0; t < t_len; ++t) {
    terms.push_back(PickAt(emissions, t, path[t]));
    if (t > 0) terms.push_back(PickAt(transitions_, path[t - 1], path[t]));
  }
  terms.push_back(Pick(end_, path[t_len - 1]));
  return Sum(Concat(terms));
}

Var CrfDecoder::Loss(const Var& encodings, const text::Sentence& gold) {
  obs::ScopedSpan span("loss/crf");
  const int t_len = encodings->value.rows();
  DLNER_CHECK_EQ(t_len, gold.size());
  const std::vector<int> gold_ids = tags_->SpansToTagIds(gold.spans, t_len);
  Var emissions = Emissions(encodings);
  Var nll = Sub(LogPartition(emissions), PathScore(emissions, gold_ids));
  return Scale(nll, 1.0 / t_len);
}

std::vector<int> CrfDecoder::ViterbiPath(const Tensor& emissions) const {
  DLNER_CHECK_EQ(emissions.cols(), tags_->size());
  return ViterbiPath(emissions.data(), emissions.rows());
}

std::vector<int> CrfDecoder::ViterbiPath(const Float* emissions,
                                         int t_len) const {
  const int k = tags_->size();
  if (t_len == 0) return {};
  // Masked score tables in forbidden_'s layout, filled from the live
  // parameters on every call: an entry the scheme forbids scores kNegInf,
  // so the k^2 * T loop reads plain arrays. The transition table is stored
  // transposed (trans_t[j*k + i] scores i -> j) so the inner loop over i is
  // contiguous. dp[t*k + j], after them, is the best score of a prefix
  // ending in tag j at t; parent[t*k + j] its predecessor tag.
  const std::size_t tables = forbidden_.size();
  std::vector<Float> scores(tables + static_cast<std::size_t>(t_len) * k);
  const auto mask = [&](std::size_t e, Float value) {
    scores[e] = forbidden_[e] ? kNegInf : value;
  };
  const Float* start_v = start_->value.data();
  const Float* end_v = end_->value.data();
  const Float* trans_v = transitions_->value.data();
  for (int j = 0; j < k; ++j) {
    mask(j, start_v[j]);
    mask(k + j, end_v[j]);
    for (int i = 0; i < k; ++i) {
      mask(2 * k + static_cast<std::size_t>(j) * k + i, trans_v[i * k + j]);
    }
  }
  const Float* start = scores.data();
  const Float* end = start + k;
  const Float* trans_t = end + k;
  Float* dp = scores.data() + tables;
  std::vector<int> parent(static_cast<std::size_t>(t_len) * k, -1);
  for (int j = 0; j < k; ++j) dp[j] = start[j] + emissions[j];
  for (int t = 1; t < t_len; ++t) {
    const Float* prev = dp + static_cast<std::size_t>(t - 1) * k;
    const Float* emit = emissions + static_cast<std::size_t>(t) * k;
    Float* cur = dp + static_cast<std::size_t>(t) * k;
    int* par = parent.data() + static_cast<std::size_t>(t) * k;
    for (int j = 0; j < k; ++j) {
      const Float* trans = trans_t + static_cast<std::size_t>(j) * k;
      Float best = kNegInf * 2;
      int arg = 0;
      for (int i = 0; i < k; ++i) {
        const Float s = prev[i] + trans[i];
        if (s > best) {
          best = s;
          arg = i;
        }
      }
      cur[j] = best + emit[j];
      par[j] = arg;
    }
  }
  const Float* last = dp + static_cast<std::size_t>(t_len - 1) * k;
  int best_tag = 0;
  Float best = kNegInf * 2;
  for (int j = 0; j < k; ++j) {
    const Float s = last[j] + end[j];
    if (s > best) {
      best = s;
      best_tag = j;
    }
  }
  std::vector<int> path(t_len);
  path[t_len - 1] = best_tag;
  for (int t = t_len - 1; t > 0; --t) {
    path[t - 1] = parent[static_cast<std::size_t>(t) * k + path[t]];
  }
  return path;
}

Tensor CrfDecoder::Marginals(const Tensor& emissions) const {
  const int t_len = emissions.rows();
  const int k = tags_->size();
  DLNER_CHECK_EQ(emissions.cols(), k);

  // Forward: alpha[t][j] = log sum over prefixes ending in tag j at t.
  std::vector<std::vector<Float>> alpha(t_len, std::vector<Float>(k));
  for (int j = 0; j < k; ++j) {
    alpha[0][j] = start_->value[j] + emissions.at(0, j);
  }
  std::vector<Float> scratch(k);
  for (int t = 1; t < t_len; ++t) {
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) {
        scratch[i] = alpha[t - 1][i] + transitions_->value.at(i, j);
      }
      alpha[t][j] = LogSumExpOf(scratch.data(), k, 1) + emissions.at(t, j);
    }
  }
  // Backward: beta[t][i] = log sum over suffixes starting after tag i at t.
  std::vector<std::vector<Float>> beta(t_len, std::vector<Float>(k));
  for (int i = 0; i < k; ++i) beta[t_len - 1][i] = end_->value[i];
  for (int t = t_len - 2; t >= 0; --t) {
    for (int i = 0; i < k; ++i) {
      for (int j = 0; j < k; ++j) {
        scratch[j] = transitions_->value.at(i, j) + emissions.at(t + 1, j) +
                     beta[t + 1][j];
      }
      beta[t][i] = LogSumExpOf(scratch.data(), k, 1);
    }
  }
  for (int j = 0; j < k; ++j) scratch[j] = alpha[t_len - 1][j] + end_->value[j];
  const Float log_z = LogSumExpOf(scratch.data(), k, 1);

  Tensor marginals({t_len, k});
  for (int t = 0; t < t_len; ++t) {
    for (int j = 0; j < k; ++j) {
      marginals.at(t, j) = std::exp(alpha[t][j] + beta[t][j] - log_z);
    }
  }
  return marginals;
}

std::vector<text::Span> CrfDecoder::Predict(const Var& encodings) const {
  obs::ScopedSpan span("decode/crf");
  Var emissions = Emissions(encodings);
  return tags_->TagIdsToSpans(ViterbiPath(emissions->value));
}

void CrfDecoder::DecodePacked(const batched::PackedBatch& batch,
                              const Float* x, int /*in_dim*/,
                              std::vector<std::vector<text::Span>>* out) const {
  obs::ScopedSpan span("decode/crf");
  const int k = proj_->out_dim();
  Float* em = batch.AllocRows(k);
  batched::Affine(x, batch.rows(), proj_->weight()->value,
                  proj_->bias()->value, em);
  for (int b = 0; b < batch.batch(); ++b) {
    (*out)[b] = tags_->TagIdsToSpans(ViterbiPath(
        em + static_cast<std::size_t>(batch.layout->offset(b)) * k,
        batch.layout->len(b)));
  }
}

}  // namespace dlner::decoders
