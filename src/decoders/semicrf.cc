#include "decoders/semicrf.h"

#include <algorithm>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::decoders {
namespace {
constexpr Float kNegInf = -1e9;
}  // namespace

SemiCrfDecoder::SemiCrfDecoder(int in_dim,
                               std::vector<std::string> entity_types,
                               int max_segment_len, Rng* rng,
                               const std::string& name)
    : entity_types_(std::move(entity_types)), max_len_(max_segment_len) {
  DLNER_CHECK(!entity_types_.empty());
  DLNER_CHECK_GE(max_len_, 1);
  const int y = num_labels();
  proj_ = std::make_unique<Linear>(in_dim, y, rng, name + ".proj");
  length_bias_ =
      Parameter(UniformMatrix(max_len_, y, 0.1, rng), name + ".len_bias");
  transitions_ = Parameter(UniformMatrix(y, y, 0.1, rng), name + ".trans");
  start_ = Parameter(UniformVector(y, 0.1, rng), name + ".start");
  end_ = Parameter(UniformVector(y, 0.1, rng), name + ".end");
}

std::vector<Var> SemiCrfDecoder::Parameters() const {
  std::vector<Var> all = proj_->Parameters();
  all.push_back(length_bias_);
  all.push_back(transitions_);
  all.push_back(start_);
  all.push_back(end_);
  return all;
}

Var SemiCrfDecoder::SegScore(const Var& emissions, int i, int j) const {
  const int len = j - i;
  std::vector<int> rows(len);
  for (int t = 0; t < len; ++t) rows[t] = i + t;
  // Sum of emissions over the segment (colwise) + length bias.
  Var summed = Scale(MeanOverRows(Rows(emissions, rows)),
                     static_cast<Float>(len));           // [Y]
  Var score = Add(summed, Row(length_bias_, len - 1));   // [Y]
  if (len > 1) {
    // O segments longer than 1 are forbidden.
    Tensor mask({num_labels()});
    mask[0] = kNegInf;
    score = Add(score, Constant(std::move(mask)));
  }
  return score;
}

Var SemiCrfDecoder::LogPartition(const Var& encodings) const {
  const int t_len = encodings->value.rows();
  Var emissions = proj_->Apply(encodings);  // [T, Y]
  // alpha[j]: log-sum of scores of all segmentations of [0, j) by the label
  // of the segment that *ends* at j.
  std::vector<Var> alpha(t_len + 1);
  for (int j = 1; j <= t_len; ++j) {
    std::vector<Var> candidates;
    for (int len = 1; len <= std::min(max_len_, j); ++len) {
      const int i = j - len;
      Var prev;
      if (i == 0) {
        prev = start_;
      } else {
        prev = LogSumExpOverRows(AddColBroadcast(transitions_, alpha[i]));
      }
      candidates.push_back(Add(prev, SegScore(emissions, i, j)));
    }
    alpha[j] = candidates.size() == 1
                   ? candidates[0]
                   : LogSumExpOverRows(StackRows(candidates));
  }
  return LogSumExp(Add(alpha[t_len], end_));
}

Var SemiCrfDecoder::SegmentationScore(
    const Var& encodings, const std::vector<Segment>& segments) const {
  DLNER_CHECK(!segments.empty());
  Var emissions = proj_->Apply(encodings);
  std::vector<Var> terms;
  terms.push_back(Pick(start_, segments.front().label));
  for (size_t s = 0; s < segments.size(); ++s) {
    const Segment& seg = segments[s];
    terms.push_back(Pick(SegScore(emissions, seg.start, seg.end), seg.label));
    if (s > 0) {
      terms.push_back(PickAt(transitions_, segments[s - 1].label, seg.label));
    }
  }
  terms.push_back(Pick(end_, segments.back().label));
  return Sum(Concat(terms));
}

std::vector<SemiCrfDecoder::Segment> SemiCrfDecoder::GoldSegmentation(
    const text::Sentence& gold) const {
  std::vector<text::Span> spans = gold.spans;
  std::sort(spans.begin(), spans.end());
  std::vector<Segment> segments;
  int pos = 0;
  auto label_of = [this](const std::string& type) {
    for (size_t i = 0; i < entity_types_.size(); ++i) {
      if (entity_types_[i] == type) return static_cast<int>(i) + 1;
    }
    DLNER_CHECK_MSG(false, "unknown entity type: " << type);
  };
  for (const text::Span& sp : spans) {
    DLNER_CHECK_LE(sp.end - sp.start, max_len_);
    DLNER_CHECK_GE(sp.start, pos);
    while (pos < sp.start) {
      segments.push_back({pos, pos + 1, 0});
      ++pos;
    }
    segments.push_back({sp.start, sp.end, label_of(sp.type)});
    pos = sp.end;
  }
  while (pos < gold.size()) {
    segments.push_back({pos, pos + 1, 0});
    ++pos;
  }
  return segments;
}

Var SemiCrfDecoder::Loss(const Var& encodings, const text::Sentence& gold) {
  obs::ScopedSpan span("loss/semicrf");
  const int t_len = encodings->value.rows();
  DLNER_CHECK_EQ(t_len, gold.size());
  std::vector<Segment> segments = GoldSegmentation(gold);
  Var nll =
      Sub(LogPartition(encodings), SegmentationScore(encodings, segments));
  return Scale(nll, 1.0 / t_len);
}

std::vector<text::Span> SemiCrfDecoder::Predict(const Var& encodings) const {
  obs::ScopedSpan span("decode/semicrf");
  std::vector<text::Span> spans;
  for (const Segment& seg : ViterbiSegments(encodings)) {
    if (seg.label != 0) {
      spans.push_back({seg.start, seg.end, entity_types_[seg.label - 1]});
    }
  }
  return spans;
}

std::vector<SemiCrfDecoder::Segment> SemiCrfDecoder::ViterbiSegments(
    const Var& encodings) const {
  const int t_len = encodings->value.rows();
  const int y = num_labels();
  const Tensor emissions = proj_->Apply(encodings)->value;

  // Prefix sums of emissions for O(1) segment sums.
  std::vector<std::vector<Float>> prefix(t_len + 1, std::vector<Float>(y, 0));
  for (int t = 0; t < t_len; ++t) {
    for (int l = 0; l < y; ++l) {
      prefix[t + 1][l] = prefix[t][l] + emissions.at(t, l);
    }
  }
  auto seg_score = [&](int i, int j, int l) {
    if (l == 0 && j - i > 1) return kNegInf;
    return prefix[j][l] - prefix[i][l] + length_bias_->value.at(j - i - 1, l);
  };

  // dp[j][l]: best score of a segmentation of [0, j) ending with label l.
  std::vector<std::vector<Float>> dp(t_len + 1,
                                     std::vector<Float>(y, kNegInf * 2));
  struct Back {
    int i = -1;
    int label = -1;
  };
  std::vector<std::vector<Back>> parent(t_len + 1, std::vector<Back>(y));
  for (int j = 1; j <= t_len; ++j) {
    for (int len = 1; len <= std::min(max_len_, j); ++len) {
      const int i = j - len;
      for (int l = 0; l < y; ++l) {
        const Float seg = seg_score(i, j, l);
        if (i == 0) {
          const Float s = start_->value[l] + seg;
          if (s > dp[j][l]) {
            dp[j][l] = s;
            parent[j][l] = {0, -1};
          }
        } else {
          for (int lp = 0; lp < y; ++lp) {
            const Float s = dp[i][lp] + transitions_->value.at(lp, l) + seg;
            if (s > dp[j][l]) {
              dp[j][l] = s;
              parent[j][l] = {i, lp};
            }
          }
        }
      }
    }
  }
  int best_label = 0;
  Float best = kNegInf * 3;
  for (int l = 0; l < y; ++l) {
    const Float s = dp[t_len][l] + end_->value[l];
    if (s > best) {
      best = s;
      best_label = l;
    }
  }
  // Reconstruct segments right-to-left.
  std::vector<Segment> segments;
  int j = t_len;
  int label = best_label;
  while (j > 0) {
    const Back& b = parent[j][label];
    segments.push_back({b.i, j, label});
    const int next_label = b.label;
    j = b.i;
    label = next_label;
    if (j > 0) DLNER_CHECK_GE(label, 0);
  }
  std::reverse(segments.begin(), segments.end());
  return segments;
}

}  // namespace dlner::decoders
