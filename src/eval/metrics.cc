#include "eval/metrics.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"
#include "tensor/check.h"
#include "tensor/rng.h"

namespace dlner::eval {
namespace {

bool Overlaps(const text::Span& a, const text::Span& b) {
  return a.start < b.end && b.start < a.end;
}

bool SameBoundaries(const text::Span& a, const text::Span& b) {
  return a.start == b.start && a.end == b.end;
}

}  // namespace

double Prf::precision() const {
  return tp + fp == 0 ? 0.0 : static_cast<double>(tp) / (tp + fp);
}

double Prf::recall() const {
  return tp + fn == 0 ? 0.0 : static_cast<double>(tp) / (tp + fn);
}

double Prf::f1() const {
  const double p = precision();
  const double r = recall();
  return p + r == 0.0 ? 0.0 : 2.0 * p * r / (p + r);
}

void ExactMatchEvaluator::Add(const std::vector<text::Span>& gold,
                              const std::vector<text::Span>& predicted) {
  if (obs::MetricsEnabled()) {
    // Scoring volume, counted where scoring happens so every caller
    // (parallel Evaluate shards, benches, tests) is covered.
    static obs::Counter* pairs =
        obs::Metrics::Get().counter("eval.pairs_scored");
    pairs->Add(1);
  }
  // Greedy one-to-one matching on exact (start, end, type) equality.
  std::vector<bool> gold_used(gold.size(), false);
  for (const text::Span& p : predicted) {
    bool matched = false;
    for (size_t g = 0; g < gold.size(); ++g) {
      if (!gold_used[g] && gold[g] == p) {
        gold_used[g] = true;
        matched = true;
        break;
      }
    }
    if (matched) {
      per_type_[p.type].tp++;
    } else {
      per_type_[p.type].fp++;
    }
  }
  for (size_t g = 0; g < gold.size(); ++g) {
    if (!gold_used[g]) per_type_[gold[g].type].fn++;
  }
}

ExactResult ExactMatchEvaluator::Result() const {
  ExactResult result;
  result.per_type = per_type_;
  double macro_sum = 0.0;
  for (const auto& [type, prf] : per_type_) {
    result.micro.tp += prf.tp;
    result.micro.fp += prf.fp;
    result.micro.fn += prf.fn;
    macro_sum += prf.f1();
  }
  result.macro_f1 =
      per_type_.empty() ? 0.0 : macro_sum / static_cast<double>(
                                                per_type_.size());
  return result;
}

void RelaxedMatchEvaluator::Add(const std::vector<text::Span>& gold,
                                const std::vector<text::Span>& predicted) {
  // TYPE dimension: a prediction is correct when it overlaps an unused gold
  // span of the same type.
  std::vector<bool> used(gold.size(), false);
  for (const text::Span& p : predicted) {
    bool matched = false;
    for (size_t g = 0; g < gold.size(); ++g) {
      if (!used[g] && gold[g].type == p.type && Overlaps(gold[g], p)) {
        used[g] = true;
        matched = true;
        break;
      }
    }
    matched ? void(type_.tp++) : void(type_.fp++);
  }
  for (size_t g = 0; g < gold.size(); ++g) {
    if (!used[g]) type_.fn++;
  }

  // TEXT dimension: exact boundaries, type ignored.
  std::fill(used.begin(), used.end(), false);
  for (const text::Span& p : predicted) {
    bool matched = false;
    for (size_t g = 0; g < gold.size(); ++g) {
      if (!used[g] && SameBoundaries(gold[g], p)) {
        used[g] = true;
        matched = true;
        break;
      }
    }
    matched ? void(text_.tp++) : void(text_.fp++);
  }
  for (size_t g = 0; g < gold.size(); ++g) {
    if (!used[g]) text_.fn++;
  }
}

RelaxedResult RelaxedMatchEvaluator::Result() const {
  RelaxedResult result;
  result.type = type_;
  result.text = text_;
  // MUC pooled score: correct slots over both dimensions.
  Prf pooled;
  pooled.tp = type_.tp + text_.tp;
  pooled.fp = type_.fp + text_.fp;
  pooled.fn = type_.fn + text_.fn;
  result.muc_f1 = pooled.f1();
  return result;
}

ExactResult EvaluateExact(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& predicted) {
  DLNER_CHECK_EQ(gold.size(), predicted.size());
  ExactMatchEvaluator ev;
  for (size_t i = 0; i < gold.size(); ++i) ev.Add(gold[i], predicted[i]);
  return ev.Result();
}

RelaxedResult EvaluateRelaxed(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& predicted) {
  DLNER_CHECK_EQ(gold.size(), predicted.size());
  RelaxedMatchEvaluator ev;
  for (size_t i = 0; i < gold.size(); ++i) ev.Add(gold[i], predicted[i]);
  return ev.Result();
}

double ApproximateRandomizationPValue(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& system_a,
    const std::vector<std::vector<text::Span>>& system_b, int trials,
    uint64_t seed) {
  DLNER_CHECK_EQ(gold.size(), system_a.size());
  DLNER_CHECK_EQ(gold.size(), system_b.size());
  DLNER_CHECK_GT(trials, 0);
  const int n = static_cast<int>(gold.size());

  auto diff = [&](const std::vector<bool>& swap) {
    ExactMatchEvaluator ev_a, ev_b;
    for (int i = 0; i < n; ++i) {
      const auto& pa = swap[i] ? system_b[i] : system_a[i];
      const auto& pb = swap[i] ? system_a[i] : system_b[i];
      ev_a.Add(gold[i], pa);
      ev_b.Add(gold[i], pb);
    }
    return std::abs(ev_a.Result().micro.f1() - ev_b.Result().micro.f1());
  };

  const double observed = diff(std::vector<bool>(n, false));
  Rng rng(seed);
  int at_least_as_extreme = 0;
  std::vector<bool> swap(n);
  for (int t = 0; t < trials; ++t) {
    for (int i = 0; i < n; ++i) swap[i] = rng.Bernoulli(0.5);
    if (diff(swap) >= observed - 1e-12) ++at_least_as_extreme;
  }
  // +1 smoothing keeps the p-value strictly positive (standard practice).
  return (at_least_as_extreme + 1.0) / (trials + 1.0);
}

}  // namespace dlner::eval
