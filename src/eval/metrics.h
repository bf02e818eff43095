// NER evaluation metrics (survey Section 2.3).
//
// Exact-match evaluation (Section 2.3.1): an entity counts as correct only
// when both its boundaries and its type match the gold annotation;
// precision/recall/F are reported micro-averaged, macro-averaged, and per
// type.
//
// Relaxed-match evaluation (Section 2.3.2, MUC-style): the TYPE dimension
// credits a prediction whose type matches a gold entity it overlaps; the
// TEXT dimension credits exact boundaries regardless of type; the combined
// MUC F-score pools both dimensions.
#ifndef DLNER_EVAL_METRICS_H_
#define DLNER_EVAL_METRICS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "text/types.h"

namespace dlner::eval {

/// Precision/recall/F1 triple with raw counts.
struct Prf {
  int tp = 0;
  int fp = 0;
  int fn = 0;

  double precision() const;
  double recall() const;
  double f1() const;
};

/// Exact-match evaluation result.
struct ExactResult {
  Prf micro;
  double macro_f1 = 0.0;
  std::map<std::string, Prf> per_type;
};

/// Accumulates exact-match statistics over (gold, predicted) span pairs.
class ExactMatchEvaluator {
 public:
  void Add(const std::vector<text::Span>& gold,
           const std::vector<text::Span>& predicted);

  ExactResult Result() const;

 private:
  std::map<std::string, Prf> per_type_;
};

/// Relaxed (MUC-style) evaluation result.
struct RelaxedResult {
  Prf type;      // type dimension: correct type + any overlap
  Prf text;      // text dimension: exact boundaries, any type
  double muc_f1 = 0.0;  // pooled over both dimensions
};

/// Accumulates MUC-style relaxed-match statistics.
class RelaxedMatchEvaluator {
 public:
  void Add(const std::vector<text::Span>& gold,
           const std::vector<text::Span>& predicted);
  RelaxedResult Result() const;

 private:
  Prf type_;
  Prf text_;
};

/// Convenience: exact-match evaluation of parallel per-sentence span lists.
ExactResult EvaluateExact(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& predicted);

/// Convenience: relaxed evaluation of parallel per-sentence span lists.
RelaxedResult EvaluateRelaxed(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& predicted);

/// Paired significance test between two systems evaluated on the same gold
/// data: approximate randomization over per-sentence prediction swaps
/// (the standard NLP comparison protocol). Returns the two-sided p-value
/// for the observed micro-F1 difference |F1(a) - F1(b)|.
double ApproximateRandomizationPValue(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& system_a,
    const std::vector<std::vector<text::Span>>& system_b, int trials,
    uint64_t seed);

}  // namespace dlner::eval

#endif  // DLNER_EVAL_METRICS_H_
