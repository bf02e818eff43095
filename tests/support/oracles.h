// Brute-force oracles for the structured decoders and the scorer, the
// eager per-sentence oracle for the compiled inference plan, and the eager
// state pass of the frozen language models.
//
// The CRF and semi-CRF dynamic programs admit exact small-n oracles: path
// (resp. segmentation) enumeration over the decoder's own score primitives.
// The enumerations check the *recursions* — forward log-partition, Viterbi,
// forward-backward marginals — against sums/argmaxes that cannot get the
// recursion wrong because they do not use one. Keep K^T (resp. the
// segmentation count) in the low thousands.
#ifndef DLNER_TESTS_SUPPORT_ORACLES_H_
#define DLNER_TESTS_SUPPORT_ORACLES_H_

#include <string>
#include <vector>

#include "core/model.h"
#include "decoders/crf.h"
#include "decoders/semicrf.h"
#include "embeddings/lm.h"
#include "eval/metrics.h"
#include "tensor/tensor.h"

namespace dlner::testsup {

/// Exhaustive enumeration of all K^T tag paths of a CRF.
struct CrfBruteForce {
  Float log_partition = 0.0;
  std::vector<int> best_path;        // argmax over all paths
  Float best_score = 0.0;
  std::vector<int> best_valid_path;  // argmax over scheme-valid paths
  Float best_valid_score = 0.0;
  Tensor marginals;                  // [T, K] exact posteriors
};
CrfBruteForce EnumerateCrf(const decoders::CrfDecoder& dec,
                           const Var& emissions);

/// Exhaustive enumeration of all segmentations of a semi-CRF (O segments
/// restricted to length 1, segment length capped at max_segment_len()).
struct SemiCrfBruteForce {
  Float log_partition = 0.0;
  std::vector<decoders::SemiCrfDecoder::Segment> best_segments;
  Float best_score = 0.0;
};
SemiCrfBruteForce EnumerateSemiCrf(const decoders::SemiCrfDecoder& dec,
                                   const Var& encodings);

/// Independent exact-match scorer: per-sentence multiset intersection on
/// (start, end, type) keys instead of the evaluator's greedy matching. For
/// exact-equality matching the two formulations are provably equivalent,
/// so any count disagreement is a bug in one of them.
eval::ExactResult OracleExactMatch(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& predicted);

/// Eager inference oracle for one non-empty sentence: the per-sentence
/// forward that training uses (Represent -> EncodeTokens ->
/// decoder()->Predict) under NoGradGuard.
std::vector<text::Span> EagerPredict(const core::NerModel& model,
                                     const std::vector<std::string>& tokens);

/// EagerPredict looped over the corpus in order, empty sentences yielding
/// empty span lists. The compiled plan behind PredictCorpus must reproduce
/// it bit-for-bit.
std::vector<std::vector<text::Span>> EagerPredictCorpus(
    const core::NerModel& model, const text::Corpus& corpus);

/// Exact-match evaluation of EagerPredictCorpus: the oracle for
/// NerModel::Evaluate.
eval::ExactResult EagerEvaluate(const core::NerModel& model,
                                const text::Corpus& corpus);

/// Eager BiLstmLm states [ids.size(), lm.dim()]: the forward LM's RunRnn
/// over the unit embeddings beside the backward LM's reversed RunRnn, under
/// NoGradGuard. The packed LM fills must reproduce these rows bit for bit.
Tensor EagerLmStates(const embeddings::BiLstmLm& lm,
                     const std::vector<int>& ids);

/// The char LM's rows [T, lm.dim()] for one sentence from EagerLmStates
/// over its tokens joined by single spaces (a lone space when that is
/// empty): word w reads the forward state at its last character and the
/// backward state at its first; an empty word reads the separators around
/// it, clamped to the sequence.
Tensor EagerCharLmRows(const embeddings::CharLm& lm,
                       const std::vector<std::string>& tokens);

/// The token LM's rows [T, lm.dim()]: EagerLmStates of the sentence's
/// vocabulary ids.
Tensor EagerTokenLmRows(const embeddings::TokenLm& lm,
                        const std::vector<std::string>& tokens);

}  // namespace dlner::testsup

#endif  // DLNER_TESTS_SUPPORT_ORACLES_H_
