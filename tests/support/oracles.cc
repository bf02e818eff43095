#include "support/oracles.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <tuple>

#include "support/reference_kernels.h"
#include "tensor/check.h"
#include "tensor/ops.h"
#include "tensor/rnn.h"

namespace dlner::testsup {

CrfBruteForce EnumerateCrf(const decoders::CrfDecoder& dec,
                           const Var& emissions) {
  const int t_len = emissions->value.rows();
  const int k = emissions->value.cols();
  DLNER_CHECK_GE(t_len, 1);
  const text::TagSet& tags = dec.tags();

  CrfBruteForce out;
  out.best_score = -1e300;
  out.best_valid_score = -1e300;
  out.marginals = Tensor({t_len, k});

  std::vector<Float> scores;
  std::vector<std::vector<int>> paths;
  std::vector<int> path(t_len, 0);
  while (true) {
    const Float s = dec.PathScore(emissions, path)->value[0];
    scores.push_back(s);
    paths.push_back(path);
    if (s > out.best_score) {
      out.best_score = s;
      out.best_path = path;
    }
    bool valid = tags.IsValidStart(path[0]) && tags.IsValidEnd(path[t_len - 1]);
    for (int t = 1; valid && t < t_len; ++t) {
      valid = tags.IsValidTransition(path[t - 1], path[t]);
    }
    if (valid && s > out.best_valid_score) {
      out.best_valid_score = s;
      out.best_valid_path = path;
    }
    // Odometer over the K^T paths.
    int i = t_len - 1;
    while (i >= 0 && path[i] == k - 1) path[i--] = 0;
    if (i < 0) break;
    ++path[i];
  }

  out.log_partition = NaiveLogSumExp(scores);
  for (size_t p = 0; p < paths.size(); ++p) {
    const Float prob = std::exp(scores[p] - out.log_partition);
    for (int t = 0; t < t_len; ++t) out.marginals.at(t, paths[p][t]) += prob;
  }
  return out;
}

SemiCrfBruteForce EnumerateSemiCrf(const decoders::SemiCrfDecoder& dec,
                                   const Var& encodings) {
  const int t_len = encodings->value.rows();
  const int max_len = dec.max_segment_len();
  const int y = dec.num_labels();

  SemiCrfBruteForce out;
  out.best_score = -1e300;
  std::vector<Float> scores;
  std::vector<decoders::SemiCrfDecoder::Segment> current;
  std::function<void(int)> recurse = [&](int pos) {
    if (pos == t_len) {
      const Float s = dec.SegmentationScore(encodings, current)->value[0];
      scores.push_back(s);
      if (s > out.best_score) {
        out.best_score = s;
        out.best_segments = current;
      }
      return;
    }
    for (int len = 1; len <= std::min(max_len, t_len - pos); ++len) {
      for (int label = 0; label < y; ++label) {
        if (label == 0 && len > 1) continue;  // O segments have length 1
        current.push_back({pos, pos + len, label});
        recurse(pos + len);
        current.pop_back();
      }
    }
  };
  recurse(0);

  out.log_partition = NaiveLogSumExp(scores);
  return out;
}

eval::ExactResult OracleExactMatch(
    const std::vector<std::vector<text::Span>>& gold,
    const std::vector<std::vector<text::Span>>& predicted) {
  DLNER_CHECK_EQ(gold.size(), predicted.size());
  using Key = std::tuple<int, int, std::string>;
  std::map<std::string, eval::Prf> per_type;
  for (size_t i = 0; i < gold.size(); ++i) {
    std::map<Key, int> g_count, p_count;
    for (const text::Span& sp : gold[i]) {
      g_count[{sp.start, sp.end, sp.type}]++;
    }
    for (const text::Span& sp : predicted[i]) {
      p_count[{sp.start, sp.end, sp.type}]++;
    }
    for (const auto& [key, n_gold] : g_count) {
      const auto it = p_count.find(key);
      const int n_pred = it == p_count.end() ? 0 : it->second;
      const int matched = std::min(n_gold, n_pred);
      eval::Prf& prf = per_type[std::get<2>(key)];
      prf.tp += matched;
      prf.fn += n_gold - matched;
    }
    for (const auto& [key, n_pred] : p_count) {
      const auto it = g_count.find(key);
      const int n_gold = it == g_count.end() ? 0 : it->second;
      per_type[std::get<2>(key)].fp += n_pred - std::min(n_gold, n_pred);
    }
  }

  eval::ExactResult result;
  result.per_type = per_type;
  double macro_sum = 0.0;
  for (const auto& [type, prf] : per_type) {
    result.micro.tp += prf.tp;
    result.micro.fp += prf.fp;
    result.micro.fn += prf.fn;
    macro_sum += prf.f1();
  }
  result.macro_f1 = per_type.empty()
                        ? 0.0
                        : macro_sum / static_cast<double>(per_type.size());
  return result;
}

std::vector<text::Span> EagerPredict(const core::NerModel& model,
                                     const std::vector<std::string>& tokens) {
  DLNER_CHECK(!tokens.empty());
  NoGradGuard no_grad;
  const Var rep = model.Represent(tokens, /*training=*/false);
  return model.decoder()->Predict(
      model.EncodeTokens(rep, tokens, /*training=*/false));
}

std::vector<std::vector<text::Span>> EagerPredictCorpus(
    const core::NerModel& model, const text::Corpus& corpus) {
  std::vector<std::vector<text::Span>> predicted(corpus.sentences.size());
  for (std::size_t i = 0; i < corpus.sentences.size(); ++i) {
    const std::vector<std::string>& tokens = corpus.sentences[i].tokens;
    if (!tokens.empty()) predicted[i] = EagerPredict(model, tokens);
  }
  return predicted;
}

eval::ExactResult EagerEvaluate(const core::NerModel& model,
                                const text::Corpus& corpus) {
  const std::vector<std::vector<text::Span>> predicted =
      EagerPredictCorpus(model, corpus);
  eval::ExactMatchEvaluator ev;
  for (std::size_t i = 0; i < corpus.sentences.size(); ++i) {
    ev.Add(corpus.sentences[i].spans, predicted[i]);
  }
  return ev.Result();
}

Tensor EagerLmStates(const embeddings::BiLstmLm& lm,
                     const std::vector<int>& ids) {
  NoGradGuard no_grad;
  const Var units = lm.embedding().Lookup(ids);
  return Concat({RunRnn(lm.forward_lm(), units, /*reverse=*/false),
                 RunRnn(lm.backward_lm(), units, /*reverse=*/true)})
      ->value;
}

Tensor EagerCharLmRows(const embeddings::CharLm& lm,
                       const std::vector<std::string>& tokens) {
  const text::Vocabulary& vocab = lm.vocab();
  std::vector<int> ids;
  std::vector<int> first, last;
  for (std::size_t w = 0; w < tokens.size(); ++w) {
    if (w > 0) ids.push_back(vocab.Id(" "));
    first.push_back(static_cast<int>(ids.size()));
    for (char c : tokens[w]) ids.push_back(vocab.Id(std::string(1, c)));
    last.push_back(static_cast<int>(ids.size()) - 1);
  }
  if (ids.empty()) ids.push_back(vocab.Id(" "));
  const Tensor states = EagerLmStates(lm, ids);
  const int n = static_cast<int>(ids.size());
  const int h = lm.dim() / 2;
  Tensor out({static_cast<int>(tokens.size()), lm.dim()});
  for (int w = 0; w < out.rows(); ++w) {
    const int fwd_row = std::max(last[w], 0);
    const int bwd_row = std::min(first[w], n - 1);
    for (int j = 0; j < h; ++j) {
      out.at(w, j) = states.at(fwd_row, j);
      out.at(w, h + j) = states.at(bwd_row, h + j);
    }
  }
  return out;
}

Tensor EagerTokenLmRows(const embeddings::TokenLm& lm,
                        const std::vector<std::string>& tokens) {
  return EagerLmStates(lm, lm.vocab().Encode(tokens));
}

}  // namespace dlner::testsup
