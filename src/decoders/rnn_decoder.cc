#include "decoders/rnn_decoder.h"

#include <algorithm>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::decoders {

RnnDecoder::RnnDecoder(int in_dim, const text::TagSet* tags,
                       int tag_embed_dim, int hidden_dim, Rng* rng,
                       const std::string& name)
    : tags_(tags),
      tag_embedding_(std::make_unique<Embedding>(
          tags->size() + 1, tag_embed_dim, rng, name + ".tag_emb")),
      cell_(std::make_unique<LstmCell>(in_dim + tag_embed_dim, hidden_dim,
                                       rng, name + ".cell")),
      out_(std::make_unique<Linear>(hidden_dim, tags->size(), rng,
                                    name + ".out")) {
  DLNER_CHECK(tags_ != nullptr);
}

std::vector<Var> RnnDecoder::Parameters() const {
  return JoinParameters({tag_embedding_.get(), cell_.get(), out_.get()});
}

Var RnnDecoder::Loss(const Var& encodings, const text::Sentence& gold) {
  obs::ScopedSpan span("loss/rnn");
  const int t_len = encodings->value.rows();
  DLNER_CHECK_EQ(t_len, gold.size());
  const std::vector<int> gold_ids = tags_->SpansToTagIds(gold.spans, t_len);

  RnnState state = cell_->InitialState();
  std::vector<Var> terms;
  terms.reserve(t_len);
  int prev_tag = GoId();
  for (int t = 0; t < t_len; ++t) {
    Var input =
        Concat({Row(encodings, t), tag_embedding_->LookupOne(prev_tag)});
    state = cell_->Step(input, state);
    Var logits = out_->Apply(state.h);
    terms.push_back(CrossEntropyWithLogits(logits, gold_ids[t]));
    prev_tag = gold_ids[t];  // teacher forcing
  }
  return Scale(Sum(Concat(terms)), 1.0 / t_len);
}

std::vector<text::Span> RnnDecoder::PredictBeam(const Var& encodings,
                                                int beam_width) const {
  DLNER_CHECK_GE(beam_width, 1);
  const int t_len = encodings->value.rows();
  const int k = tags_->size();

  struct Hypothesis {
    RnnState state;
    std::vector<int> tags;
    int prev_tag;
    Float log_prob;
  };
  std::vector<Hypothesis> beam;
  beam.push_back({cell_->InitialState(), {}, GoId(), 0.0});

  for (int t = 0; t < t_len; ++t) {
    struct Expansion {
      int hyp;
      int tag;
      Float log_prob;
      RnnState state;
    };
    std::vector<Expansion> expansions;
    for (size_t h = 0; h < beam.size(); ++h) {
      Var input = Concat(
          {Row(encodings, t), tag_embedding_->LookupOne(beam[h].prev_tag)});
      RnnState state = cell_->Step(input, beam[h].state);
      Var log_probs = LogSoftmax(out_->Apply(state.h));
      for (int tag = 0; tag < k; ++tag) {
        expansions.push_back({static_cast<int>(h), tag,
                              beam[h].log_prob + log_probs->value[tag],
                              state});
      }
    }
    std::sort(expansions.begin(), expansions.end(),
              [](const Expansion& a, const Expansion& b) {
                return a.log_prob > b.log_prob;
              });
    std::vector<Hypothesis> next;
    for (size_t e = 0;
         e < expansions.size() && next.size() < static_cast<size_t>(beam_width);
         ++e) {
      const Expansion& x = expansions[e];
      Hypothesis hyp;
      hyp.state = x.state;
      hyp.tags = beam[x.hyp].tags;
      hyp.tags.push_back(x.tag);
      hyp.prev_tag = x.tag;
      hyp.log_prob = x.log_prob;
      next.push_back(std::move(hyp));
    }
    beam = std::move(next);
  }
  return tags_->TagIdsToSpans(beam.front().tags);
}

std::vector<text::Span> RnnDecoder::Predict(const Var& encodings) const {
  obs::ScopedSpan span("decode/rnn");
  const int t_len = encodings->value.rows();
  RnnState state = cell_->InitialState();
  std::vector<int> predicted(t_len);
  int prev_tag = GoId();
  for (int t = 0; t < t_len; ++t) {
    Var input =
        Concat({Row(encodings, t), tag_embedding_->LookupOne(prev_tag)});
    state = cell_->Step(input, state);
    Var logits = out_->Apply(state.h);
    int arg = 0;
    for (int j = 1; j < tags_->size(); ++j) {
      if (logits->value[j] > logits->value[arg]) arg = j;
    }
    predicted[t] = arg;
    prev_tag = arg;
  }
  return tags_->TagIdsToSpans(predicted);
}

}  // namespace dlner::decoders
