#include "decoders/pointer.h"

#include <algorithm>

#include "obs/trace.h"
#include "tensor/ops.h"

namespace dlner::decoders {

PointerDecoder::PointerDecoder(int in_dim,
                               std::vector<std::string> entity_types,
                               int max_segment_len, int hidden_dim, Rng* rng,
                               const std::string& name)
    : entity_types_(std::move(entity_types)), max_len_(max_segment_len) {
  DLNER_CHECK(!entity_types_.empty());
  DLNER_CHECK_GE(max_len_, 1);
  cell_ = std::make_unique<LstmCell>(in_dim, hidden_dim, rng, name + ".cell");
  ptr_enc_ =
      std::make_unique<Linear>(in_dim, hidden_dim, rng, name + ".ptr_enc");
  ptr_dec_ = std::make_unique<Linear>(hidden_dim, hidden_dim, rng,
                                      name + ".ptr_dec");
  ptr_v_ = Parameter(UniformVector(hidden_dim, 0.5, rng), name + ".ptr_v");
  const int num_labels = static_cast<int>(entity_types_.size()) + 1;
  label_out_ = std::make_unique<Linear>(in_dim + hidden_dim, num_labels, rng,
                                        name + ".label_out");
}

std::vector<Var> PointerDecoder::Parameters() const {
  std::vector<Var> all = JoinParameters(
      {cell_.get(), ptr_enc_.get(), ptr_dec_.get(), label_out_.get()});
  all.push_back(ptr_v_);
  return all;
}

Var PointerDecoder::EndLogits(const Var& encodings, const Var& hidden,
                              int start, int limit) const {
  Var dec_part = ptr_dec_->Apply(hidden);  // [h]
  std::vector<Var> scores;
  scores.reserve(limit - start);
  for (int q = start; q < limit; ++q) {
    Var enc_part = ptr_enc_->Apply(Row(encodings, q));  // [h]
    scores.push_back(Dot(ptr_v_, Tanh(Add(enc_part, dec_part))));
  }
  return Concat(scores);  // [limit - start]
}

Var PointerDecoder::LabelLogits(const Var& encodings, const Var& hidden,
                                int start, int end) const {
  std::vector<int> rows(end - start);
  for (int t = 0; t < end - start; ++t) rows[t] = start + t;
  Var seg_rep = MeanOverRows(Rows(encodings, rows));  // [in_dim]
  return label_out_->Apply(Concat({seg_rep, hidden}));
}

Var PointerDecoder::Loss(const Var& encodings, const text::Sentence& gold) {
  obs::ScopedSpan span("loss/pointer");
  const int t_len = encodings->value.rows();
  DLNER_CHECK_EQ(t_len, gold.size());

  // Gold segmentation: entity spans + length-1 O segments, left to right.
  std::vector<text::Span> spans = gold.spans;
  std::sort(spans.begin(), spans.end());
  auto label_of = [this](const std::string& type) {
    for (size_t i = 0; i < entity_types_.size(); ++i) {
      if (entity_types_[i] == type) return static_cast<int>(i) + 1;
    }
    DLNER_CHECK_MSG(false, "unknown entity type: " << type);
  };

  RnnState state = cell_->InitialState();
  std::vector<Var> terms;
  int pos = 0;
  size_t span_idx = 0;
  while (pos < t_len) {
    int seg_end;
    int label;
    if (span_idx < spans.size() && spans[span_idx].start == pos) {
      seg_end = spans[span_idx].end;
      label = label_of(spans[span_idx].type);
      ++span_idx;
    } else {
      seg_end = pos + 1;
      label = 0;
    }
    DLNER_CHECK_LE(seg_end - pos, max_len_);

    state = cell_->Step(Row(encodings, pos), state);
    const int limit = std::min(pos + max_len_, t_len);
    Var end_logits = EndLogits(encodings, state.h, pos, limit);
    terms.push_back(CrossEntropyWithLogits(end_logits, seg_end - 1 - pos));
    Var label_logits = LabelLogits(encodings, state.h, pos, seg_end);
    terms.push_back(CrossEntropyWithLogits(label_logits, label));
    pos = seg_end;
  }
  return Scale(Sum(Concat(terms)), 1.0 / static_cast<int>(terms.size()));
}

std::vector<text::Span> PointerDecoder::Predict(const Var& encodings) const {
  obs::ScopedSpan span("decode/pointer");
  const int t_len = encodings->value.rows();
  RnnState state = cell_->InitialState();
  std::vector<text::Span> spans;
  int pos = 0;
  while (pos < t_len) {
    state = cell_->Step(Row(encodings, pos), state);
    const int limit = std::min(pos + max_len_, t_len);
    Var end_logits = EndLogits(encodings, state.h, pos, limit);
    int best_off = 0;
    for (int i = 1; i < end_logits->value.size(); ++i) {
      if (end_logits->value[i] > end_logits->value[best_off]) best_off = i;
    }
    const int seg_end = pos + best_off + 1;
    Var label_logits = LabelLogits(encodings, state.h, pos, seg_end);
    int best_label = 0;
    for (int l = 1; l < label_logits->value.size(); ++l) {
      if (label_logits->value[l] > label_logits->value[best_label]) {
        best_label = l;
      }
    }
    if (best_label > 0) {
      spans.push_back({pos, seg_end, entity_types_[best_label - 1]});
    }
    pos = seg_end;
  }
  return spans;
}

}  // namespace dlner::decoders
