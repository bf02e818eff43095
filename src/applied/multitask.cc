#include "applied/multitask.h"

#include "tensor/ops.h"

namespace dlner::applied {

MultiTaskLmModel::MultiTaskLmModel(const core::NerConfig& config,
                                   const text::Corpus& train,
                                   std::vector<std::string> entity_types,
                                   Float lm_weight,
                                   const core::Resources& resources)
    : core::NerModel(config, train, std::move(entity_types), resources),
      lm_weight_(lm_weight) {
  const int enc_dim = encoder()->out_dim();
  // Rei's directional split: the next-word head sees only the first half
  // of the encoder state (the forward direction of a BiRNN) and the
  // prev-word head only the second half. With the full bidirectional
  // state, next-word prediction is trivial — the backward direction has
  // already read the next token — and the auxiliary task would inject
  // copy-identity features instead of predictive context.
  DLNER_CHECK_EQ(enc_dim % 2, 0);
  const int vocab_size = word_vocab().size();
  next_head_ = std::make_unique<Linear>(enc_dim / 2, vocab_size, rng(),
                                        "mtl.next_head");
  prev_head_ = std::make_unique<Linear>(enc_dim / 2, vocab_size, rng(),
                                        "mtl.prev_head");
}

Var MultiTaskLmModel::LmLoss(const Var& encodings,
                             const std::vector<std::string>& tokens) {
  const int t_len = encodings->value.rows();
  const int half = encodings->value.cols() / 2;
  const std::vector<int> ids = word_vocab().Encode(tokens);
  std::vector<Var> terms;
  for (int t = 0; t + 1 < t_len; ++t) {
    Var fwd_half = SliceVec(Row(encodings, t), 0, half);
    terms.push_back(CrossEntropyWithLogits(next_head_->Apply(fwd_half),
                                           ids[t + 1]));
  }
  for (int t = 1; t < t_len; ++t) {
    Var bwd_half = SliceVec(Row(encodings, t), half, half);
    terms.push_back(CrossEntropyWithLogits(prev_head_->Apply(bwd_half),
                                           ids[t - 1]));
  }
  if (terms.empty()) return Constant(Tensor({1}));
  return Scale(Sum(Concat(terms)), 1.0 / static_cast<int>(terms.size()));
}

Var MultiTaskLmModel::Loss(const text::Sentence& sentence, bool training) {
  Var rep = Represent(sentence.tokens, training);
  Var enc = EncodeTokens(rep, sentence.tokens, training);
  Var ner_loss = decoder()->Loss(enc, sentence);
  if (!training || lm_weight_ == 0.0) return ner_loss;
  Var lm_loss = LmLoss(enc, sentence.tokens);
  return Add(ner_loss, Scale(lm_loss, lm_weight_));
}

std::vector<Var> MultiTaskLmModel::Parameters() const {
  std::vector<Var> all = core::NerModel::Parameters();
  for (const Var& p : next_head_->Parameters()) all.push_back(p);
  for (const Var& p : prev_head_->Parameters()) all.push_back(p);
  return all;
}

// ---------------------------------------------------------------------------
// MultiTaskBoundaryModel.
// ---------------------------------------------------------------------------

MultiTaskBoundaryModel::MultiTaskBoundaryModel(
    const core::NerConfig& config, const text::Corpus& train,
    std::vector<std::string> entity_types, Float boundary_weight,
    const core::Resources& resources)
    : core::NerModel(config, train, std::move(entity_types), resources),
      boundary_weight_(boundary_weight),
      boundary_tags_({"ENT"}, text::TagScheme::kBio) {
  boundary_head_ = std::make_unique<Linear>(
      encoder()->out_dim(), boundary_tags_.size(), rng(), "mtl.boundary");
}

Var MultiTaskBoundaryModel::BoundaryLoss(const Var& encodings,
                                         const text::Sentence& gold) {
  // Erase entity types: every mention becomes type "ENT".
  std::vector<text::Span> untyped = gold.spans;
  for (text::Span& sp : untyped) sp.type = "ENT";
  const std::vector<int> gold_ids =
      boundary_tags_.SpansToTagIds(untyped, gold.size());
  std::vector<Var> terms;
  for (int t = 0; t < gold.size(); ++t) {
    terms.push_back(CrossEntropyWithLogits(
        boundary_head_->Apply(Row(encodings, t)), gold_ids[t]));
  }
  return Scale(Sum(Concat(terms)), 1.0 / gold.size());
}

Var MultiTaskBoundaryModel::Loss(const text::Sentence& sentence,
                                 bool training) {
  Var rep = Represent(sentence.tokens, training);
  Var enc = EncodeTokens(rep, sentence.tokens, training);
  Var ner_loss = decoder()->Loss(enc, sentence);
  if (!training || boundary_weight_ == 0.0) return ner_loss;
  return Add(ner_loss,
             Scale(BoundaryLoss(enc, sentence), boundary_weight_));
}

std::vector<text::Span> MultiTaskBoundaryModel::PredictBoundaries(
    const std::vector<std::string>& tokens) const {
  NoGradGuard no_grad;
  Var rep = Represent(tokens, /*training=*/false);
  Var enc = EncodeTokens(rep, tokens, /*training=*/false);
  std::vector<int> ids(tokens.size());
  for (size_t t = 0; t < tokens.size(); ++t) {
    Var logits = boundary_head_->Apply(Row(enc, static_cast<int>(t)));
    int arg = 0;
    for (int k = 1; k < logits->value.size(); ++k) {
      if (logits->value[k] > logits->value[arg]) arg = k;
    }
    ids[t] = arg;
  }
  return boundary_tags_.TagIdsToSpans(ids);
}

std::vector<Var> MultiTaskBoundaryModel::Parameters() const {
  std::vector<Var> all = core::NerModel::Parameters();
  for (const Var& p : boundary_head_->Parameters()) all.push_back(p);
  return all;
}

}  // namespace dlner::applied
