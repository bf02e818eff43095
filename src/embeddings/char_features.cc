#include "embeddings/char_features.h"

namespace dlner::embeddings {

std::vector<int> CharIdsOf(const text::Vocabulary& char_vocab,
                           const std::string& word) {
  std::vector<int> ids = char_vocab.EncodeChars(word);
  if (ids.empty()) ids.push_back(text::Vocabulary::kUnkId);
  return ids;
}

CharCnnFeature::CharCnnFeature(const text::Vocabulary* char_vocab,
                               int char_dim, int num_filters, Rng* rng,
                               const std::string& name)
    : char_vocab_(char_vocab),
      num_filters_(num_filters),
      char_embedding_(std::make_unique<Embedding>(char_vocab->size(), char_dim,
                                                  rng, name + ".emb")),
      conv_(std::make_unique<Conv1d>(char_dim, num_filters, /*width=*/3,
                                     /*dilation=*/1, rng, name + ".conv")) {
  DLNER_CHECK(char_vocab_ != nullptr);
}

Var CharCnnFeature::Forward(const std::vector<std::string>& tokens,
                            bool /*training*/) const {
  std::vector<Var> rows;
  rows.reserve(tokens.size());
  for (const std::string& word : tokens) {
    const std::vector<int> ids = CharIdsOf(*char_vocab_, word);
    Var chars = char_embedding_->Lookup(ids);          // [L, char_dim]
    Var conv = Relu(conv_->Apply(chars));              // [L, filters]
    rows.push_back(MaxOverRows(conv));                 // [filters]
  }
  return StackRows(rows);
}

std::vector<Var> CharCnnFeature::Parameters() const {
  return JoinParameters({char_embedding_.get(), conv_.get()});
}

CharRnnFeature::CharRnnFeature(const text::Vocabulary* char_vocab,
                               int char_dim, int hidden_dim, Rng* rng,
                               const std::string& name)
    : char_vocab_(char_vocab),
      hidden_dim_(hidden_dim),
      char_embedding_(std::make_unique<Embedding>(char_vocab->size(), char_dim,
                                                  rng, name + ".emb")),
      forward_(std::make_unique<LstmCell>(char_dim, hidden_dim, rng,
                                          name + ".fwd")),
      backward_(std::make_unique<LstmCell>(char_dim, hidden_dim, rng,
                                           name + ".bwd")) {
  DLNER_CHECK(char_vocab_ != nullptr);
}

Var CharRnnFeature::Forward(const std::vector<std::string>& tokens,
                            bool /*training*/) const {
  std::vector<Var> rows;
  rows.reserve(tokens.size());
  for (const std::string& word : tokens) {
    const std::vector<int> ids = CharIdsOf(*char_vocab_, word);
    Var chars = char_embedding_->Lookup(ids);  // [L, char_dim]
    auto [fwd_out, fwd_state] = RunRnnWithState(*forward_, chars, false);
    auto [bwd_out, bwd_state] = RunRnnWithState(*backward_, chars, true);
    rows.push_back(ConcatVecs({fwd_state.h, bwd_state.h}));
  }
  return StackRows(rows);
}

std::vector<Var> CharRnnFeature::Parameters() const {
  return JoinParameters(
      {char_embedding_.get(), forward_.get(), backward_.get()});
}

}  // namespace dlner::embeddings
