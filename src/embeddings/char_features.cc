#include "embeddings/char_features.h"

#include <cstring>

namespace dlner::embeddings {
namespace {

// The character ids a char feature reads for one word: the word's bytes
// through `char_vocab`, or a single kUnkId for the empty word.
std::vector<int> CharIdsOf(const text::Vocabulary& char_vocab,
                           const std::string& word) {
  std::vector<int> ids = char_vocab.EncodeChars(word);
  if (ids.empty()) ids.push_back(text::Vocabulary::kUnkId);
  return ids;
}

// The packed character fills: every token of the micro-batch becomes one
// segment of a character BatchLayout (segment r is packed token row r), so
// the whole batch's characters go through one embedding gather and one
// batched kernel instead of one eager graph per word. Returns the gathered
// [chars->rows(), char_dim] embedding rows.
const Float* GatherChars(const batched::PackedBatch& batch,
                         const text::Vocabulary& vocab, const Tensor& table,
                         batched::BatchLayout* chars) {
  std::vector<int> ids;
  for (int b = 0; b < batch.batch(); ++b) {
    for (const std::string& word : batch.tokens(b)) {
      const std::vector<int> word_ids = CharIdsOf(vocab, word);
      ids.insert(ids.end(), word_ids.begin(), word_ids.end());
      chars->Add(static_cast<int>(word_ids.size()));
    }
  }
  const int d = table.cols();
  Float* x = batch.arena->Alloc(ids.size() * d);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(x + i * d, table.data() + static_cast<std::size_t>(ids[i]) * d,
                d * sizeof(Float));
  }
  return x;
}

}  // namespace

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

// Forward with one segment per word: conv + ReLU over each word's
// characters, then max-pooling over them. The character rows are scratch,
// freed once the pooled rows are written.
void CharCnnFeature::FillPacked(const batched::PackedBatch& batch, Float* dst,
                                int stride) const {
  const Arena::Scope scratch(batch.arena);
  const Tensor& table = char_embedding_->table()->value;
  batched::BatchLayout chars;
  const Float* x = GatherChars(batch, *char_vocab_, table, &chars);
  Float* h =
      batch.arena->Alloc(static_cast<std::size_t>(chars.rows()) * num_filters_);
  batched::ConvSegments(x, table.cols(), chars, conv_->width(),
                        conv_->dilation(), conv_->weight()->value,
                        conv_->bias()->value, h, batched::Act::kRelu);
  batched::MaxOverSegments(h, num_filters_, chars, dst, stride);
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
    rows.push_back(Concat({fwd_state.h, bwd_state.h}));
  }
  return StackRows(rows);
}

// Forward's two final states with one segment per word: the forward state
// after a word's last character and the backward state after its first.
// Character rows are scratch, as in CharCnnFeature::FillPacked.
void CharRnnFeature::FillPacked(const batched::PackedBatch& batch, Float* dst,
                                int stride) const {
  const Arena::Scope scratch(batch.arena);
  const Tensor& table = char_embedding_->table()->value;
  batched::BatchLayout chars;
  const Float* x = GatherChars(batch, *char_vocab_, table, &chars);
  const int hd = hidden_dim_;
  Float* h =
      batch.arena->Alloc(static_cast<std::size_t>(chars.rows()) * 2 * hd);
  batched::BiLstm(x, table.cols(), hd, chars, forward_->packed(),
                  backward_->packed(), h, batch.arena);
  for (int w = 0; w < chars.batch(); ++w) {
    const std::size_t first = chars.offset(w);
    const std::size_t last = first + chars.len(w) - 1;
    Float* row = dst + static_cast<std::size_t>(w) * stride;
    std::memcpy(row, h + last * 2 * hd, hd * sizeof(Float));
    std::memcpy(row + hd, h + first * 2 * hd + hd, hd * sizeof(Float));
  }
}

std::vector<Var> CharRnnFeature::Parameters() const {
  return JoinParameters(
      {char_embedding_.get(), forward_.get(), backward_.get()});
}

}  // namespace dlner::embeddings
