#include "embeddings/lm.h"

#include <cstring>
#include <istream>
#include <ostream>

#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace dlner::embeddings {

BiLstmLm::BiLstmLm(const std::string& prefix, int unit_dim, int hidden_dim,
                   uint64_t seed)
    : prefix_(prefix),
      unit_dim_(unit_dim),
      hidden_dim_(hidden_dim),
      rng_(seed) {}

void BiLstmLm::Build() {
  embedding_ = std::make_unique<Embedding>(vocab_.size(), unit_dim_, &rng_,
                                           prefix_ + ".emb");
  fwd_ = std::make_unique<LstmCell>(unit_dim_, hidden_dim_, &rng_,
                                    prefix_ + ".fwd");
  bwd_ = std::make_unique<LstmCell>(unit_dim_, hidden_dim_, &rng_,
                                    prefix_ + ".bwd");
  fwd_out_ = std::make_unique<Linear>(hidden_dim_, vocab_.size(), &rng_,
                                      prefix_ + ".fwd_out");
  bwd_out_ = std::make_unique<Linear>(hidden_dim_, vocab_.size(), &rng_,
                                      prefix_ + ".bwd_out");
}

std::vector<Var> BiLstmLm::Parameters() const {
  return JoinParameters({embedding_.get(), fwd_.get(), bwd_.get(),
                         fwd_out_.get(), bwd_out_.get()});
}

Var BiLstmLm::DirectionLoss(const std::vector<int>& ids, bool backward) const {
  const int n = static_cast<int>(ids.size());
  DLNER_CHECK_GE(n, 2);
  const LstmCell& cell = backward ? *bwd_ : *fwd_;
  const Linear& out = backward ? *bwd_out_ : *fwd_out_;
  RnnState state = cell.InitialState();
  std::vector<Var> terms;
  terms.reserve(n - 1);
  for (int step = 0; step < n - 1; ++step) {
    const int cur = backward ? ids[n - 1 - step] : ids[step];
    const int next = backward ? ids[n - 2 - step] : ids[step + 1];
    state = cell.Step(embedding_->LookupOne(cur), state);
    terms.push_back(CrossEntropyWithLogits(out.Apply(state.h), next));
  }
  return Scale(Sum(Concat(terms)), 1.0 / static_cast<int>(terms.size()));
}

Float BiLstmLm::TrainSequences(const std::vector<std::vector<int>>& sequences,
                               int epochs, double lr) {
  Adam opt(Parameters(), lr);
  Float last_nll = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    Float total = 0.0;
    int count = 0;
    for (const std::vector<int>& ids : sequences) {
      for (bool backward : {false, true}) {
        if (ids.size() >= 2) {
          const Var loss = DirectionLoss(ids, backward);
          opt.ZeroGrad();
          Backward(loss);
          opt.ClipGradNorm(5.0);
          opt.Step();
          total += loss->value[0];
        }
        ++count;
      }
    }
    last_nll = count > 0 ? total / count : 0.0;
  }
  return last_nll;
}

const Float* BiLstmLm::States(const std::vector<int>& ids,
                              const batched::BatchLayout& segments,
                              Arena* arena) const {
  DLNER_CHECK_EQ(static_cast<int>(ids.size()), segments.rows());
  const Float* table = embedding_->table()->value.data();
  Float* units = arena->Alloc(ids.size() * unit_dim_);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::memcpy(units + i * unit_dim_,
                table + static_cast<std::size_t>(ids[i]) * unit_dim_,
                unit_dim_ * sizeof(Float));
  }
  Float* states = arena->Alloc(ids.size() * dim());
  batched::BiLstm(units, unit_dim_, hidden_dim_, segments, fwd_->packed(),
                  bwd_->packed(), states, arena);
  return states;
}

void BiLstmLm::SaveBody(std::ostream& os) const {
  vocab_.SaveBlock(os);
  SaveParameters(os, Parameters());
}

template <typename Lm>
std::unique_ptr<Lm> BiLstmLm::LoadBody(std::istream& is,
                                       const typename Lm::Config& config,
                                       int unit_dim) {
  constexpr int kMaxLmDim = 1024;  // any saved LM exceeding it is corrupt
  if (unit_dim <= 0 || unit_dim > kMaxLmDim || config.hidden_dim <= 0 ||
      config.hidden_dim > kMaxLmDim) {
    return nullptr;
  }
  // The guard's tensors stay unwritten: Build makes nothing but
  // parameters, and LoadParameters overwrites every one of them or fails
  // the load (the constructor's Build, if any, is replaced unread).
  SkipInitGuard skip_init;
  auto lm = std::make_unique<Lm>(config);
  if (!text::Vocabulary::LoadBlock(is, &lm->vocab_)) return nullptr;
  lm->Build();  // resize to the loaded inventory
  if (!LoadParameters(is, lm->Parameters())) return nullptr;
  return lm;
}

// ---------------------------------------------------------------------------
// CharLm.
// ---------------------------------------------------------------------------

CharLm::CharLm(const Config& config)
    : BiLstmLm("charlm", config.char_dim, config.hidden_dim, config.seed),
      config_(config) {
  // Fixed printable-ASCII inventory so extraction never needs retraining.
  for (int c = 32; c < 127; ++c) {
    vocab_.Add(std::string(1, static_cast<char>(c)));
  }
  vocab_.Freeze();
  Build();
}

void CharLm::Save(std::ostream& os) const {
  WritePod(os, config_.char_dim);
  WritePod(os, config_.hidden_dim);
  WritePod(os, config_.epochs);
  WritePod(os, config_.lr);
  WritePod(os, config_.seed);
  WritePod(os, config_.max_chars);
  SaveBody(os);
}

std::unique_ptr<CharLm> CharLm::Load(std::istream& is) {
  Config config;
  if (!ReadPod(is, &config.char_dim)) return nullptr;
  if (!ReadPod(is, &config.hidden_dim)) return nullptr;
  if (!ReadPod(is, &config.epochs)) return nullptr;
  if (!ReadPod(is, &config.lr)) return nullptr;
  if (!ReadPod(is, &config.seed)) return nullptr;
  if (!ReadPod(is, &config.max_chars)) return nullptr;
  return LoadBody<CharLm>(is, config, config.char_dim);
}

std::vector<int> CharLm::CharIds(
    const std::vector<std::string>& tokens,
    std::vector<std::pair<int, int>>* word_bounds) const {
  std::vector<int> ids;
  if (word_bounds != nullptr) word_bounds->clear();
  for (size_t w = 0; w < tokens.size(); ++w) {
    if (w > 0) ids.push_back(vocab_.Id(" "));
    int start = static_cast<int>(ids.size());
    for (char c : tokens[w]) ids.push_back(vocab_.Id(std::string(1, c)));
    int end = static_cast<int>(ids.size()) - 1;
    if (end < start) end = start > 0 ? start - 1 : 0;  // empty token guard
    if (start > end && w + 1 == tokens.size()) start = end;  // no space follows
    if (word_bounds != nullptr) word_bounds->push_back({start, end});
  }
  if (ids.empty()) ids.push_back(vocab_.Id(" "));
  return ids;
}

Float CharLm::Train(const std::vector<std::vector<std::string>>& sentences) {
  std::vector<std::vector<int>> sequences;
  sequences.reserve(sentences.size());
  for (const auto& sent : sentences) {
    sequences.push_back(CharIds(sent, nullptr));
    if (static_cast<int>(sequences.back().size()) > config_.max_chars) {
      sequences.back().resize(config_.max_chars);
    }
  }
  return TrainSequences(sequences, config_.epochs, config_.lr);
}

void CharLm::Fill(const batched::PackedBatch& batch, Float* dst,
                  int stride) const {
  const Arena::Scope scratch(batch.arena);
  std::vector<int> ids;
  std::vector<std::pair<int, int>> bounds;  // per packed token, into ids
  batched::BatchLayout sentences;
  for (int b = 0; b < batch.batch(); ++b) {
    std::vector<std::pair<int, int>> words;
    const std::vector<int> chars = CharIds(batch.tokens(b), &words);
    for (const auto& [start, end] : words) {
      bounds.emplace_back(ids.size() + start, ids.size() + end);
    }
    ids.insert(ids.end(), chars.begin(), chars.end());
    sentences.Add(static_cast<int>(chars.size()));
  }
  const Float* states = States(ids, sentences, batch.arena);
  const std::size_t h = config_.hidden_dim;
  for (std::size_t r = 0; r < bounds.size(); ++r) {
    const auto [start, end] = bounds[r];
    std::memcpy(dst + r * stride, states + end * 2 * h, h * sizeof(Float));
    std::memcpy(dst + r * stride + h, states + start * 2 * h + h,
                h * sizeof(Float));
  }
}

// ---------------------------------------------------------------------------
// TokenLm.
// ---------------------------------------------------------------------------

TokenLm::TokenLm(const Config& config)
    : BiLstmLm("tokenlm", config.word_dim, config.hidden_dim, config.seed),
      config_(config) {}

void TokenLm::Save(std::ostream& os) const {
  DLNER_CHECK_MSG(built(), "cannot save an untrained TokenLm");
  WritePod(os, config_.word_dim);
  WritePod(os, config_.hidden_dim);
  WritePod(os, config_.epochs);
  WritePod(os, config_.lr);
  WritePod(os, config_.min_count);
  WritePod(os, config_.seed);
  SaveBody(os);
}

std::unique_ptr<TokenLm> TokenLm::Load(std::istream& is) {
  Config config;
  if (!ReadPod(is, &config.word_dim)) return nullptr;
  if (!ReadPod(is, &config.hidden_dim)) return nullptr;
  if (!ReadPod(is, &config.epochs)) return nullptr;
  if (!ReadPod(is, &config.lr)) return nullptr;
  if (!ReadPod(is, &config.min_count)) return nullptr;
  if (!ReadPod(is, &config.seed)) return nullptr;
  return LoadBody<TokenLm>(is, config, config.word_dim);
}

Float TokenLm::Train(const std::vector<std::vector<std::string>>& sentences) {
  for (const auto& sent : sentences) {
    for (const std::string& w : sent) vocab_.Add(w);
  }
  vocab_.Freeze(config_.min_count);
  Build();

  std::vector<std::vector<int>> sequences;
  for (const auto& sent : sentences) {
    std::vector<int> ids = vocab_.Encode(sent);
    if (ids.size() >= 2) sequences.push_back(std::move(ids));
  }
  return TrainSequences(sequences, config_.epochs, config_.lr);
}

void TokenLm::Fill(const batched::PackedBatch& batch, Float* dst,
                   int stride) const {
  DLNER_CHECK(built());
  const Arena::Scope scratch(batch.arena);
  std::vector<int> ids;
  for (int b = 0; b < batch.batch(); ++b) {
    for (const int id : vocab_.Encode(batch.tokens(b))) ids.push_back(id);
  }
  const Float* states = States(ids, *batch.layout, batch.arena);
  for (std::size_t r = 0; r < ids.size(); ++r) {
    std::memcpy(dst + r * stride, states + r * dim(), dim() * sizeof(Float));
  }
}

}  // namespace dlner::embeddings
