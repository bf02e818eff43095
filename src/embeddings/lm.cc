#include "embeddings/lm.h"

#include <istream>
#include <ostream>
#include <sstream>

#include "tensor/ops.h"
#include "tensor/serialize.h"

namespace dlner::embeddings {
namespace {

// Deserialization sanity caps: any saved LM exceeding them is corrupt.
// Kept tight (real LM dims are tens) so a corrupt header that slips past
// the range check still cannot request a large LSTM allocation.
constexpr int kMaxLmDim = 1024;
constexpr uint32_t kMaxVocabBlock = 1u << 26;  // 64 MB of vocab text

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
bool ReadPod(std::istream& is, T* v) {
  is.read(reinterpret_cast<char*>(v), sizeof(*v));
  return static_cast<bool>(is);
}

void WriteVocab(std::ostream& os, const text::Vocabulary& vocab) {
  std::ostringstream block;
  vocab.Save(block);
  WriteLenString(os, block.str());
}

bool ReadVocab(std::istream& is, text::Vocabulary* vocab) {
  std::string block;
  if (!ReadLenString(is, &block, kMaxVocabBlock)) return false;
  return text::Vocabulary::Load(block, vocab);
}

}  // namespace

// ---------------------------------------------------------------------------
// CharLm.
// ---------------------------------------------------------------------------

CharLm::CharLm(const Config& config) : config_(config), rng_(config.seed) {
  // Fixed printable-ASCII inventory so extraction never needs retraining.
  for (int c = 32; c < 127; ++c) {
    char_vocab_.Add(std::string(1, static_cast<char>(c)));
  }
  char_vocab_.Freeze();
  BuildModules();
}

void CharLm::BuildModules() {
  char_embedding_ = std::make_unique<Embedding>(
      char_vocab_.size(), config_.char_dim, &rng_, "charlm.emb");
  fwd_ = std::make_unique<LstmCell>(config_.char_dim, config_.hidden_dim,
                                    &rng_, "charlm.fwd");
  bwd_ = std::make_unique<LstmCell>(config_.char_dim, config_.hidden_dim,
                                    &rng_, "charlm.bwd");
  fwd_out_ = std::make_unique<Linear>(config_.hidden_dim, char_vocab_.size(),
                                      &rng_, "charlm.fwd_out");
  bwd_out_ = std::make_unique<Linear>(config_.hidden_dim, char_vocab_.size(),
                                      &rng_, "charlm.bwd_out");
}

void CharLm::Save(std::ostream& os) const {
  WritePod(os, config_.char_dim);
  WritePod(os, config_.hidden_dim);
  WritePod(os, config_.epochs);
  WritePod(os, config_.lr);
  WritePod(os, config_.seed);
  WritePod(os, config_.max_chars);
  WriteVocab(os, char_vocab_);
  SaveParameters(os, Parameters());
}

std::unique_ptr<CharLm> CharLm::Load(std::istream& is) {
  Config config;
  if (!ReadPod(is, &config.char_dim)) return nullptr;
  if (!ReadPod(is, &config.hidden_dim)) return nullptr;
  if (!ReadPod(is, &config.epochs)) return nullptr;
  if (!ReadPod(is, &config.lr)) return nullptr;
  if (!ReadPod(is, &config.seed)) return nullptr;
  if (!ReadPod(is, &config.max_chars)) return nullptr;
  if (config.char_dim <= 0 || config.char_dim > kMaxLmDim ||
      config.hidden_dim <= 0 || config.hidden_dim > kMaxLmDim) {
    return nullptr;
  }
  // LoadParameters overwrites every parameter or fails the load.
  SkipInitGuard skip_init;
  auto lm = std::make_unique<CharLm>(config);
  text::Vocabulary vocab;
  if (!ReadVocab(is, &vocab)) return nullptr;
  lm->char_vocab_ = std::move(vocab);
  lm->BuildModules();  // resize to the loaded inventory
  if (!LoadParameters(is, lm->Parameters())) return nullptr;
  return lm;
}

std::vector<Var> CharLm::Parameters() const {
  return JoinParameters({char_embedding_.get(), fwd_.get(), bwd_.get(),
                         fwd_out_.get(), bwd_out_.get()});
}

std::vector<int> CharLm::CharIds(
    const std::vector<std::string>& tokens,
    std::vector<std::pair<int, int>>* word_bounds) const {
  std::vector<int> ids;
  if (word_bounds != nullptr) word_bounds->clear();
  for (size_t w = 0; w < tokens.size(); ++w) {
    if (w > 0) ids.push_back(char_vocab_.Id(" "));
    const int start = static_cast<int>(ids.size());
    for (char c : tokens[w]) ids.push_back(char_vocab_.Id(std::string(1, c)));
    int end = static_cast<int>(ids.size()) - 1;
    if (end < start) end = start > 0 ? start - 1 : 0;  // empty token guard
    if (word_bounds != nullptr) word_bounds->push_back({start, end});
  }
  if (ids.empty()) ids.push_back(char_vocab_.Id(" "));
  return ids;
}

Float CharLm::SentenceLoss(const std::vector<int>& ids, bool backward_dir,
                           Var* loss) const {
  const int n = static_cast<int>(ids.size());
  if (n < 2) {
    *loss = Constant(Tensor({1}));
    return 0.0;
  }
  const LstmCell& cell = backward_dir ? *bwd_ : *fwd_;
  const Linear& out = backward_dir ? *bwd_out_ : *fwd_out_;
  RnnState state = cell.InitialState();
  std::vector<Var> terms;
  terms.reserve(n - 1);
  for (int step = 0; step < n - 1; ++step) {
    const int cur = backward_dir ? ids[n - 1 - step] : ids[step];
    const int next = backward_dir ? ids[n - 2 - step] : ids[step + 1];
    state = cell.Step(char_embedding_->LookupOne(cur), state);
    Var logits = out.ApplyVec(state.h);
    terms.push_back(CrossEntropyWithLogits(logits, next));
  }
  *loss = Scale(Sum(ConcatVecs(terms)), 1.0 / static_cast<int>(terms.size()));
  return (*loss)->value[0];
}

Float CharLm::Train(const std::vector<std::vector<std::string>>& sentences) {
  auto opt = std::make_unique<Adam>(Parameters(), config_.lr);
  Float last_nll = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Float total = 0.0;
    int count = 0;
    for (const auto& sent : sentences) {
      std::vector<int> ids = CharIds(sent, nullptr);
      if (static_cast<int>(ids.size()) > config_.max_chars) {
        ids.resize(config_.max_chars);
      }
      for (bool dir : {false, true}) {
        Var loss;
        const Float nll = SentenceLoss(ids, dir, &loss);
        if (loss->value.size() == 1 && loss->requires_grad) {
          opt->ZeroGrad();
          Backward(loss);
          opt->ClipGradNorm(5.0);
          opt->Step();
        }
        total += nll;
        ++count;
      }
    }
    last_nll = count > 0 ? total / count : 0.0;
  }
  return last_nll;
}

Float CharLm::Evaluate(const std::vector<std::vector<std::string>>& sentences) {
  Float total = 0.0;
  int count = 0;
  for (const auto& sent : sentences) {
    std::vector<int> ids = CharIds(sent, nullptr);
    for (bool dir : {false, true}) {
      Var loss;
      total += SentenceLoss(ids, dir, &loss);
      ++count;
    }
  }
  return count > 0 ? total / count : 0.0;
}

Tensor CharLm::Extract(const std::vector<std::string>& tokens) const {
  DLNER_CHECK(!tokens.empty());
  std::vector<std::pair<int, int>> bounds;
  const std::vector<int> ids = CharIds(tokens, &bounds);
  const int n = static_cast<int>(ids.size());
  const int h = config_.hidden_dim;

  // Hidden states after consuming each character, both directions.
  std::vector<Tensor> fwd_h(n), bwd_h(n);
  RnnState fs = fwd_->InitialState();
  for (int t = 0; t < n; ++t) {
    fs = fwd_->Step(char_embedding_->LookupOne(ids[t]), fs);
    fwd_h[t] = fs.h->value;
  }
  RnnState bs = bwd_->InitialState();
  for (int t = n - 1; t >= 0; --t) {
    bs = bwd_->Step(char_embedding_->LookupOne(ids[t]), bs);
    bwd_h[t] = bs.h->value;
  }

  Tensor out({static_cast<int>(tokens.size()), 2 * h});
  for (size_t w = 0; w < tokens.size(); ++w) {
    const auto [start, end] = bounds[w];
    for (int j = 0; j < h; ++j) {
      out.at(static_cast<int>(w), j) = fwd_h[end][j];
      out.at(static_cast<int>(w), h + j) = bwd_h[start][j];
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// TokenLm.
// ---------------------------------------------------------------------------

TokenLm::TokenLm(const Config& config) : config_(config), rng_(config.seed) {}

std::vector<Var> TokenLm::Parameters() const {
  if (!trained_ && word_embedding_ == nullptr) return {};
  return JoinParameters({word_embedding_.get(), fwd_.get(), bwd_.get(),
                         fwd_out_.get(), bwd_out_.get()});
}

void TokenLm::BuildModules() {
  word_embedding_ = std::make_unique<Embedding>(
      vocab_.size(), config_.word_dim, &rng_, "tokenlm.emb");
  fwd_ = std::make_unique<LstmCell>(config_.word_dim, config_.hidden_dim,
                                    &rng_, "tokenlm.fwd");
  bwd_ = std::make_unique<LstmCell>(config_.word_dim, config_.hidden_dim,
                                    &rng_, "tokenlm.bwd");
  fwd_out_ = std::make_unique<Linear>(config_.hidden_dim, vocab_.size(), &rng_,
                                      "tokenlm.fwd_out");
  bwd_out_ = std::make_unique<Linear>(config_.hidden_dim, vocab_.size(), &rng_,
                                      "tokenlm.bwd_out");
}

void TokenLm::Save(std::ostream& os) const {
  DLNER_CHECK_MSG(trained_, "cannot save an untrained TokenLm");
  WritePod(os, config_.word_dim);
  WritePod(os, config_.hidden_dim);
  WritePod(os, config_.epochs);
  WritePod(os, config_.lr);
  WritePod(os, config_.min_count);
  WritePod(os, config_.seed);
  WriteVocab(os, vocab_);
  SaveParameters(os, Parameters());
}

std::unique_ptr<TokenLm> TokenLm::Load(std::istream& is) {
  Config config;
  if (!ReadPod(is, &config.word_dim)) return nullptr;
  if (!ReadPod(is, &config.hidden_dim)) return nullptr;
  if (!ReadPod(is, &config.epochs)) return nullptr;
  if (!ReadPod(is, &config.lr)) return nullptr;
  if (!ReadPod(is, &config.min_count)) return nullptr;
  if (!ReadPod(is, &config.seed)) return nullptr;
  if (config.word_dim <= 0 || config.word_dim > kMaxLmDim ||
      config.hidden_dim <= 0 || config.hidden_dim > kMaxLmDim) {
    return nullptr;
  }
  // LoadParameters overwrites every parameter or fails the load.
  SkipInitGuard skip_init;
  auto lm = std::make_unique<TokenLm>(config);
  if (!ReadVocab(is, &lm->vocab_)) return nullptr;
  lm->BuildModules();
  lm->trained_ = true;
  if (!LoadParameters(is, lm->Parameters())) return nullptr;
  return lm;
}

Float TokenLm::Train(const std::vector<std::vector<std::string>>& sentences) {
  for (const auto& sent : sentences) {
    for (const std::string& w : sent) vocab_.Add(w);
  }
  vocab_.Freeze(config_.min_count);
  BuildModules();
  trained_ = true;

  auto opt = std::make_unique<Adam>(Parameters(), config_.lr);
  Float last_nll = 0.0;
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Float total = 0.0;
    int count = 0;
    for (const auto& sent : sentences) {
      const std::vector<int> ids = vocab_.Encode(sent);
      const int n = static_cast<int>(ids.size());
      if (n < 2) continue;
      for (bool backward_dir : {false, true}) {
        const LstmCell& cell = backward_dir ? *bwd_ : *fwd_;
        const Linear& out = backward_dir ? *bwd_out_ : *fwd_out_;
        RnnState state = cell.InitialState();
        std::vector<Var> terms;
        for (int step = 0; step < n - 1; ++step) {
          const int cur = backward_dir ? ids[n - 1 - step] : ids[step];
          const int next = backward_dir ? ids[n - 2 - step] : ids[step + 1];
          state = cell.Step(word_embedding_->LookupOne(cur), state);
          terms.push_back(
              CrossEntropyWithLogits(out.ApplyVec(state.h), next));
        }
        Var loss =
            Scale(Sum(ConcatVecs(terms)), 1.0 / static_cast<int>(terms.size()));
        opt->ZeroGrad();
        Backward(loss);
        opt->ClipGradNorm(5.0);
        opt->Step();
        total += loss->value[0];
        ++count;
      }
    }
    last_nll = count > 0 ? total / count : 0.0;
  }
  return last_nll;
}

Tensor TokenLm::Extract(const std::vector<std::string>& tokens) const {
  DLNER_CHECK(trained_);
  DLNER_CHECK(!tokens.empty());
  const std::vector<int> ids = vocab_.Encode(tokens);
  const int n = static_cast<int>(ids.size());
  const int h = config_.hidden_dim;
  Tensor out({n, 2 * h});

  RnnState fs = fwd_->InitialState();
  for (int t = 0; t < n; ++t) {
    fs = fwd_->Step(word_embedding_->LookupOne(ids[t]), fs);
    for (int j = 0; j < h; ++j) out.at(t, j) = fs.h->value[j];
  }
  RnnState bs = bwd_->InitialState();
  for (int t = n - 1; t >= 0; --t) {
    bs = bwd_->Step(word_embedding_->LookupOne(ids[t]), bs);
    for (int j = 0; j < h; ++j) out.at(t, h + j) = bs.h->value[j];
  }
  return out;
}

}  // namespace dlner::embeddings
