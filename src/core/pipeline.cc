#include "core/pipeline.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <span>
#include <utility>

#include "runtime/runtime.h"
#include "tensor/nn.h"
#include "tensor/serialize.h"

namespace dlner::core {
namespace {

// Checkpoint format v2 ("DLNERPIPE2"): v1 plus embedded resource blocks
// (gazetteer, char-LM, token-LM) after the vocabulary blocks. v1 files
// ("DLNERPIPE1") are rejected cleanly by the magic comparison.
constexpr char kMagic[] = "DLNERPIPE2";

// Deserialization caps: streams exceeding them are corrupt, not large.
constexpr uint32_t kMaxEntityTypes = 4096;
constexpr uint32_t kMaxEntityTypeLen = 4096;

// Zero-fills `ranges` read as one array, cut into one contiguous share per
// runtime thread. A fresh model's storage is mostly untouched pages, and
// the first write to each one faults; the faults of different threads
// proceed in parallel, where the read that follows would take them one
// page at a time.
void ZeroFillOnPool(const std::vector<std::span<Float>>& ranges) {
  std::size_t total = 0;
  for (const std::span<Float> r : ranges) total += r.size();
  const std::int64_t shares = runtime::Runtime::Get().threads();
  runtime::ParallelFor(shares, 1, [&](std::int64_t begin, std::int64_t end) {
    const std::size_t lo = total * begin / shares;
    const std::size_t hi = total * end / shares;
    std::size_t offset = 0;  // of the current range within the whole
    for (const std::span<Float> r : ranges) {
      const std::size_t from = std::max(lo, offset);
      const std::size_t to = std::min(hi, offset + r.size());
      if (from < to) {
        std::fill(r.data() + (from - offset), r.data() + (to - offset), 0.0);
      }
      offset += r.size();
    }
  });
}

}  // namespace

std::unique_ptr<Pipeline> Pipeline::Train(
    const NerConfig& config, const TrainConfig& train_config,
    const text::Corpus& train, const text::Corpus* dev,
    std::vector<std::string> entity_types, const Resources& resources) {
  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline());
  pipeline->resources_ = resources;
  pipeline->model_ = std::make_unique<NerModel>(
      config, train, std::move(entity_types), resources);
  Trainer trainer(pipeline->model_.get(), train_config);
  pipeline->train_result_ = trainer.Train(train, dev);
  return pipeline;
}

std::vector<text::Span> Pipeline::Tag(
    const std::vector<std::string>& tokens) const {
  text::Corpus corpus;
  corpus.sentences.resize(1);
  corpus.sentences[0].tokens = tokens;
  return std::move(TagCorpus(corpus)[0]);
}

text::Sentence Pipeline::TagText(const std::string& raw) const {
  text::Sentence s;
  s.tokens = text::SplitWhitespace(raw);
  s.spans = Tag(s.tokens);
  return s;
}

std::vector<std::vector<text::Span>> Pipeline::TagCorpus(
    const text::Corpus& corpus) const {
  return model_->PredictCorpus(corpus);
}

eval::ExactResult Pipeline::Evaluate(const text::Corpus& corpus) const {
  return model_->Evaluate(corpus);
}

bool Pipeline::Save(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) return false;
  return Save(os);
}

bool Pipeline::Save(std::ostream& os) const {
  const NerConfig& config = model_->config();
  // Every enabled resource must still be reachable to be checkpointed.
  if (config.use_gazetteer && resources_.gazetteer == nullptr) return false;
  if (config.use_char_lm && resources_.char_lm == nullptr) return false;
  if (config.use_token_lm && resources_.token_lm == nullptr) return false;
  os.write(kMagic, sizeof(kMagic));
  WriteConfig(os, config);
  // Entity types.
  const auto& types = model_->entity_types();
  WriteU32(os, static_cast<uint32_t>(types.size()));
  for (const std::string& t : types) WriteLenString(os, t);
  // Vocabularies (length-framed text blocks).
  model_->word_vocab().SaveBlock(os);
  model_->char_vocab().SaveBlock(os);
  // Resource blocks, in fixed order, present iff the config enables them.
  if (config.use_gazetteer) resources_.gazetteer->Save(os);
  if (config.use_char_lm) resources_.char_lm->Save(os);
  if (config.use_token_lm) resources_.token_lm->Save(os);
  SaveParameters(os, model_->Parameters());
  return static_cast<bool>(os);
}

std::unique_ptr<Pipeline> Pipeline::Load(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return nullptr;
  return Load(is);
}

std::unique_ptr<Pipeline> Pipeline::Load(std::istream& is) {
  char magic[sizeof(kMagic)];
  is.read(magic, sizeof(magic));
  if (!is || std::string(magic, sizeof(magic)) !=
                 std::string(kMagic, sizeof(kMagic))) {
    return nullptr;
  }
  NerConfig config;
  if (!ReadConfig(is, &config) || !config.Valid()) return nullptr;
  uint32_t n_types = 0;
  if (!ReadU32(is, &n_types) || n_types == 0 || n_types > kMaxEntityTypes) {
    return nullptr;
  }
  std::vector<std::string> types(n_types);
  for (uint32_t i = 0; i < n_types; ++i) {
    if (!ReadLenString(is, &types[i], kMaxEntityTypeLen)) return nullptr;
    if (types[i].empty()) return nullptr;
  }
  text::Vocabulary vocabs[2];
  for (auto& vocab : vocabs) {
    if (!text::Vocabulary::LoadBlock(is, &vocab)) return nullptr;
  }

  auto pipeline = std::unique_ptr<Pipeline>(new Pipeline());
  // Reconstruct the serialized resources; the pipeline owns them and the
  // model borrows them, making a loaded pipeline fully self-contained.
  if (config.use_gazetteer) {
    pipeline->owned_gazetteer_ = std::make_unique<data::Gazetteer>();
    if (!data::Gazetteer::Load(is, pipeline->owned_gazetteer_.get())) {
      return nullptr;
    }
    pipeline->resources_.gazetteer = pipeline->owned_gazetteer_.get();
  }
  if (config.use_char_lm) {
    pipeline->owned_char_lm_ = embeddings::CharLm::Load(is);
    if (pipeline->owned_char_lm_ == nullptr) return nullptr;
    pipeline->resources_.char_lm = pipeline->owned_char_lm_.get();
  }
  if (config.use_token_lm) {
    pipeline->owned_token_lm_ = embeddings::TokenLm::Load(is);
    if (pipeline->owned_token_lm_ == nullptr) return nullptr;
    pipeline->resources_.token_lm = pipeline->owned_token_lm_.get();
  }
  {
    // What the guard left unwritten is zeroed on every runtime thread, so
    // no code ever reads unwritten storage; LoadParameters then overwrites
    // every parameter or fails the load.
    SkipInitGuard skip_init;
    pipeline->model_ = std::make_unique<NerModel>(
        config, std::move(vocabs[0]), std::move(vocabs[1]), std::move(types),
        pipeline->resources_);
    ZeroFillOnPool(skip_init.unwritten());
  }
  if (!LoadParameters(is, pipeline->model_->Parameters())) return nullptr;
  return pipeline;
}

}  // namespace dlner::core
