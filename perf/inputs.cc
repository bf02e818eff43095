#include "perf/inputs.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <unordered_set>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "data/scenarios.h"
#include "serve/protocol.h"
#include "tensor/rng.h"

namespace perf {

namespace {

using namespace dlner;

constexpr std::uint64_t kTrainSeed = 2016;
constexpr int kTrainSentences = 3000;
constexpr int kDevSentences = 400;
// CoNLL-2003's English training set has about 23.6k word types.
constexpr int kVocabTypes = 24000;
constexpr int kFillerSentenceTokens = 24;

// Lowercase pseudo-words with no entity label pad the vocabulary to a
// CoNLL-like size.
std::vector<text::Sentence> FillerSentences(
    const std::unordered_set<std::string>& taken, int n_words) {
  static const char* kOnsets[] = {"b",  "c",  "d",  "f",  "g",  "h",  "j",
                                  "k",  "l",  "m",  "n",  "p",  "r",  "s",
                                  "t",  "v",  "w",  "z",  "br", "st", "tr"};
  static const char* kVowels[] = {"a", "e", "i", "o", "u", "ai", "ou"};
  Rng rng(kTrainSeed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> words;
  while (static_cast<int>(words.size()) < n_words) {
    std::string w;
    const int syllables = rng.UniformInt(2, 4);
    for (int s = 0; s < syllables; ++s) {
      w += kOnsets[rng.UniformInt(0, 20)];
      w += kVowels[rng.UniformInt(0, 6)];
    }
    if (taken.count(w) == 0 && seen.insert(w).second) words.push_back(w);
  }
  std::vector<text::Sentence> out;
  for (std::size_t i = 0; i < words.size(); i += kFillerSentenceTokens) {
    text::Sentence s;
    const std::size_t end =
        std::min(words.size(), i + static_cast<std::size_t>(kFillerSentenceTokens));
    s.tokens.assign(words.begin() + static_cast<std::ptrdiff_t>(i),
                    words.begin() + static_cast<std::ptrdiff_t>(end));
    s.tokens.push_back(".");
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

core::NerConfig ModelConfig() {
  core::NerConfig c;
  c.use_word = true;
  c.word_dim = 64;
  // Frozen at their seeded values, like pre-trained vectors that are not
  // fine-tuned: dense Adam steps over a 24k-row table make training take
  // more than ten minutes.
  c.freeze_word = true;
  c.use_char_cnn = true;
  c.char_dim = 16;
  c.char_filters = 32;
  c.encoder = "bilstm";
  c.hidden_dim = 64;
  c.decoder = "crf";
  c.scheme = "bioes";
  c.seed = kTrainSeed;
  return c;
}

bool TrainModel(const std::string& path, std::string* summary) {
  data::DataSplit split = data::MakeOovSplit(
      data::Genre::kNews, kTrainSentences, kDevSentences, kTrainSeed);
  std::unordered_set<std::string> types;
  for (const text::Sentence& s : split.train.sentences) {
    types.insert(s.tokens.begin(), s.tokens.end());
  }
  const int filler_words =
      std::max(0, kVocabTypes - static_cast<int>(types.size()));
  for (text::Sentence& s : FillerSentences(types, filler_words)) {
    split.train.sentences.push_back(std::move(s));
  }
  // Interleave the filler with the labelled data (the trainer shuffles
  // each epoch anyway; this keeps the first epoch representative too).
  Rng order(kTrainSeed + 1);
  order.Shuffle(&split.train.sentences);

  core::TrainConfig tc;
  tc.epochs = 1;
  tc.lr = 0.01;
  tc.optimizer = "adam";
  tc.shuffle_seed = kTrainSeed;
  const std::vector<std::string>& entity_types =
      data::EntityTypesFor(data::Genre::kNews);
  std::unique_ptr<core::Pipeline> pipeline = core::Pipeline::Train(
      ModelConfig(), tc, split.train, &split.dev, entity_types);
  if (pipeline == nullptr || !pipeline->Save(path)) return false;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "model %s, word vocabulary %d types, dev F1 %.4f",
                ModelConfig().Describe().c_str(),
                pipeline->model()->word_vocab().size(),
                pipeline->train_result().best_dev_f1);
  *summary = buf;
  return true;
}

std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + stream + 1);
  return rng.Next();
}

text::Corpus DistinctSentences(std::uint64_t seed, int n) {
  text::Corpus out;
  std::set<std::vector<std::string>> seen;
  for (std::uint64_t round = 0; out.size() < n; ++round) {
    const int want = n - out.size();
    const data::DataSplit split =
        data::MakeOovSplit(data::Genre::kNews, 0, want + want / 4 + 8,
                           StreamSeed(seed, round));
    for (const text::Sentence& s : split.test.sentences) {
      if (out.size() >= n) break;
      if (s.tokens.empty() || !seen.insert(s.tokens).second) continue;
      out.sentences.push_back(s);
    }
  }
  return out;
}

text::Corpus ConsistencyDocs(std::uint64_t seed, int n_docs) {
  data::ScenarioOptions opts;
  opts.seed = seed;
  opts.sentences_per_doc = 5;
  opts.num_sentences = n_docs * opts.sentences_per_doc;
  return data::GenerateScenario(data::Scenario::kEntityConsistency, opts);
}

std::string TagLine(std::int64_t id, const std::vector<std::string>& tokens,
                    bool doc) {
  std::string line = "{\"id\":" + std::to_string(id);
  if (doc) line += ",\"doc\":true";
  line += ",\"tokens\":[";
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) line.push_back(',');
    line += serve::JsonQuote(tokens[i]);
  }
  line += "]}";
  return line;
}

std::string AdminLine(std::int64_t id, const std::string& cmd) {
  return "{\"id\":" + std::to_string(id) + ",\"cmd\":" +
         serve::JsonQuote(cmd) + "}";
}

std::string ReloadLine(std::int64_t id, const std::string& path) {
  return "{\"id\":" + std::to_string(id) +
         ",\"cmd\":\"reload\",\"model\":\"default\",\"path\":" +
         serve::JsonQuote(path) + "}";
}

std::int64_t ResponseId(const std::string& line) {
  static const std::string kPrefix = "{\"id\":";
  if (line.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  char* end = nullptr;
  const long long id = std::strtoll(line.c_str() + kPrefix.size(), &end, 10);
  return end == line.c_str() + kPrefix.size() ? -1 : id;
}

}  // namespace perf
