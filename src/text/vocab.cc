#include "text/vocab.h"

#include <algorithm>
#include <charconv>
#include <ostream>
#include <sstream>

#include "tensor/check.h"
#include "tensor/serialize.h"

namespace dlner::text {
namespace {

constexpr uint32_t kMaxVocabBlock = 1u << 26;  // 64 MB of vocab text

}  // namespace

Vocabulary::Vocabulary() {
  tokens_.push_back(kUnkToken);
  counts_.push_back(0);
  index_[kUnkToken] = kUnkId;
}

int Vocabulary::Add(const std::string& token) {
  DLNER_CHECK_MSG(!frozen_, "Add() after Freeze()");
  auto it = index_.find(token);
  if (it != index_.end()) {
    ++counts_[it->second];
    return it->second;
  }
  const int id = static_cast<int>(tokens_.size());
  index_[token] = id;
  tokens_.push_back(token);
  counts_.push_back(1);
  return id;
}

int Vocabulary::Id(const std::string& token) const {
  auto it = index_.find(token);
  return it == index_.end() ? kUnkId : it->second;
}

bool Vocabulary::Contains(const std::string& token) const {
  return index_.count(token) > 0;
}

const std::string& Vocabulary::TokenOf(int id) const {
  DLNER_CHECK_GE(id, 0);
  DLNER_CHECK_LT(id, size());
  return tokens_[id];
}

int Vocabulary::CountOf(int id) const {
  DLNER_CHECK_GE(id, 0);
  DLNER_CHECK_LT(id, size());
  return counts_[id];
}

void Vocabulary::Freeze(int min_count) {
  DLNER_CHECK(!frozen_);
  if (min_count > 1) {
    std::vector<std::string> kept_tokens = {kUnkToken};
    std::vector<int> kept_counts = {0};
    std::unordered_map<std::string, int> kept_index = {{kUnkToken, kUnkId}};
    for (int id = 1; id < size(); ++id) {
      if (counts_[id] >= min_count) {
        kept_index[tokens_[id]] = static_cast<int>(kept_tokens.size());
        kept_tokens.push_back(tokens_[id]);
        kept_counts.push_back(counts_[id]);
      }
    }
    tokens_ = std::move(kept_tokens);
    counts_ = std::move(kept_counts);
    index_ = std::move(kept_index);
  }
  frozen_ = true;
}

Vocabulary Vocabulary::FromCorpus(const Corpus& corpus, int min_count) {
  Vocabulary v;
  for (const Sentence& s : corpus.sentences) {
    for (const std::string& tok : s.tokens) v.Add(tok);
  }
  v.Freeze(min_count);
  return v;
}

Vocabulary Vocabulary::CharsFromCorpus(const Corpus& corpus) {
  Vocabulary v;
  for (const Sentence& s : corpus.sentences) {
    for (const std::string& tok : s.tokens) {
      for (char c : tok) v.Add(std::string(1, c));
    }
  }
  v.Freeze();
  return v;
}

std::vector<int> Vocabulary::Encode(
    const std::vector<std::string>& tokens) const {
  std::vector<int> ids;
  ids.reserve(tokens.size());
  for (const std::string& t : tokens) ids.push_back(Id(t));
  return ids;
}

void Vocabulary::Save(std::ostream& os) const {
  os << size() << '\n';
  // Skip UNK (id 0): it is implicit in every vocabulary.
  for (int id = 1; id < size(); ++id) {
    os << counts_[id] << '\t' << tokens_[id] << '\n';
  }
}

bool Vocabulary::Load(std::string_view block, Vocabulary* vocab) {
  const char* const end = block.data() + block.size();
  int n = 0;
  auto [p, ec] = std::from_chars(block.data(), end, n);
  if (ec != std::errc() || n < 1 || p == end || *p != '\n') return false;
  ++p;
  Vocabulary loaded;
  // Every entry takes at least four bytes ("0\tx\n"), so a corrupt count
  // cannot reserve more than the block could hold.
  const size_t entries =
      std::min<size_t>(n, static_cast<size_t>(end - p) / 4 + 1);
  loaded.index_.reserve(entries);
  loaded.tokens_.reserve(entries);
  loaded.counts_.reserve(entries);
  for (int id = 1; id < n; ++id) {
    if (p == end) return false;
    const char* eol = std::find(p, end, '\n');
    const char* tab = std::find(p, eol, '\t');
    int count = 0;
    auto [count_end, count_ec] = std::from_chars(p, tab, count);
    if (count_ec != std::errc() || count_end != tab || tab == eol) {
      return false;
    }
    const std::string_view token(tab + 1, eol - tab - 1);
    if (token.empty()) return false;
    // A duplicate (or "<unk>") would shift every later id.
    if (!loaded.index_.emplace(token, id).second) return false;
    loaded.tokens_.emplace_back(token);
    loaded.counts_.push_back(count);
    p = eol == end ? end : eol + 1;
  }
  loaded.frozen_ = true;
  *vocab = std::move(loaded);
  return true;
}

std::vector<int> Vocabulary::EncodeChars(const std::string& word) const {
  std::vector<int> ids;
  ids.reserve(word.size());
  for (char c : word) ids.push_back(Id(std::string(1, c)));
  return ids;
}

void Vocabulary::SaveBlock(std::ostream& os) const {
  std::ostringstream block;
  Save(block);
  WriteLenString(os, block.str());
}

bool Vocabulary::LoadBlock(std::istream& is, Vocabulary* vocab) {
  std::string block;
  if (!ReadLenString(is, &block, kMaxVocabBlock)) return false;
  return Load(block, vocab);
}

}  // namespace dlner::text
