#include "stream/entity_memory.h"

#include <algorithm>

namespace dlner::stream {
namespace {

// Apply relabels a predicted span only when the majority type has at least
// kMinVotesToRelabel votes AND at least kRelabelRatio times the votes of the
// predicted type: one early mistake should not rewrite a confident later
// decode.
constexpr int kMinVotesToRelabel = 2;
constexpr int kRelabelRatio = 2;
// Longest remembered surface, in tokens, that Apply scans for.
constexpr int kMaxSurfaceTokens = 8;
// Cap on distinct remembered surfaces; once full, new surfaces are dropped
// (existing ones keep accumulating votes). Bounds memory on 10k+-token
// documents.
constexpr std::size_t kMaxSurfaces = 4096;

}  // namespace

std::string EntityMemory::Key(const std::vector<std::string>& tokens,
                              int start, int end) {
  // '\x1f' (ASCII unit separator) cannot be produced by the whitespace
  // tokenizers, so joined keys are unambiguous even for hostile tokens.
  std::string key;
  for (int t = start; t < end; ++t) {
    if (t > start) key.push_back('\x1f');
    key += tokens[t];
  }
  return key;
}

std::pair<std::string, int> EntityMemory::Majority(const VoteEntry& entry) {
  std::string best_type;
  int best_votes = 0;
  for (const auto& [type, votes] : entry.votes) {
    if (votes > best_votes) {  // first (lexicographically smallest) wins ties
      best_type = type;
      best_votes = votes;
    }
  }
  return {best_type, best_votes};
}

void EntityMemory::Observe(const std::vector<std::string>& tokens,
                           const std::vector<text::Span>& spans) {
  for (const text::Span& sp : spans) {
    if (sp.start < 0 || sp.end > static_cast<int>(tokens.size()) ||
        sp.start >= sp.end) {
      continue;
    }
    const int width = sp.end - sp.start;
    if (width > kMaxSurfaceTokens) continue;
    std::string key = Key(tokens, sp.start, sp.end);
    auto it = table_.find(key);
    if (it == table_.end()) {
      if (table_.size() >= kMaxSurfaces) continue;
      it = table_.emplace(std::move(key), VoteEntry{}).first;
      it->second.surface_tokens = width;
    }
    ++it->second.votes[sp.type];
    longest_surface_ = std::max(longest_surface_, width);
  }
}

void EntityMemory::Apply(const std::vector<std::string>& tokens,
                         std::vector<text::Span>* spans) const {
  if (table_.empty()) return;
  const int n = static_cast<int>(tokens.size());

  // Pass 1: relabel predicted spans whose exact surface has a sufficiently
  // dominant different type in memory.
  for (text::Span& sp : *spans) {
    if (sp.start < 0 || sp.end > n || sp.start >= sp.end) continue;
    if (sp.end - sp.start > kMaxSurfaceTokens) continue;
    auto it = table_.find(Key(tokens, sp.start, sp.end));
    if (it == table_.end()) continue;
    const auto [major_type, major_votes] = Majority(it->second);
    if (major_type.empty() || major_type == sp.type) continue;
    auto own = it->second.votes.find(sp.type);
    const int own_votes = own == it->second.votes.end() ? 0 : own->second;
    if (major_votes >= kMinVotesToRelabel &&
        major_votes >= kRelabelRatio * std::max(own_votes, 1)) {
      sp.type = major_type;
    }
  }

  // Pass 2: inject remembered surfaces the decoder missed. Longest match
  // first at each position; injected spans never overlap existing or
  // previously injected ones.
  std::vector<bool> covered(static_cast<std::size_t>(n), false);
  for (const text::Span& sp : *spans) {
    for (int t = std::max(sp.start, 0); t < std::min(sp.end, n); ++t) {
      covered[static_cast<std::size_t>(t)] = true;
    }
  }
  const int max_width = std::min(longest_surface_, kMaxSurfaceTokens);
  std::vector<text::Span> injected;
  for (int start = 0; start < n; ++start) {
    if (covered[static_cast<std::size_t>(start)]) continue;
    for (int width = std::min(max_width, n - start); width >= 1; --width) {
      const int end = start + width;
      bool blocked = false;
      for (int t = start; t < end; ++t) {
        if (covered[static_cast<std::size_t>(t)]) {
          blocked = true;
          break;
        }
      }
      if (blocked) continue;
      auto it = table_.find(Key(tokens, start, end));
      if (it == table_.end() || it->second.surface_tokens != width) continue;
      // Every remembered surface has at least one vote, and one suffices.
      injected.push_back(text::Span{start, end, Majority(it->second).first});
      for (int t = start; t < end; ++t) {
        covered[static_cast<std::size_t>(t)] = true;
      }
      start = end - 1;  // outer loop ++ lands just past the injected span
      break;
    }
  }
  if (!injected.empty()) {
    spans->insert(spans->end(), injected.begin(), injected.end());
    std::sort(spans->begin(), spans->end());
  }
}

void EntityMemory::Clear() {
  table_.clear();
  longest_surface_ = 0;
}

}  // namespace dlner::stream
