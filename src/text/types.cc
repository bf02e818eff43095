#include "text/types.h"

#include <algorithm>
#include <set>
#include <sstream>

namespace dlner::text {

int Corpus::TokenCount() const {
  int n = 0;
  for (const Sentence& s : sentences) n += s.size();
  return n;
}

int Corpus::EntityCount() const {
  int n = 0;
  for (const Sentence& s : sentences) n += static_cast<int>(s.spans.size());
  return n;
}

std::vector<std::string> Corpus::EntityTypes() const {
  std::set<std::string> types;
  for (const Sentence& s : sentences) {
    for (const Span& sp : s.spans) types.insert(sp.type);
  }
  return {types.begin(), types.end()};
}

int Corpus::DocCount() const {
  if (!doc_starts.empty()) return static_cast<int>(doc_starts.size());
  return sentences.empty() ? 0 : 1;
}

std::pair<int, int> Corpus::DocRange(int doc) const {
  if (doc_starts.empty()) return {0, size()};
  const int first = doc_starts[doc];
  const int last = doc + 1 < static_cast<int>(doc_starts.size())
                       ? doc_starts[doc + 1]
                       : size();
  return {first, last};
}

bool SpansAreValid(const std::vector<Span>& spans, int num_tokens) {
  for (const Span& sp : spans) {
    if (sp.start < 0 || sp.end > num_tokens || sp.start >= sp.end) return false;
    if (sp.type.empty()) return false;
  }
  return true;
}

bool SpansAreFlat(std::vector<Span> spans) {
  std::sort(spans.begin(), spans.end());
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].start < spans[i - 1].end) return false;
  }
  return true;
}

std::vector<std::string> SplitWhitespace(const std::string& raw) {
  std::vector<std::string> tokens;
  std::istringstream ss(raw);
  std::string tok;
  while (ss >> tok) tokens.push_back(tok);
  return tokens;
}

}  // namespace dlner::text
