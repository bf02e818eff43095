#include "text/stream_tokenizer.h"

namespace dlner::text {
namespace {

inline bool IsDelim(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '\v' ||
         c == '\f';
}

inline bool IsSentenceEnd(const std::string& token) {
  return token == "." || token == "!" || token == "?";
}

}  // namespace

void StreamTokenizer::Feed(std::string_view chunk) {
  for (char c : chunk) {
    if (IsDelim(c)) {
      EndToken();
      if (c == '\n' && !current_.empty()) EndSentence();
    } else {
      partial_.push_back(c);
    }
  }
}

void StreamTokenizer::Flush() {
  EndToken();
  if (!current_.empty()) EndSentence();
}

std::vector<std::string> StreamTokenizer::NextSentence() {
  std::vector<std::string> s = std::move(ready_.front());
  ready_.pop_front();
  return s;
}

void StreamTokenizer::EndToken() {
  if (partial_.empty()) return;
  current_.push_back(std::move(partial_));
  partial_.clear();
  if (IsSentenceEnd(current_.back()) ||
      static_cast<int>(current_.size()) >= kMaxSentenceTokens) {
    EndSentence();
  }
}

void StreamTokenizer::EndSentence() {
  ready_.push_back(std::move(current_));
  current_.clear();
}

}  // namespace dlner::text
