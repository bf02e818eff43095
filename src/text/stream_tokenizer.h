// Incremental tokenizer + sentence segmenter for streaming input.
//
// StreamTokenizer consumes a byte stream in arbitrary chunks and emits
// whitespace-delimited tokens grouped into sentences. Its output is a pure
// function of the concatenated byte stream: feeding the same bytes in chunks
// of 1 byte, 4 KiB, or all at once yields identical sentences. That property
// is what the streaming tagger's chunk-boundary invariance tests rely on.
//
// Rules (deliberately simple and deterministic):
//   - ASCII whitespace (' ', '\t', '\r', '\n', '\v', '\f') ends the current
//     token. All other bytes — including NUL and arbitrary non-UTF-8 bytes —
//     are token bytes.
//   - '\n' ends the current sentence (if any tokens are pending).
//   - A completed token that is exactly ".", "!", or "?" ends the sentence.
//   - A sentence reaching `max_sentence_tokens` tokens is force-broken so
//     downstream batching sees bounded sentence lengths.
//
// UTF-8 safety falls out of the byte rules: every delimiter is a single
// ASCII byte, and ASCII bytes never occur inside a multi-byte UTF-8
// sequence, so a multi-byte character split across Feed() calls simply stays
// buffered in the partial token until a delimiter (or Flush) arrives. A
// token is never split at a chunk boundary.
#ifndef DLNER_TEXT_STREAM_TOKENIZER_H_
#define DLNER_TEXT_STREAM_TOKENIZER_H_

#include <cstddef>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

namespace dlner::text {

struct StreamTokenizerOptions {
  /// Force a sentence break once this many tokens accumulate. Matches the
  /// serving layer's default per-request token cap.
  int max_sentence_tokens = 512;
};

class StreamTokenizer {
 public:
  StreamTokenizer() = default;
  explicit StreamTokenizer(const StreamTokenizerOptions& opts);

  /// Consumes the next chunk of the byte stream. Completed sentences become
  /// available via NextSentence(). `chunk` may split tokens, UTF-8
  /// sequences, or sentences anywhere; bytes are buffered as needed.
  void Feed(std::string_view chunk);

  /// Ends the stream: the pending partial token (if any) is completed and
  /// the pending sentence (if any) is emitted. The tokenizer is then ready
  /// for a fresh stream.
  void Flush();

  /// True when at least one completed sentence is queued.
  bool HasSentence() const { return !ready_.empty(); }

  /// Pops the oldest completed sentence. Precondition: HasSentence().
  std::vector<std::string> NextSentence();

 private:
  void EndToken();
  void EndSentence();

  StreamTokenizerOptions opts_;
  std::string partial_;                       // bytes of the unfinished token
  std::vector<std::string> current_;          // tokens of unfinished sentence
  std::deque<std::vector<std::string>> ready_;  // completed sentences
};

}  // namespace dlner::text

#endif  // DLNER_TEXT_STREAM_TOKENIZER_H_
