// Core text types: entity spans, annotated sentences, corpora.
//
// These mirror the survey's task formulation (Section 2.1): given a token
// sequence, NER outputs a list of (start, end, type) tuples. Spans use
// half-open [start, end) token indexes. Nested annotations are represented
// simply by overlapping spans in the same list.
#ifndef DLNER_TEXT_TYPES_H_
#define DLNER_TEXT_TYPES_H_

#include <string>
#include <utility>
#include <vector>

namespace dlner::text {

/// One entity mention: tokens [start, end) with an entity type label.
struct Span {
  int start = 0;
  int end = 0;  // exclusive
  std::string type;

  friend bool operator==(const Span& a, const Span& b) {
    return a.start == b.start && a.end == b.end && a.type == b.type;
  }
  friend bool operator<(const Span& a, const Span& b) {
    if (a.start != b.start) return a.start < b.start;
    if (a.end != b.end) return a.end < b.end;
    return a.type < b.type;
  }
};

/// A tokenized sentence with gold entity annotations.
struct Sentence {
  std::vector<std::string> tokens;
  std::vector<Span> spans;

  int size() const { return static_cast<int>(tokens.size()); }
};

/// A collection of annotated sentences, optionally grouped into documents.
struct Corpus {
  std::vector<Sentence> sentences;
  /// Sentence indexes that begin a new document (strictly increasing;
  /// 0 when present). Empty means the grouping is unknown — consumers that
  /// need documents treat the whole corpus as one. Populated by ReadConll
  /// from `-DOCSTART-` sentinels and by the document-level scenario
  /// generators (data/scenarios.h).
  std::vector<int> doc_starts;

  int size() const { return static_cast<int>(sentences.size()); }
  /// Total token count across sentences.
  int TokenCount() const;
  /// Total entity mention count across sentences.
  int EntityCount() const;
  /// The entity types the spans use, sorted and unique.
  std::vector<std::string> EntityTypes() const;
  /// Number of documents (1 for a non-empty corpus without boundaries).
  int DocCount() const;
  /// Sentence-index range [first, last) of document `doc`.
  std::pair<int, int> DocRange(int doc) const;
};

/// True when the span list is internally consistent for a sentence of
/// `num_tokens` tokens: indexes in range, start < end, types non-empty.
bool SpansAreValid(const std::vector<Span>& spans, int num_tokens);

/// True when no two spans in the list overlap (flat annotation).
bool SpansAreFlat(std::vector<Span> spans);

/// Splits raw text into whitespace-separated tokens. `dlner tag --text` and
/// a served "text" request both tokenize with it, so they see identical
/// token sequences.
std::vector<std::string> SplitWhitespace(const std::string& raw);

}  // namespace dlner::text

#endif  // DLNER_TEXT_TYPES_H_
