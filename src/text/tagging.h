// Tagging schemes (IO, BIO, BIOES) and span <-> tag-sequence conversion.
//
// The survey (Fig. 2 and Section 3.1) frames NER as sequence labeling with
// positional tag prefixes; the choice of scheme is one of the design knobs
// compared by the Table 3 systems. TagIdsToSpans is deliberately robust to
// invalid model outputs (stray I-, unterminated B-), following conlleval
// conventions, so that softmax decoders without transition constraints can
// still be evaluated.
#ifndef DLNER_TEXT_TAGGING_H_
#define DLNER_TEXT_TAGGING_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "text/types.h"

namespace dlner::text {

/// Positional tagging scheme.
enum class TagScheme {
  kIo,     // I-X / O
  kBio,    // B-X I-X / O
  kBioes,  // B-X I-X E-X S-X / O
};

/// Parses a scheme name ("io", "bio", "bioes").
TagScheme TagSchemeFromString(const std::string& name);

/// A closed tag inventory for a fixed entity-type set under one scheme.
/// Tag id 0 is always "O".
class TagSet {
 public:
  TagSet(std::vector<std::string> entity_types, TagScheme scheme);

  int size() const { return static_cast<int>(tags_.size()); }
  int outside_id() const { return 0; }
  TagScheme scheme() const { return scheme_; }
  const std::vector<std::string>& entity_types() const {
    return entity_types_;
  }

  const std::string& TagOf(int id) const;
  /// Id of a tag string; aborts on unknown tags.
  int IdOf(const std::string& tag) const;

  /// Encodes flat gold spans as a tag-id sequence of length `num_tokens`.
  /// Spans must be valid, flat, and typed within entity_types().
  std::vector<int> SpansToTagIds(const std::vector<Span>& spans,
                                 int num_tokens) const;

  /// Decodes a tag-id sequence into spans, repairing invalid sequences
  /// leniently (a stray I-X starts a new span; an unterminated entity is
  /// closed at the sequence end).
  std::vector<Span> TagIdsToSpans(const std::vector<int>& tag_ids) const;

  /// Transition validity under the scheme (for constrained Viterbi).
  bool IsValidTransition(int from, int to) const;
  /// Whether a sequence may start with this tag.
  bool IsValidStart(int id) const;
  /// Whether a sequence may end with this tag.
  bool IsValidEnd(int id) const;

 private:
  // Positional role of a tag.
  enum class Role { kOutside, kBegin, kInside, kEnd, kSingle };
  Role RoleOf(int id) const { return roles_[id]; }
  // Entity-type index of a tag (-1 for O).
  int TypeOf(int id) const { return type_index_[id]; }

  std::vector<std::string> entity_types_;
  TagScheme scheme_;
  std::vector<std::string> tags_;
  std::vector<Role> roles_;
  std::vector<int> type_index_;
  std::unordered_map<std::string, int> tag_ids_;
};

/// Decodes string tags with B-/I-/E-/S-/O prefixes into spans without
/// needing a TagSet (used by the CoNLL reader).
std::vector<Span> SpansFromStringTags(const std::vector<std::string>& tags);

}  // namespace dlner::text

#endif  // DLNER_TEXT_TAGGING_H_
