// Token and character vocabularies with UNK handling and frequency cutoffs.
#ifndef DLNER_TEXT_VOCAB_H_
#define DLNER_TEXT_VOCAB_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/types.h"

namespace dlner::text {

/// Maps strings to dense integer ids. Id 0 is always the unknown token.
class Vocabulary {
 public:
  static constexpr int kUnkId = 0;
  static constexpr const char* kUnkToken = "<unk>";

  Vocabulary();

  /// Adds a token (or bumps its count) and returns its id. Must not be
  /// called after Freeze().
  int Add(const std::string& token);

  /// Id of a token; kUnkId if absent.
  int Id(const std::string& token) const;

  /// True if the token is in the vocabulary.
  bool Contains(const std::string& token) const;

  /// Token string for an id.
  const std::string& TokenOf(int id) const;

  /// Number of entries including UNK.
  int size() const { return static_cast<int>(tokens_.size()); }

  /// Drops tokens seen fewer than `min_count` times (their ids map to UNK)
  /// and forbids further Add() calls. Ids are re-assigned compactly.
  void Freeze(int min_count = 1);
  bool frozen() const { return frozen_; }

  /// Builds a frozen word vocabulary from a corpus.
  static Vocabulary FromCorpus(const Corpus& corpus, int min_count = 1);

  /// Builds a frozen character vocabulary from a corpus.
  static Vocabulary CharsFromCorpus(const Corpus& corpus);

  /// Ids for every token of a sentence (UNK for out-of-vocabulary).
  std::vector<int> Encode(const std::vector<std::string>& tokens) const;

  /// Ids for every character of a word.
  std::vector<int> EncodeChars(const std::string& word) const;

  /// Writes the vocabulary (frozen or not) to a stream in a line-oriented
  /// format: the entry count, then one "count<TAB>token" line per id after
  /// UNK. Load parses such a block in place and restores an equivalent
  /// frozen vocabulary with identical ids; it returns false, leaving
  /// `vocab` untouched, on malformed input.
  void Save(std::ostream& os) const;
  static bool Load(std::string_view block, Vocabulary* vocab);

  /// The checkpoint framing of Save: the block behind a u32 length.
  /// LoadBlock also rejects blocks over 64 MB, which only corruption
  /// produces.
  void SaveBlock(std::ostream& os) const;
  static bool LoadBlock(std::istream& is, Vocabulary* vocab);

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> tokens_;
  std::vector<int> counts_;
  bool frozen_ = false;
};

}  // namespace dlner::text

#endif  // DLNER_TEXT_VOCAB_H_
