// Entity-consistency cache: majority-vote type memory per surface form.
//
// The survey's document-level-context thread observes that sentence-at-a-time
// tagging discards cross-sentence evidence: once "Li" has been tagged PER
// early in a document, later mentions of the identical surface form should
// benefit. EntityMemory implements the simplest deterministic version of
// that idea as a post-decoder pass:
//
//   Observe(tokens, spans)  records every emitted span's surface form and
//                           type as one vote.
//   Apply(tokens, &spans)   (a) relabels a predicted span when the memory
//                           holds a sufficiently dominant different type for
//                           its exact surface, and (b) injects spans for
//                           exact surface matches of remembered entities
//                           that the decoder missed, longest-match first,
//                           never overlapping an existing span.
//
// Both passes are pure functions of the memory state and the sentence, and
// the StreamTagger applies them strictly in sentence order (Apply then
// Observe, one sentence at a time), so the output stream is independent of
// how sentences were grouped into TagCorpus calls — the chunk-boundary
// invariance property holds with doc-context on, too.
//
// All tie-breaks are deterministic (lexicographically smallest type wins a
// vote tie), and the table is capped (4096 surfaces) so a pathological
// document cannot grow memory without bound. The thresholds are fixed
// constants in entity_memory.cc.
#ifndef DLNER_STREAM_ENTITY_MEMORY_H_
#define DLNER_STREAM_ENTITY_MEMORY_H_

#include <cstddef>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "text/types.h"

namespace dlner::stream {

class EntityMemory {
 public:
  /// Records one vote per span for (surface form -> type).
  void Observe(const std::vector<std::string>& tokens,
               const std::vector<text::Span>& spans);

  /// Rewrites `spans` in place using the memory: relabel dominated types,
  /// then inject missed exact surface matches. Output spans are sorted.
  void Apply(const std::vector<std::string>& tokens,
             std::vector<text::Span>* spans) const;

  /// Forgets everything (document boundary).
  void Clear();

  /// Distinct surfaces currently remembered.
  std::size_t size() const { return table_.size(); }

 private:
  struct VoteEntry {
    // Ordered map: deterministic iteration makes the lexicographic
    // tie-break free.
    std::map<std::string, int> votes;
    int surface_tokens = 0;
  };

  static std::string Key(const std::vector<std::string>& tokens, int start,
                         int end);

  // Majority (type, votes) of an entry.
  static std::pair<std::string, int> Majority(const VoteEntry& entry);

  std::unordered_map<std::string, VoteEntry> table_;
  int longest_surface_ = 0;  // tokens of the longest remembered surface
};

}  // namespace dlner::stream

#endif  // DLNER_STREAM_ENTITY_MEMORY_H_
