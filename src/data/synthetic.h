// Synthetic annotated-corpus generators.
//
// Stand-ins for the licensed corpora of the survey's Table 1 (CoNLL03,
// OntoNotes 5.0, W-NUT, fine-grained sets, GENIA/ACE-style nested sets,
// BC5CDR-style biomedical sets). Each genre reproduces the corpus
// *properties* the survey's comparisons depend on: entity-type inventory
// size, genre noise, entity density, multi-token/nested mentions, and
// test-time out-of-vocabulary entities. See DESIGN.md Section 2 for the
// substitution rationale.
#ifndef DLNER_DATA_SYNTHETIC_H_
#define DLNER_DATA_SYNTHETIC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/types.h"

namespace dlner::data {

/// Corpus family, mirroring a row-group of the survey's Table 1.
enum class Genre {
  kNews,         // CoNLL03-like: 4 coarse types, formal newswire
  kOnto,         // OntoNotes-like: 18 types incl. numeric/temporal
  kSocial,       // W-NUT-like: 6 types, noisy user-generated text
  kFineGrained,  // FIGER/BBN-like: 30 hierarchical "coarse.fine" types
  kNested,       // GENIA/ACE-like: overlapping mentions
  kBio,          // BC5CDR-like: Disease/Chemical/Gene
};

/// Generation knobs.
struct GenOptions {
  uint64_t seed = 1;
  int num_sentences = 200;
  /// Probability that an entity surface is drawn from the held-out name
  /// bank (unseen at training time if the training corpus used 0).
  double oov_entity_fraction = 0.0;
  /// Per-token probability of a character-level typo.
  double typo_prob = 0.0;
  /// Per-entity-token probability of lowercasing (kills the capitalization
  /// cue that word-shape features rely on).
  double lowercase_prob = 0.0;
  /// Per-entity probability of hashtag-izing its first token.
  double hashtag_prob = 0.0;
  /// Per-sentence probability of injecting slang interjections.
  double slang_prob = 0.0;
};

/// Default options for a genre (social presets enable the noise knobs).
GenOptions DefaultOptionsFor(Genre genre);

/// Entity-type inventory of a genre (the "#Tags" column of Table 1).
const std::vector<std::string>& EntityTypesFor(Genre genre);

/// Generates an annotated corpus.
text::Corpus GenerateCorpus(Genre genre, const GenOptions& opts);

/// Generates unlabeled sentences from the same distribution (the "large
/// unlabeled corpus" role that pre-trained embeddings and language models
/// are built from in the survey, Sections 3.2.1 and 3.3.4).
std::vector<std::vector<std::string>> GenerateUnlabeledText(Genre genre,
                                                            int num_sentences,
                                                            uint64_t seed);

}  // namespace dlner::data

#endif  // DLNER_DATA_SYNTHETIC_H_
