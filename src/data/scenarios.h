// Hostile-input scenario corpora.
//
// The survey's robustness discussion (and the deployment-focused related
// surveys) single out a handful of corpus properties that break
// sentence-trained NER systems: code-switched bilingual text, OCR/ASR noise
// channels, very long documents, discontinuous mentions, and documents whose
// later mentions are only resolvable from earlier context. Each scenario
// here is a seeded, fully deterministic generator for one of those
// properties, built on the same template/bank machinery as synthetic.h so
// models trained on the clean genres face a controlled distribution shift.
//
// Determinism contract: every generator is a pure function of its options —
// same ScenarioOptions (including seed) → byte-identical corpus. The noise
// channels report exact corruption counts so tests can verify calibration.
#ifndef DLNER_DATA_SCENARIOS_H_
#define DLNER_DATA_SCENARIOS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "text/types.h"

namespace dlner::data {

enum class Scenario {
  kCodeSwitched,       // bilingual: non-entity tokens swap to accented L2
  kOcrNoise,           // char confusions/drops/doubles at a calibrated rate
  kAsrNoise,           // lowercased, punctuation lost, phonetic confusions
  kLongDoc,            // one 10k+-token document with recurring entities
  kDiscontinuous,      // coordinated mentions sharing a head token
  kEntityConsistency,  // later mentions only resolvable from earlier context
};

std::string ScenarioToString(Scenario scenario);
/// All scenarios, in enum order (bench/test iteration).
const std::vector<Scenario>& AllScenarios();

struct ScenarioOptions {
  uint64_t seed = 1;
  /// Sentence budget for sentence-shaped scenarios (ignored by kLongDoc,
  /// which generates until `min_doc_tokens`).
  int num_sentences = 120;
  /// Per-eligible-character corruption probability for the OCR/ASR
  /// channels.
  double corruption_rate = 0.08;
  /// Per-non-entity-token replacement probability for kCodeSwitched.
  double code_switch_rate = 0.4;
  /// kLongDoc keeps appending sentences until this many tokens.
  int min_doc_tokens = 10000;
  /// Document length for kEntityConsistency.
  int sentences_per_doc = 5;
  /// Fraction of kEntityConsistency documents whose person surname comes
  /// from the held-out bank (unseen in any training split).
  double oov_entity_fraction = 0.6;
};

/// Entity-type inventory of a scenario's corpus.
const std::vector<std::string>& ScenarioEntityTypes(Scenario scenario);

/// Generates the scenario corpus (the hostile "test side").
/// kLongDoc and kEntityConsistency populate Corpus::doc_starts.
text::Corpus GenerateScenario(Scenario scenario, const ScenarioOptions& opts);

/// Matched clean/hostile pair: `train` is what a system would realistically
/// have trained on (clean, monolingual, cue-rich), `test` is the scenario
/// corpus. Both derive deterministically from `opts.seed`.
struct ScenarioSplit {
  text::Corpus train;
  text::Corpus test;
};
ScenarioSplit MakeScenarioSplit(Scenario scenario, const ScenarioOptions& opts);

/// Exact corruption counts from a noise channel, for calibration checks.
struct NoiseChannelStats {
  int64_t chars_eligible = 0;   // characters the channel could have hit
  int64_t chars_corrupted = 0;  // characters it actually hit
};

/// Applies the OCR channel in place: each ASCII alphanumeric character is
/// independently corrupted with probability `rate` (confusable substitution
/// such as O→0 / l→1, deletion, or doubling). Multi-byte UTF-8 sequences
/// are never touched, so text stays valid UTF-8; tokens never become empty;
/// spans are unchanged (OCR noise does not move token boundaries).
void ApplyOcrChannel(text::Corpus* corpus, double rate, uint64_t seed,
                     NoiseChannelStats* stats);

/// Applies the ASR channel in place: ASCII letters are lowercased,
/// punctuation-only tokens outside entity spans are deleted (span indexes
/// remapped), and each letter is independently replaced by a phonetic
/// confusion (c→k, s→z, f→v, ...) with probability `rate`.
void ApplyAsrChannel(text::Corpus* corpus, double rate, uint64_t seed,
                     NoiseChannelStats* stats);

/// Renders a corpus document back to the raw byte stream the streaming
/// tokenizer (text/stream_tokenizer.h) splits into exactly the same
/// sentences: tokens joined with ' ', one sentence per '\n'-terminated
/// line. Sentence-shaped scenarios keep tokens whitespace-free and use the
/// terminal "." convention, so round-tripping through StreamTagger aligns
/// 1:1 with the corpus sentences.
std::string RenderDocument(const text::Corpus& corpus, int doc);

}  // namespace dlner::data

#endif  // DLNER_DATA_SCENARIOS_H_
