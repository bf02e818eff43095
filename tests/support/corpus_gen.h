// Seeded corpora and model-configuration enumeration for the correctness
// harness. Everything here is deterministic: the same seed always yields the
// same corpus and the same config, so differential/invariance failures
// reproduce bit-for-bit.
#ifndef DLNER_TESTS_SUPPORT_CORPUS_GEN_H_
#define DLNER_TESTS_SUPPORT_CORPUS_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "data/dataset.h"
#include "text/types.h"

namespace dlner::testsup {

/// Small seeded corpus from the standard registry ("conll-like", ...).
text::Corpus SmallCorpus(const std::string& dataset, int num_sentences,
                         uint64_t seed);

/// Seeded train/dev/test triple with OOV test entities (shared generator
/// with the benchmark harnesses; see data::MakeOovSplit).
data::DataSplit SmallSplit(data::Genre genre, int train_size, int test_size,
                           uint64_t seed);

/// Copy of `corpus` with every sentence truncated to `max_tokens` tokens
/// (spans crossing the cut are dropped), for brute-force-sized inputs.
text::Corpus TruncateSentences(const text::Corpus& corpus, int max_tokens);

/// Every context-encoder name accepted by NerConfig::Valid().
const std::vector<std::string>& AllEncoders();

/// Every tag-decoder name accepted by NerConfig::Valid().
const std::vector<std::string>& AllDecoders();

/// Smallest-sensible config for an encoder x decoder cell: tiny dims so all
/// 42 combinations build and run in a test-suite time budget, valid for
/// every pair (e.g. hidden_dim divisible by transformer_heads).
core::NerConfig TinyConfig(const std::string& encoder,
                           const std::string& decoder, uint64_t seed);

}  // namespace dlner::testsup

#endif  // DLNER_TESTS_SUPPORT_CORPUS_GEN_H_
