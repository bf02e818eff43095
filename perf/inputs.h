// The benchmark's model and inputs.
//
// One checkpoint serves every workload: the survey's standard cell,
// char-CNN + BiLSTM + CRF (Lample et al. 2016), trained here with a fixed
// seed. Its word vocabulary is sized like a CoNLL-2003 model (tens of
// thousands of types), so loading it reads a realistic amount of parameters.
// Request pools come from the held-out side of data::MakeOovSplit, so F1
// stays informative; document requests stream entity_consistency documents
// (data/scenarios.h), whose types are a subset of the model's.
#ifndef PERF_INPUTS_H_
#define PERF_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "text/types.h"

namespace perf {

/// The architecture and shape of the benchmark model.
dlner::core::NerConfig ModelConfig();

/// Trains the benchmark model with its fixed seeds and saves it to `path`.
/// Writes a one-line summary (vocabulary size, dev F1) to `summary`.
bool TrainModel(const std::string& path, std::string* summary);

/// A seed for one independent input stream of a workload seed.
std::uint64_t StreamSeed(std::uint64_t seed, std::uint64_t stream);

/// `n` held-out news sentences with gold spans, pairwise distinct in their
/// tokens (so a request pool drawn from them never repeats a cache key).
dlner::text::Corpus DistinctSentences(std::uint64_t seed, int n);

/// Entity-consistency documents of five sentences each, as one corpus whose
/// doc_starts mark the documents.
dlner::text::Corpus ConsistencyDocs(std::uint64_t seed, int n_docs);

/// NDJSON request lines (no trailing newline).
std::string TagLine(std::int64_t id, const std::vector<std::string>& tokens,
                    bool doc);
std::string AdminLine(std::int64_t id, const std::string& cmd);
std::string ReloadLine(std::int64_t id, const std::string& path);

/// The "id" of a response line, or -1.
std::int64_t ResponseId(const std::string& line);

}  // namespace perf

#endif  // PERF_INPUTS_H_
