// Per-layer probes of the traced run. Each probe times calls into one
// module's public functions with the workload's own inputs and adds its
// metrics to the result (names as in BENCHMARK.json "per_layer").
#ifndef PERF_LAYERS_H_
#define PERF_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "perf/result.h"
#include "perf/spans.h"
#include "text/types.h"

namespace perf {

/// What a workload sent, in send order.
struct LayerInputs {
  /// Every request line, as sent.
  std::vector<std::string> lines;
  /// The sentence of each stateless tagging request (repeats allowed) and
  /// the registry generation it was sent under (reloads bump it).
  dlner::text::Corpus stateless;
  std::vector<std::uint64_t> generation;
  /// The document sentences each doc connection streamed.
  std::vector<dlner::text::Corpus> doc_streams;
};

/// Adds serve.protocol.*, serve.cache.get_us/put_us, serve.registry.load_ms,
/// core.*, plan.*, tensor.*, runtime.* and stream.memory.* metrics.
/// Changes the runtime thread count while it runs and restores nproc.
void RunLayerProbes(const std::string& model_path, const LayerInputs& in,
                    const dlner::core::Pipeline& ref, SpanLog* log,
                    Result* result);

}  // namespace perf

#endif  // PERF_LAYERS_H_
