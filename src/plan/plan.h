// Compiled inference plans: ahead-of-time schedules for batched prediction.
//
// NerModel's eager path rebuilds a define-by-run graph per sentence; fine
// for training, wasteful for corpus-scale inference where the architecture
// never changes. An InferencePlan flattens the module tree (representation
// -> encoder -> decoder) ONCE into a static list of steps that run over a
// *packed* micro-batch of sentences (tensor/batched.h): one GEMM
// spans the whole batch, and every intermediate lives in a bump-pointer
// Arena, so the steady-state hot path performs zero per-sentence heap
// allocation.
//
// Modules with a batched emitter (mlp/cnn/idcnn/bilstm/bigru encoders,
// softmax/crf decoders, word/shape/gazetteer and char CNN/BiLSTM features)
// compile to packed kernels that are bit-identical to eager (see
// tensor/batched.h). Every other module (LM embeddings, plugin features,
// ...) compiles to an *eager bridge* step that calls the module's
// normal const forward per sentence under NoGradGuard — identical values by
// construction — so all taxonomy cells run through one entry point and the
// planned-vs-eager differential suite can cover the full grid.
//
// The plan borrows the model's modules and parameters; the owning NerModel
// must outlive it. Execute is const and uses a thread_local arena, so a
// shared plan is safe to run from multiple threads at once.
#ifndef DLNER_PLAN_PLAN_H_
#define DLNER_PLAN_PLAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "decoders/decoder.h"
#include "embeddings/features.h"
#include "encoders/encoder.h"
#include "tensor/arena.h"
#include "tensor/batched.h"
#include "text/types.h"

namespace dlner::plan {

/// Most sentences one packed micro-batch holds: large enough that one
/// packed GEMM amortizes dispatch across sentences, small enough that
/// ragged tail batches still balance across the thread pool.
/// NerModel::PredictPlanned splits a corpus at this width, and the server's
/// batcher takes at most this many queued requests per batch.
constexpr std::int64_t kMicroBatch = 16;

/// Borrowed views of the modules a plan is compiled from.
struct PlanModules {
  const embeddings::ComposedRepresentation* representation = nullptr;
  const encoders::ContextEncoder* encoder = nullptr;
  const decoders::TagDecoder* decoder = nullptr;
};

/// Mutable state threaded through the steps of one micro-batch execution.
struct ExecContext {
  Arena* arena = nullptr;
  const batched::BatchLayout* layout = nullptr;
  /// Token sequences, one per batch slot (all non-empty).
  const std::vector<const std::vector<std::string>*>* sentences = nullptr;
  /// Current packed activation buffer [layout->rows(), cur_dim].
  const Float* cur = nullptr;
  int cur_dim = 0;
  /// Decoded spans, one slot per sentence (filled by the decode step).
  std::vector<std::vector<text::Span>>* out = nullptr;
};

class InferencePlan {
 public:
  /// Compiles the schedule. Cheap (no weight copies: steps reference the
  /// modules' parameter tensors in place).
  explicit InferencePlan(const PlanModules& modules);

  InferencePlan(const InferencePlan&) = delete;
  InferencePlan& operator=(const InferencePlan&) = delete;

  /// Runs the compiled schedule over one packed micro-batch. Every entry of
  /// `sentences` must be non-empty; `out` must have sentences.size() slots.
  /// Thread-safe: scratch comes from a per-thread arena.
  void Execute(const std::vector<const std::vector<std::string>*>& sentences,
               std::vector<std::vector<text::Span>>* out) const;

  /// True when representation, encoder, and decoder all compiled to packed
  /// batch kernels (no per-sentence eager bridge on the hot path).
  bool fully_batched() const { return fully_batched_; }

  /// One-line schedule summary, e.g.
  /// "plan[embed=batched encoder=cnn:batched decoder=crf:batched]".
  const std::string& Describe() const { return description_; }

 private:
  struct Step {
    // Static literals, emitted as nested spans around the step so planned
    // runs keep the documented span vocabulary ("embed", "encode/<kind>",
    // ...) while everything stays nested under "plan/batch". `detail` is
    // null for eager-bridge steps — the bridged module emits its own
    // detail span per sentence.
    const char* name;
    const char* detail;
    std::function<void(ExecContext&)> run;
  };

  std::vector<Step> steps_;
  bool fully_batched_ = true;
  std::string description_;
};

}  // namespace dlner::plan

#endif  // DLNER_PLAN_PLAN_H_
