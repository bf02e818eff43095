// Compiled inference plans: batched prediction over packed micro-batches.
//
// NerModel's eager path rebuilds a define-by-run graph per sentence; fine
// for training, wasteful for corpus-scale inference where the architecture
// never changes. An InferencePlan runs the three stages of the module tree
// (representation -> encoder -> decoder) over a *packed* micro-batch of
// sentences (tensor/batched.h): one GEMM spans the whole batch, and every
// intermediate lives in a bump-pointer Arena, so the steady-state hot path
// performs zero per-sentence heap allocation.
//
// Each stage is one call of the module's packed hook
// (TokenFeature::FillPacked, ContextEncoder::EncodePacked,
// TagDecoder::DecodePacked). A module with a packed kernel overrides its
// hook next to its eager forward, bit-identical to it, and names itself
// through packed_kind(): word and char CNN/BiLSTM features,
// mlp/cnn/idcnn/bilstm/bigru encoders, softmax/crf decoders. A frozen
// feature (word shape, gazetteer, char-LM and token-LM embeddings) has
// its packed fill as its only implementation: its Forward is that fill on
// a one-sentence batch (embeddings::FrozenForward). Every other module
// (transformer, brnn, segment decoders, extensions) inherits the base
// class's *eager bridge*, which calls the module's normal
// const forward per sentence under NoGradGuard — identical values by
// construction — so all taxonomy cells run through one entry point and the
// planned-vs-eager differential suite can cover the full grid.
//
// The plan borrows the model's modules and parameters; the owning NerModel
// must outlive it. Execute is const and uses a thread_local arena, so a
// shared plan is safe to run from multiple threads at once.
#ifndef DLNER_PLAN_PLAN_H_
#define DLNER_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "decoders/decoder.h"
#include "embeddings/features.h"
#include "encoders/encoder.h"
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

class InferencePlan {
 public:
  /// Cheap: no weight copies (the modules' hooks read their parameter
  /// tensors in place).
  explicit InferencePlan(const PlanModules& modules);

  InferencePlan(const InferencePlan&) = delete;
  InferencePlan& operator=(const InferencePlan&) = delete;

  /// Runs the three stages over one packed micro-batch. Every entry of
  /// `sentences` must be non-empty; `out` must have sentences.size() slots.
  /// Thread-safe: scratch comes from a per-thread arena.
  void Execute(const std::vector<const std::vector<std::string>*>& sentences,
               std::vector<std::vector<text::Span>>* out) const;

  /// True when representation, encoder, and decoder all have packed
  /// kernels (no per-sentence eager bridge on the hot path).
  bool fully_batched() const { return fully_batched_; }

  /// One-line schedule summary, e.g.
  /// "plan[embed=batched encoder=cnn:batched decoder=crf:batched]".
  const std::string& Describe() const { return description_; }

 private:
  PlanModules modules_;
  bool fully_batched_ = true;
  std::string description_;
};

}  // namespace dlner::plan

#endif  // DLNER_PLAN_PLAN_H_
