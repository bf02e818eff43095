#include "plan/plan.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/arena.h"
#include "tensor/batched.h"
#include "tensor/variable.h"

namespace dlner::plan {
namespace {

// "<kind>:batched" for a packed kernel, "eager:eager" for the bridge.
std::string StageName(const char* kind) {
  return kind != nullptr ? std::string(kind) + ":batched" : "eager:eager";
}

}  // namespace

InferencePlan::InferencePlan(const PlanModules& modules) : modules_(modules) {
  DLNER_CHECK(modules.representation != nullptr);
  DLNER_CHECK(modules.encoder != nullptr);
  DLNER_CHECK(modules.decoder != nullptr);
  const char* embed = modules.representation->packed_kind();
  const char* encoder = modules.encoder->packed_kind();
  const char* decoder = modules.decoder->packed_kind();
  fully_batched_ = embed != nullptr && encoder != nullptr && decoder != nullptr;
  description_ = "plan[embed=" +
                 std::string(embed != nullptr ? "batched" : "mixed") +
                 " encoder=" + StageName(encoder) +
                 " decoder=" + StageName(decoder) + "]";
}

void InferencePlan::Execute(
    const std::vector<const std::vector<std::string>*>& sentences,
    std::vector<std::vector<text::Span>>* out) const {
  DLNER_CHECK_EQ(sentences.size(), out->size());
  if (sentences.empty()) return;
  NoGradGuard no_grad;
  obs::ScopedSpan span("plan/batch");
  // One arena per worker thread: capacity persists across batches, so after
  // warm-up the packed path allocates nothing from the heap.
  thread_local Arena arena;
  arena.Reset();
  batched::BatchLayout layout;
  for (const auto* tokens : sentences) {
    layout.Add(static_cast<int>(tokens->size()));
  }
  const batched::PackedBatch batch{&arena, &layout, &sentences};
  // The stage spans are opened here; each module's packed hook opens its
  // own "encode/<kind>" / "decode/<kind>" detail span, and an eager bridge
  // gets them from the module's per-sentence forward.
  const int rep_dim = modules_.representation->dim();
  Float* rep = nullptr;
  {
    obs::ScopedSpan embed_span("embed");
    rep = batch.AllocRows(rep_dim);
    modules_.representation->FillPacked(batch, rep, rep_dim);
  }
  const Float* encoded = nullptr;
  {
    obs::ScopedSpan encode_span("encode");
    encoded = modules_.encoder->EncodePacked(batch, rep, rep_dim);
  }
  {
    obs::ScopedSpan decode_span("decode");
    modules_.decoder->DecodePacked(batch, encoded,
                                   modules_.encoder->out_dim(), out);
  }
  if (obs::MetricsEnabled()) {
    obs::Metrics& m = obs::Metrics::Get();
    m.gauge("tensor.arena.bytes_reserved")
        ->SetMax(static_cast<double>(arena.bytes_reserved()));
    m.gauge("tensor.arena.high_water")
        ->SetMax(static_cast<double>(arena.high_water()));
    m.counter("plan.batches")->Add(1);
    m.counter("plan.sentences")->Add(static_cast<std::int64_t>(sentences.size()));
  }
}

}  // namespace dlner::plan
