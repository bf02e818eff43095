// Scoped span tracing with Chrome trace_event JSON export.
//
// Each thread records completed spans into its own fixed-capacity ring
// buffer (oldest spans are overwritten once the ring is full), so recording
// never blocks another thread and never allocates unboundedly. Export
// merges every ring and sorts by (start, duration desc, tid, seq), making
// the emitted JSON a pure function of the recorded spans — deterministic
// content ordering, as the invariance suite expects. The resulting file
// loads directly in chrome://tracing and Perfetto (ui.perfetto.dev); see
// docs/OBSERVABILITY.md for span naming conventions.
#ifndef DLNER_OBS_TRACE_H_
#define DLNER_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"

namespace dlner::obs {

/// One completed span as stored in a ring buffer.
struct SpanEvent {
  std::string name;
  std::uint64_t start_us = 0;  // NowMicros() at span open
  std::uint64_t dur_us = 0;
  int tid = 0;            // stable per-thread id (registration order, 1-based)
  std::uint64_t seq = 0;  // global record-order tiebreaker
  /// Pre-rendered JSON object body (no braces), e.g. `"req":7,"cached":true`.
  /// Emitted as the Chrome-trace "args" object when non-empty.
  std::string args;
};

class Tracer {
 public:
  /// Per-thread ring capacity in spans. A full training run keeps its most
  /// recent ~32k spans per thread, which is what a trace viewer can
  /// usefully display anyway; the overwrite count is reported in the
  /// export's otherData.
  static constexpr std::size_t kRingCapacity = 1u << 15;

  /// The process-wide tracer (leaked singleton: spans recorded by worker
  /// threads during static destruction stay safe).
  static Tracer& Get();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Appends one completed span to the calling thread's ring. Called by
  /// ScopedSpan only while tracing is enabled. `args`, when non-empty, is a
  /// pre-rendered JSON object body attached to the span — it lets code that
  /// tracks a request across threads (the serve batcher) record stage spans
  /// with request-id annotations at completion time.
  void Record(std::string name, std::uint64_t start_us, std::uint64_t end_us,
              std::string args = {});

  /// Merged copy of every ring, sorted by (start, duration desc, tid, seq).
  std::vector<SpanEvent> Snapshot() const;

  /// Spans ever recorded / overwritten by ring wraparound.
  std::uint64_t recorded() const;
  std::uint64_t dropped() const;

  /// Drops all buffered spans (rings stay registered; counters reset).
  void Clear();

  /// Chrome trace_event JSON ("X" complete events, microsecond
  /// timestamps). The stream overload reports success via the stream
  /// state; the path overload returns false when the file cannot be
  /// written.
  void WriteChromeTrace(std::ostream& os) const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Ring {
    int tid = 0;
    mutable std::mutex mu;
    std::vector<SpanEvent> events;  // ring storage, slot = total % capacity
    std::uint64_t total = 0;        // spans ever recorded into this ring
  };

  Tracer() = default;

  Ring* ThreadRing();

  mutable std::mutex mu_;  // guards rings_ registration and snapshot
  std::vector<std::unique_ptr<Ring>> rings_;
  std::atomic<std::uint64_t> seq_{0};
};

namespace internal {
/// Thread-local trace context (see ScopedTraceContext below). 0 = none.
/// Defined inline here, not declared `extern`: UBSan (the asan preset)
/// reports accesses to an extern thread_local, which go through a TLS
/// wrapper function, as loads and stores through a null pointer.
inline thread_local std::uint64_t g_trace_ctx = 0;
}  // namespace internal

/// The calling thread's current trace context id (0 when none is set).
inline std::uint64_t CurrentTraceContext() { return internal::g_trace_ctx; }

/// RAII trace context: every span finished on this thread (or on pool
/// workers that inherit the context through runtime::ParallelFor) while the
/// guard is live carries a `"ctx":<id>` annotation. The serve batcher sets
/// the batch id as the context around TagCorpus, so plan/batch spans are
/// attributable to the serve/batch span (and through it to the request ids
/// it carried); `dlner tag --stream` sets a per-document ordinal so
/// stream/feed|flush spans group by document.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(std::uint64_t ctx)
      : saved_(internal::g_trace_ctx) {
    internal::g_trace_ctx = ctx;
  }
  ~ScopedTraceContext() { internal::g_trace_ctx = saved_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  std::uint64_t saved_;
};

/// RAII span: captures the start time at construction and records a
/// completed span at destruction. When tracing is disabled at construction
/// the whole object is a no-op (one relaxed load, no clock reads, no
/// allocation). Spans nest naturally; names should be static literals for
/// the common case.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (TracingEnabled()) {
      name_ = name;
      start_ = NowMicros();
      active_ = true;
    }
  }

  /// Dynamic-name variant ("prefix/suffix"); the string is only built when
  /// tracing is enabled.
  ScopedSpan(const char* prefix, const std::string& suffix) {
    if (TracingEnabled()) {
      owned_ = std::string(prefix) + "/" + suffix;
      start_ = NowMicros();
      active_ = true;
    }
  }

  ~ScopedSpan() {
    if (active_) Finish();
  }

  /// Attaches a `"key":value` annotation to the span's args object. No-ops
  /// when the span is inactive (tracing was off at construction).
  void Annotate(const char* key, std::int64_t value);
  /// `raw_json` must already be valid JSON (a quoted string, number,
  /// boolean, or array) — it is spliced into the args object verbatim.
  void Annotate(const char* key, const std::string& raw_json);

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  void Finish();

  const char* name_ = nullptr;  // static name; owned_ used when null
  std::string owned_;
  std::string args_;
  std::uint64_t start_ = 0;
  bool active_ = false;
};

/// Copies the tracer's lifetime recorded/dropped span counts into the
/// metrics registry as `trace.recorded_spans` / `trace.dropped_spans`
/// counters. Call before exporting metrics (FlushObsArtifacts does) so ring
/// overwrites are visible in the metrics file, not only in the Chrome-trace
/// otherData.
void PublishTraceMetrics();

}  // namespace dlner::obs

#endif  // DLNER_OBS_TRACE_H_
