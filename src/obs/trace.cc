#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <utility>

#include "obs/metrics.h"

namespace dlner::obs {

Tracer& Tracer::Get() {
  static Tracer* instance = new Tracer();  // leaked: lives until exit
  return *instance;
}

Tracer::Ring* Tracer::ThreadRing() {
  // One ring per thread per process lifetime; the tracer owns it, so spans
  // from exited threads (e.g. a rebuilt thread pool) remain exportable.
  thread_local Ring* ring = nullptr;
  if (ring == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    rings_.push_back(std::make_unique<Ring>());
    ring = rings_.back().get();
    ring->tid = static_cast<int>(rings_.size());
  }
  return ring;
}

void Tracer::Record(std::string name, std::uint64_t start_us,
                    std::uint64_t end_us, std::string args) {
  Ring* ring = ThreadRing();
  SpanEvent ev;
  ev.name = std::move(name);
  ev.start_us = start_us;
  ev.dur_us = end_us >= start_us ? end_us - start_us : 0;
  ev.args = std::move(args);
  ev.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(ring->mu);
  ev.tid = ring->tid;
  if (ring->events.size() < kRingCapacity) {
    ring->events.push_back(std::move(ev));
  } else {
    ring->events[ring->total % kRingCapacity] = std::move(ev);
  }
  ++ring->total;
}

std::vector<SpanEvent> Tracer::Snapshot() const {
  std::vector<SpanEvent> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& ring : rings_) {
      std::lock_guard<std::mutex> ring_lock(ring->mu);
      all.insert(all.end(), ring->events.begin(), ring->events.end());
    }
  }
  std::sort(all.begin(), all.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              if (a.start_us != b.start_us) return a.start_us < b.start_us;
              if (a.dur_us != b.dur_us) return a.dur_us > b.dur_us;
              if (a.tid != b.tid) return a.tid < b.tid;
              return a.seq < b.seq;
            });
  return all;
}

std::uint64_t Tracer::recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    total += ring->total;
  }
  return total;
}

std::uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    if (ring->total > kRingCapacity) dropped += ring->total - kRingCapacity;
  }
  return dropped;
}

void Tracer::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& ring : rings_) {
    std::lock_guard<std::mutex> ring_lock(ring->mu);
    ring->events.clear();
    ring->total = 0;
  }
}

void Tracer::WriteChromeTrace(std::ostream& os) const {
  const std::vector<SpanEvent> events = Snapshot();
  const std::uint64_t lost = dropped();
  os << "{\n\"displayTimeUnit\": \"ms\",\n";
  os << "\"otherData\": {\"tool\": \"dlner\", \"dropped_events\": " << lost
     << "},\n";
  os << "\"traceEvents\": [\n";
  // Thread-name metadata first, then the spans; both in deterministic order.
  int max_tid = 0;
  for (const SpanEvent& ev : events) max_tid = std::max(max_tid, ev.tid);
  bool first = true;
  for (int tid = 1; tid <= max_tid; ++tid) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << tid << ", \"args\": {\"name\": \"dlner-" << tid << "\"}}";
  }
  for (const SpanEvent& ev : events) {
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\": \"" << internal::JsonEscape(ev.name)
       << "\", \"cat\": \"dlner\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
       << ev.tid << ", \"ts\": " << ev.start_us << ", \"dur\": " << ev.dur_us;
    // Span annotations are pre-rendered JSON object bodies, spliced in
    // verbatim so export stays a pure function of the recorded spans.
    if (!ev.args.empty()) os << ", \"args\": {" << ev.args << "}";
    os << "}";
  }
  os << "\n]\n}\n";
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  WriteChromeTrace(os);
  return static_cast<bool>(os);
}

void ScopedSpan::Annotate(const char* key, std::int64_t value) {
  if (!active_) return;
  Annotate(key, std::to_string(value));
}

void ScopedSpan::Annotate(const char* key, const std::string& raw_json) {
  if (!active_) return;
  if (!args_.empty()) args_.push_back(',');
  args_.push_back('"');
  args_ += internal::JsonEscape(key);
  args_ += "\":";
  args_ += raw_json;
}

void ScopedSpan::Finish() {
  // The thread-local trace context is appended last so a span's explicit
  // annotations always come first and a surrounding ScopedTraceContext
  // cannot be shadowed by an Annotate call site.
  if (const std::uint64_t ctx = CurrentTraceContext(); ctx != 0) {
    if (!args_.empty()) args_.push_back(',');
    args_ += "\"ctx\":" + std::to_string(ctx);
  }
  Tracer::Get().Record(name_ != nullptr ? std::string(name_)
                                        : std::move(owned_),
                       start_, NowMicros(), std::move(args_));
}

void PublishTraceMetrics() {
  Tracer& tracer = Tracer::Get();
  Metrics& metrics = Metrics::Get();
  // Published as a point-in-time copy: Reset-then-Add so repeated flushes
  // do not double-count.
  Counter* recorded = metrics.counter("trace.recorded_spans");
  recorded->Reset();
  recorded->Add(static_cast<std::int64_t>(tracer.recorded()));
  Counter* dropped = metrics.counter("trace.dropped_spans");
  dropped->Reset();
  dropped->Add(static_cast<std::int64_t>(tracer.dropped()));
}

}  // namespace dlner::obs
