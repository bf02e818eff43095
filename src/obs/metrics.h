// Runtime metrics registry: counters, gauges, histograms, and step series.
//
// Instruments register by name once (pointers are stable for the process
// lifetime; cache them on hot paths) and update with relaxed atomics, so
// concurrent Predict shards and pool workers never contend on a lock.
// Export (`Metrics::WriteJson`) walks every registered instrument in
// lexicographic name order — the JSON is a deterministic function of the
// recorded values. Collection call sites are expected to gate on
// `obs::MetricsEnabled()` so the disabled path costs one relaxed load.
//
// Naming convention (docs/OBSERVABILITY.md): dot-separated,
// `<layer>.<what>[_<unit>]`, e.g. "tensor.live_bytes",
// "encoder.bilstm.forward_us", "train.loss".
#ifndef DLNER_OBS_METRICS_H_
#define DLNER_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"

namespace dlner::obs {

/// Monotonically increasing integer (events, bytes, calls).
class Counter {
 public:
  /// Adds `n` and returns the post-add value (a process-unique sequence
  /// number when n == 1, e.g. a batch id).
  std::int64_t Add(std::int64_t n = 1) {
    return v_.fetch_add(n, std::memory_order_relaxed) + n;
  }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Last-value instrument with add/sub (live quantities) and monotone-max
/// (peaks). All updates are lock-free CAS loops.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }

  /// Adds `delta` and returns the post-add value (so callers can feed a
  /// peak gauge without a second read).
  double Add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
    return cur + delta;
  }

  /// Raises the gauge to `v` if larger.
  void SetMax(double v) {
    double cur = v_.load(std::memory_order_relaxed);
    while (cur < v &&
           !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  double value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// A quantile of a distribution, built only from percent: Quantile::P(99)
/// is the 99th percentile. There is no conversion from a bare double, so
/// every query names its unit at the call site, and passing a fraction
/// such as 0.99 where percent is meant does not compile.
class Quantile {
 public:
  /// `percent` in [0, 100]; queries clamp values outside it.
  static constexpr Quantile P(double percent) {
    return Quantile(percent / 100.0);
  }

  /// The quantile as a fraction in [0, 1].
  constexpr double fraction() const { return fraction_; }

 private:
  explicit constexpr Quantile(double fraction) : fraction_(fraction) {}

  double fraction_;
};

/// Plain-struct copy of a histogram's state at one point in time. Windowed
/// instruments return these (their live slots rotate underneath readers);
/// merged snapshots answer percentile queries with the same power-of-two
/// bucket interpolation as the live Histogram.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;

  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;
  std::int64_t buckets[kBuckets] = {};

  /// Returns 0 for an empty snapshot.
  double Percentile(Quantile q) const;

  /// Folds `other` into this snapshot (bucket-wise add, min/max widen).
  void Merge(const HistogramSnapshot& other);
};

/// Power-of-two bucketed histogram over non-negative samples (typically
/// microseconds). Bucket b >= 1 covers [2^(b-1), 2^b); bucket 0 holds
/// exactly zero. Percentiles interpolate linearly inside the selected
/// bucket, so estimates are exact to within a factor of two — enough to
/// tell a 50 us forward pass from a 5 ms one.
class Histogram {
 public:
  static constexpr int kBuckets = HistogramSnapshot::kBuckets;

  void Observe(double v);

  std::int64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // 0 when empty
  double max() const;

  /// Observation count in bucket `b` (0 <= b < kBuckets).
  std::int64_t bucket_count(int b) const {
    return buckets_[b].load(std::memory_order_relaxed);
  }

  /// Largest sample value bucket `b` can hold (0 for bucket 0, 2^b - 1
  /// otherwise) — the upper bounds of the Prometheus `le` buckets.
  static double BucketUpperBound(int b);

  /// Returns 0 for an empty histogram.
  double Percentile(Quantile q) const;

  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

namespace internal {

/// The slot ring both windowed instruments share: `epochs` fixed-duration
/// cells (a Histogram or a Counter), the cell for epoch e = now_us /
/// epoch_us living at index e % epochs. Reading merges every cell still
/// inside the window, so the result covers the last `epochs * epoch_us`
/// microseconds (e.g. 12 x 5 s = a one-minute window).
///
/// Lock discipline: the hot path (recording into an already-current cell)
/// is the cell's relaxed atomics only. A cell is zeroed and re-tagged under
/// its slot's mutex exactly once per epoch turnover, and the tag is stored
/// with release order after zeroing, so a writer that sees the new tag also
/// sees the cleared cell. One benign race is accepted: a writer stalled for
/// longer than the entire window between loading `now` and recording may
/// land its sample in a rotated slot, misattributing one observation by one
/// window length — harmless for monitoring, and the tsan suite exercises
/// the rotation.
template <typename Cell>
class EpochRing {
 public:
  EpochRing(std::int64_t epoch_us, int epochs)
      : epoch_us_(epoch_us > 0 ? epoch_us : 1),
        epochs_(epochs > 0 ? epochs : 1),
        slots_(new Slot[static_cast<std::size_t>(epochs_)]) {}

  EpochRing(const EpochRing&) = delete;
  EpochRing& operator=(const EpochRing&) = delete;

  std::int64_t epoch_us() const { return epoch_us_; }
  int epochs() const { return epochs_; }
  double window_seconds() const {
    return static_cast<double>(epoch_us_) * epochs_ / 1e6;
  }

 protected:
  /// The cell owning the epoch of `now_us`, rotated in if it still holds an
  /// older epoch's data.
  Cell* CellAt(std::uint64_t now_us) {
    const std::int64_t epoch = static_cast<std::int64_t>(now_us) / epoch_us_;
    Slot& slot = slots_[static_cast<std::size_t>(epoch % epochs_)];
    if (slot.epoch.load(std::memory_order_acquire) != epoch) {
      std::lock_guard<std::mutex> lock(slot.mu);
      if (slot.epoch.load(std::memory_order_relaxed) != epoch) {
        slot.cell.Reset();
        slot.epoch.store(epoch, std::memory_order_release);
      }
    }
    return &slot.cell;
  }

  /// Calls `fn(cell)` for every cell tagged with an epoch inside
  /// [current - epochs + 1, current]; older cells await rotation.
  template <typename Fn>
  void ForEachLive(std::uint64_t now_us, Fn&& fn) const {
    const std::int64_t current = static_cast<std::int64_t>(now_us) / epoch_us_;
    for (int i = 0; i < epochs_; ++i) {
      const Slot& slot = slots_[static_cast<std::size_t>(i)];
      const std::int64_t e = slot.epoch.load(std::memory_order_acquire);
      if (e >= 0 && e <= current && current - e < epochs_) fn(slot.cell);
    }
  }

  /// Empties the window (every slot becomes stale).
  void ResetRing() {
    for (int i = 0; i < epochs_; ++i) {
      Slot& slot = slots_[static_cast<std::size_t>(i)];
      std::lock_guard<std::mutex> lock(slot.mu);
      slot.epoch.store(-1, std::memory_order_release);
    }
  }

 private:
  struct Slot {
    std::mutex mu;  // taken only to rotate the slot into a new epoch
    std::atomic<std::int64_t> epoch{-1};
    Cell cell;
  };

  const std::int64_t epoch_us_;
  const int epochs_;
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace internal

/// Sliding-window histogram: a ring of power-of-two bucket tables (see
/// internal::EpochRing) that live scrapes poll for current p50/p99 without
/// lifetime averaging washing out a latency regression. When constructed
/// with a `lifetime` histogram, every Observe also feeds it, so one call
/// records both the rolling and the lifetime view of a quantity.
class WindowedHistogram : public internal::EpochRing<Histogram> {
 public:
  WindowedHistogram(std::int64_t epoch_us, int epochs,
                    Histogram* lifetime = nullptr)
      : EpochRing(epoch_us, epochs), lifetime_(lifetime) {}
  WindowedHistogram() : WindowedHistogram(5'000'000, 12) {}

  void Observe(double v) { Observe(v, NowMicros()); }
  /// Explicit-clock overload (tests drive rotation deterministically).
  void Observe(double v, std::uint64_t now_us);

  /// Merged view of every slot inside the window ending at `now_us`.
  HistogramSnapshot Read(std::uint64_t now_us) const;
  HistogramSnapshot Read() const { return Read(NowMicros()); }

  /// Zeroes the window and the lifetime aggregate.
  void Reset();

 private:
  Histogram* const lifetime_;
};

/// Sliding-window counter: same ring as WindowedHistogram with one value
/// per slot. `WindowTotal` is the rolling event count; `RatePerSec` divides
/// by the window length, which is the live requests/errors-per-second a
/// scrape wants. A `lifetime` counter, when given, receives every Add too.
class WindowedCounter : public internal::EpochRing<Counter> {
 public:
  WindowedCounter(std::int64_t epoch_us, int epochs,
                  Counter* lifetime = nullptr)
      : EpochRing(epoch_us, epochs), lifetime_(lifetime) {}
  WindowedCounter() : WindowedCounter(5'000'000, 12) {}

  void Add(std::int64_t n = 1) { Add(n, NowMicros()); }
  void Add(std::int64_t n, std::uint64_t now_us);

  std::int64_t WindowTotal(std::uint64_t now_us) const;
  std::int64_t WindowTotal() const { return WindowTotal(NowMicros()); }
  double RatePerSec(std::uint64_t now_us) const;
  double RatePerSec() const { return RatePerSec(NowMicros()); }

  /// The lifetime aggregate, or null when the instrument has none.
  const Counter* lifetime() const { return lifetime_; }

  /// Zeroes the window and the lifetime aggregate.
  void Reset();

 private:
  Counter* const lifetime_;
};

/// Append-only (step, value) sequence — per-epoch training curves,
/// per-thread-count benchmark sweeps.
class Series {
 public:
  void Append(double step, double value);
  std::vector<std::pair<double, double>> points() const;
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<double, double>> points_;
};

/// Options for Metrics::WriteJson.
struct MetricsJsonOptions {
  /// Drops histograms with zero observations from the export. Registration
  /// is eager (NerModel::Build registers its timing histograms up front),
  /// so exports from processes that never ran the instrumented path — e.g.
  /// benchmark binaries — otherwise carry all-zero entries.
  bool skip_empty_histograms = false;
};

/// Process-wide registry. Instruments are created on first lookup and are
/// never destroyed or unregistered, so returned pointers stay valid for
/// the process lifetime (ResetAll zeroes values, not registrations).
class Metrics {
 public:
  static Metrics& Get();

  Metrics(const Metrics&) = delete;
  Metrics& operator=(const Metrics&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);
  Series* series(const std::string& name);
  /// Windowed instruments take their window shape on first registration;
  /// later lookups by the same name return the existing instrument (the
  /// shape arguments are ignored then, like every other registry accessor).
  /// A non-empty `lifetime_name` gives the instrument a lifetime aggregate:
  /// the counter/histogram registered under that name, which every
  /// Add/Observe also feeds and which exports like any other (a Prometheus
  /// counter/histogram next to the rolling view under `name`).
  WindowedCounter* windowed_counter(const std::string& name,
                                    std::int64_t epoch_us = 5'000'000,
                                    int epochs = 12,
                                    const std::string& lifetime_name = "");
  WindowedHistogram* windowed_histogram(const std::string& name,
                                        std::int64_t epoch_us = 5'000'000,
                                        int epochs = 12,
                                        const std::string& lifetime_name = "");

  /// Number of registered instruments (all kinds).
  std::size_t NumSeries() const;

  /// Deterministic JSON snapshot: {"schema": "dlner-metrics-v1",
  /// "series": {<name>: {...}, ...}} with names sorted lexicographically.
  /// Windowed instruments export their rolling-window view as of the call.
  void WriteJson(std::ostream& os) const { WriteJson(os, {}); }
  bool WriteJson(const std::string& path) const { return WriteJson(path, {}); }
  void WriteJson(std::ostream& os, const MetricsJsonOptions& options) const;
  bool WriteJson(const std::string& path,
                 const MetricsJsonOptions& options) const;

  /// Prometheus text exposition (format version 0.0.4): counters and
  /// gauges as-is, histograms as cumulative `le` buckets ending in +Inf,
  /// windowed histograms as summaries with quantile labels, windowed
  /// counters as gauges (a rolling-window total is not monotone). Dots in
  /// metric names become underscores; series are JSON-export-only. The
  /// serve scrape endpoint (--metrics-port) and the admin "metrics"
  /// command both emit this.
  void WritePrometheus(std::ostream& os) const;

  /// Zeroes every instrument (registrations and pointers survive).
  void ResetAll();

 private:
  Metrics() = default;

  // Find-or-create under mu_ (held by the caller); `args` construct the
  // instrument on first registration only.
  template <typename T, typename... Args>
  static T* Lookup(std::map<std::string, std::unique_ptr<T>>* instruments,
                   const std::string& name, Args... args);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
  std::map<std::string, std::unique_ptr<WindowedCounter>> windowed_counters_;
  std::map<std::string, std::unique_ptr<WindowedHistogram>>
      windowed_histograms_;
};

}  // namespace dlner::obs

#endif  // DLNER_OBS_METRICS_H_
