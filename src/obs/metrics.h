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

/// Plain-struct copy of a histogram's state at one point in time. Exports
/// read it once per histogram, and it answers percentile queries with the
/// same power-of-two bucket interpolation as the live Histogram.
struct HistogramSnapshot {
  static constexpr int kBuckets = 64;

  std::int64_t count = 0;
  double sum = 0.0;
  double min = 0.0;  // 0 when empty
  double max = 0.0;
  std::int64_t buckets[kBuckets] = {};

  /// Returns 0 for an empty snapshot.
  double Percentile(Quantile q) const;
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

  HistogramSnapshot Snapshot() const;

  void Reset();

 private:
  std::atomic<std::int64_t> buckets_[kBuckets] = {};
  std::atomic<std::int64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
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

  /// Deterministic JSON snapshot: {"schema": "dlner-metrics-v1",
  /// "series": {<name>: {...}, ...}} with names sorted lexicographically.
  /// Histograms with no observations are left out: registration is eager
  /// (NerModel::Build registers its timing histograms up front), so a
  /// process that never ran an instrumented path would otherwise export
  /// all-zero entries.
  void WriteJson(std::ostream& os) const;
  bool WriteJson(const std::string& path) const;

  /// Prometheus text exposition (format version 0.0.4): counters and
  /// gauges as-is, histograms as cumulative `le` buckets ending in +Inf.
  /// Rolling rates and quantiles are the scraper's job (PromQL `rate` and
  /// `histogram_quantile` over two readings). Dots in metric names become
  /// underscores; series are JSON-export-only. The serve scrape endpoint
  /// (--metrics-port) and the admin "metrics" command both emit this.
  void WritePrometheus(std::ostream& os) const;

  /// Zeroes every instrument (registrations and pointers survive).
  void ResetAll();

 private:
  Metrics() = default;

  // Find-or-create under mu_ (held by the caller).
  template <typename T>
  static T* Lookup(std::map<std::string, std::unique_ptr<T>>* instruments,
                   const std::string& name);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, std::unique_ptr<Series>> series_;
};

}  // namespace dlner::obs

#endif  // DLNER_OBS_METRICS_H_
