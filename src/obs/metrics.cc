#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

namespace dlner::obs {
namespace {

// Bucket index for a non-negative integer sample: 0 -> 0, otherwise
// 1 + floor(log2(sample)) clamped to the table.
int BucketIndex(std::uint64_t sample) {
  if (sample == 0) return 0;
  int b = 0;
  while (sample > 0 && b < Histogram::kBuckets - 1) {
    sample >>= 1;
    ++b;
  }
  return b;
}

// Inclusive value range covered by a bucket.
void BucketBounds(int b, double* lo, double* hi) {
  if (b == 0) {
    *lo = 0.0;
    *hi = 0.0;
    return;
  }
  *lo = std::ldexp(1.0, b - 1);      // 2^(b-1)
  *hi = std::ldexp(1.0, b) - 1.0;    // 2^b - 1
}

void AtomicAddDouble(std::atomic<double>* a, double delta) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + delta,
                                   std::memory_order_relaxed)) {
  }
}

void AtomicMinDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v < cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void AtomicMaxDouble(std::atomic<double>* a, double v) {
  double cur = a->load(std::memory_order_relaxed);
  while (v > cur &&
         !a->compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

// Prometheus metric names allow [a-zA-Z0-9_:] only; the registry's
// dot-separated names map dots (and anything else) to underscores.
std::string PromName(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, 1, '_');
  return out;
}

// Prometheus sample values: like JsonNumber but with the exposition
// format's spellings for non-finite values.
std::string PromNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return internal::JsonNumber(v);
}

// The ", count, sum, min, max, p50, p90, p99" JSON fields of a histogram.
std::string JsonHistogramFields(const HistogramSnapshot& s) {
  using internal::JsonNumber;
  std::string out = ", \"count\": ";
  out += std::to_string(s.count);
  out += ", \"sum\": " + JsonNumber(s.sum);
  out += ", \"min\": " + JsonNumber(s.min);
  out += ", \"max\": " + JsonNumber(s.max);
  out += ", \"p50\": " + JsonNumber(s.Percentile(Quantile::P(50)));
  out += ", \"p90\": " + JsonNumber(s.Percentile(Quantile::P(90)));
  out += ", \"p99\": " + JsonNumber(s.Percentile(Quantile::P(99)));
  return out;
}

}  // namespace

double HistogramSnapshot::Percentile(Quantile q) const {
  if (count == 0) return 0.0;
  const double target =
      std::clamp(q.fraction(), 0.0, 1.0) * static_cast<double>(count);
  std::int64_t cum = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const std::int64_t in_bucket = buckets[b];
    if (in_bucket == 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      double lo = 0.0, hi = 0.0;
      BucketBounds(b, &lo, &hi);
      const double frac = (target - static_cast<double>(cum)) /
                          static_cast<double>(in_bucket);
      const double est = lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
      // Never report outside the observed range.
      return std::clamp(est, min, max);
    }
    cum += in_bucket;
  }
  return max;
}

void Histogram::Observe(double v) {
  if (!(v >= 0.0)) v = 0.0;  // clamp negatives and NaN
  const std::uint64_t sample =
      v >= 9.2e18 ? ~0ull : static_cast<std::uint64_t>(std::llround(v));
  buckets_[BucketIndex(sample)].fetch_add(1, std::memory_order_relaxed);
  const std::int64_t n = count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAddDouble(&sum_, v);
  if (n == 0) {
    // First observation initializes min; the sentinel 0.0 would otherwise
    // pin the minimum of all-positive samples.
    min_.store(v, std::memory_order_relaxed);
    AtomicMaxDouble(&max_, v);
  } else {
    AtomicMinDouble(&min_, v);
    AtomicMaxDouble(&max_, v);
  }
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }

double Histogram::max() const { return max_.load(std::memory_order_relaxed); }


double Histogram::BucketUpperBound(int b) {
  double lo = 0.0, hi = 0.0;
  BucketBounds(b, &lo, &hi);
  return hi;
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.count = count();
  s.sum = sum();
  s.min = min();
  s.max = max();
  for (int b = 0; b < kBuckets; ++b) {
    s.buckets[b] = buckets_[b].load(std::memory_order_relaxed);
  }
  return s;
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

void Series::Append(double step, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.emplace_back(step, value);
}

std::vector<std::pair<double, double>> Series::points() const {
  std::lock_guard<std::mutex> lock(mu_);
  return points_;
}

void Series::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  points_.clear();
}

Metrics& Metrics::Get() {
  static Metrics* instance = new Metrics();  // leaked: lives until exit
  return *instance;
}

template <typename T>
T* Metrics::Lookup(std::map<std::string, std::unique_ptr<T>>* instruments,
                   const std::string& name) {
  auto& slot = (*instruments)[name];
  if (slot == nullptr) slot = std::make_unique<T>();
  return slot.get();
}

Counter* Metrics::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(&counters_, name);
}

Gauge* Metrics::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(&gauges_, name);
}

Histogram* Metrics::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(&histograms_, name);
}

Series* Metrics::series(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  return Lookup(&series_, name);
}

void Metrics::WriteJson(std::ostream& os) const {
  using internal::JsonEscape;
  using internal::JsonNumber;
  // One (name, body) entry per instrument, then emitted sorted by name so
  // the file is deterministic regardless of registration order.
  std::vector<std::pair<std::string, std::string>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      entries.emplace_back(
          name, "{\"type\": \"counter\", \"value\": " +
                    std::to_string(c->value()) + "}");
    }
    for (const auto& [name, g] : gauges_) {
      entries.emplace_back(name, "{\"type\": \"gauge\", \"value\": " +
                                     JsonNumber(g->value()) + "}");
    }
    for (const auto& [name, h] : histograms_) {
      if (h->count() == 0) continue;
      entries.emplace_back(name, "{\"type\": \"histogram\"" +
                                     JsonHistogramFields(h->Snapshot()) + "}");
    }
    for (const auto& [name, s] : series_) {
      std::string body = "{\"type\": \"series\", \"points\": [";
      bool first = true;
      for (const auto& [step, value] : s->points()) {
        if (!first) body += ", ";
        first = false;
        body += '[';
        body += JsonNumber(step);
        body += ", ";
        body += JsonNumber(value);
        body += ']';
      }
      body += "]}";
      entries.emplace_back(name, std::move(body));
    }
  }
  std::sort(entries.begin(), entries.end());
  os << "{\n\"schema\": \"dlner-metrics-v1\",\n\"series\": {\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << "  \"" << JsonEscape(entries[i].first)
       << "\": " << entries[i].second;
    if (i + 1 < entries.size()) os << ",";
    os << "\n";
  }
  os << "}\n}\n";
}

bool Metrics::WriteJson(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  WriteJson(os);
  return static_cast<bool>(os);
}

void Metrics::WritePrometheus(std::ostream& os) const {
  // One (sanitized name, text block) entry per instrument, emitted sorted
  // so the exposition is deterministic regardless of registration order.
  // Series are not exported here: a step curve has no Prometheus shape.
  std::vector<std::pair<std::string, std::string>> entries;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) {
      const std::string n = PromName(name);
      entries.emplace_back(
          n, "# TYPE " + n + " counter\n" + n + " " +
                 std::to_string(c->value()) + "\n");
    }
    for (const auto& [name, g] : gauges_) {
      const std::string n = PromName(name);
      entries.emplace_back(n, "# TYPE " + n + " gauge\n" + n + " " +
                                  PromNumber(g->value()) + "\n");
    }
    for (const auto& [name, h] : histograms_) {
      const std::string n = PromName(name);
      const HistogramSnapshot s = h->Snapshot();
      std::string block = "# TYPE " + n + " histogram\n";
      std::int64_t cum = 0;
      for (int b = 0; b < HistogramSnapshot::kBuckets; ++b) {
        cum += s.buckets[b];
        // Emit only occupied boundaries (plus +Inf below): 64 pow-2
        // buckets per histogram would drown a scrape in zeros.
        if (s.buckets[b] == 0) continue;
        block += n + "_bucket{le=\"" +
                 PromNumber(Histogram::BucketUpperBound(b)) + "\"} " +
                 std::to_string(cum) + "\n";
      }
      block += n + "_bucket{le=\"+Inf\"} " + std::to_string(s.count) + "\n";
      block += n + "_sum " + PromNumber(s.sum) + "\n";
      block += n + "_count " + std::to_string(s.count) + "\n";
      entries.emplace_back(n, std::move(block));
    }
  }
  std::sort(entries.begin(), entries.end());
  for (const auto& [name, block] : entries) os << block;
}

void Metrics::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
  for (auto& [name, s] : series_) s->Reset();
}

}  // namespace dlner::obs
