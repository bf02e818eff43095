// Measurement helpers shared by the benchmark's workloads: seeded arrival
// schedules and samplers, percentiles over client samples and over the
// server's power-of-two histograms, and readers for the server's admin
// replies (JSON lines and Prometheus text).
#ifndef PERF_STATS_H_
#define PERF_STATS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/rng.h"

namespace perf {

/// Monotonic wall clock in microseconds (steady_clock).
std::int64_t NowUs();

/// Nearest-rank percentile of `samples`, p in [0, 100]. 0 when empty.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);
/// Samples strictly greater than `value`.
std::size_t CountAbove(const std::vector<double>& samples, double value);

/// A power-of-two bucketed histogram as dlner_serve exports it: bucket 0
/// holds exactly 0, bucket b >= 1 holds [2^(b-1), 2^b - 1].
struct BucketHistogram {
  static constexpr int kBuckets = 64;
  std::array<std::int64_t, kBuckets> counts{};
  std::int64_t count = 0;
  double sum = 0.0;

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
};

/// p in [0, 100] (not a fraction: 99 is the 99th percentile). Linear
/// interpolation inside the selected bucket. 0 when empty.
double BucketPercentile(const BucketHistogram& h, double p);

/// Observations recorded between two snapshots of one histogram.
BucketHistogram Subtract(const BucketHistogram& after,
                         const BucketHistogram& before);

/// Reads histogram `name` (the dotted metric name, e.g.
/// "serve.stage.compute_us") from Prometheus text exposition. An absent
/// histogram reads as empty; false only on malformed samples.
bool ParsePromHistogram(const std::string& text, const std::string& name,
                        BucketHistogram* out);

/// Reads the value of a counter or gauge sample; false when absent.
bool ParsePromValue(const std::string& text, const std::string& name,
                    double* out);

/// Arrival times in microseconds from 0 of a Poisson process with
/// `rate_per_s`, over [0, duration_us). Same seed, same schedule.
std::vector<std::int64_t> PoissonArrivals(std::uint64_t seed,
                                          double rate_per_s,
                                          std::int64_t duration_us);

/// Zipf(s) over ranks [0, n): P(rank k) proportional to 1 / (k + 1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  std::size_t Sample(dlner::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

/// Value of the numeric field `"key":` in a flat JSON line; false when
/// absent or not a number.
bool JsonNumberField(const std::string& line, const std::string& key,
                     double* out);

/// Decodes the JSON string value of field `"key":` in a JSON line (the
/// escapes JsonQuote emits: \" \\ \n \r \t \b \f \uXXXX below 0x80).
bool JsonStringField(const std::string& line, const std::string& key,
                     std::string* out);

/// Formats a double with all its significant digits for the result line.
std::string FormatNumber(double v);

}  // namespace perf

#endif  // PERF_STATS_H_
