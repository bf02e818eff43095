#include "perf/stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

namespace perf {

std::int64_t NowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least p% of samples <= it.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<std::size_t>(rank)) - 1;
  return samples[idx];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

std::size_t CountAbove(const std::vector<double>& samples, double value) {
  return static_cast<std::size_t>(
      std::count_if(samples.begin(), samples.end(),
                    [value](double s) { return s > value; }));
}

namespace {

// Inclusive value range of bucket b (obs::Histogram's layout).
void BucketBounds(int b, double* lo, double* hi) {
  if (b == 0) {
    *lo = *hi = 0.0;
    return;
  }
  *lo = std::ldexp(1.0, b - 1);
  *hi = std::ldexp(1.0, b) - 1.0;
}

// Bucket index of a Prometheus `le` upper bound (0 or 2^b - 1).
int BucketOfUpperBound(double le) {
  if (le <= 0.0) return 0;
  const int b = static_cast<int>(std::lround(std::log2(le + 1.0)));
  return std::clamp(b, 0, BucketHistogram::kBuckets - 1);
}

// The sample lines of metric `prom_name` + `suffix`: "<name><suffix> <value>"
// or "<name><suffix>{labels} <value>". Calls fn(labels, value_text).
template <typename Fn>
void ForEachSample(const std::string& text, const std::string& prefix, Fn fn) {
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    if (text.compare(pos, prefix.size(), prefix) == 0) {
      std::size_t cur = pos + prefix.size();
      std::string labels;
      if (cur < eol && text[cur] == '{') {
        const std::size_t close = text.find('}', cur);
        if (close != std::string::npos && close < eol) {
          labels = text.substr(cur + 1, close - cur - 1);
          cur = close + 1;
        }
      }
      if (cur < eol && text[cur] == ' ') {
        fn(labels, text.substr(cur + 1, eol - cur - 1));
      }
    }
    pos = eol + 1;
  }
}

std::string PromName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

bool ParseDouble(const std::string& s, double* out) {
  if (s == "+Inf") {
    *out = HUGE_VAL;
    return true;
  }
  char* end = nullptr;
  *out = std::strtod(s.c_str(), &end);
  return end != s.c_str() && *end == '\0';
}

}  // namespace

double BucketPercentile(const BucketHistogram& h, double p) {
  if (h.count <= 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(h.count);
  std::int64_t cum = 0;
  for (int b = 0; b < BucketHistogram::kBuckets; ++b) {
    const std::int64_t in_bucket = h.counts[b];
    if (in_bucket <= 0) continue;
    if (static_cast<double>(cum + in_bucket) >= target) {
      double lo = 0.0, hi = 0.0;
      BucketBounds(b, &lo, &hi);
      const double frac = std::clamp(
          (target - static_cast<double>(cum)) / static_cast<double>(in_bucket),
          0.0, 1.0);
      return lo + (hi - lo) * frac;
    }
    cum += in_bucket;
  }
  double lo = 0.0, hi = 0.0;
  BucketBounds(BucketHistogram::kBuckets - 1, &lo, &hi);
  return hi;
}

BucketHistogram Subtract(const BucketHistogram& after,
                         const BucketHistogram& before) {
  BucketHistogram d;
  d.count = after.count - before.count;
  d.sum = after.sum - before.sum;
  for (int b = 0; b < BucketHistogram::kBuckets; ++b) {
    d.counts[b] = after.counts[b] - before.counts[b];
  }
  return d;
}

bool ParsePromHistogram(const std::string& text, const std::string& name,
                        BucketHistogram* out) {
  *out = BucketHistogram{};
  const std::string n = PromName(name);
  bool ok = true;
  std::int64_t prev_cum = 0;
  ForEachSample(text, n + "_bucket", [&](const std::string& labels,
                                         const std::string& value) {
    double le = 0.0, cum = 0.0;
    const std::string key = "le=\"";
    if (labels.compare(0, key.size(), key) != 0 || labels.back() != '"' ||
        !ParseDouble(labels.substr(key.size(), labels.size() - key.size() - 1),
                     &le) ||
        !ParseDouble(value, &cum)) {
      ok = false;
      return;
    }
    if (std::isinf(le)) return;  // +Inf repeats the total
    const auto c = static_cast<std::int64_t>(cum);
    out->counts[BucketOfUpperBound(le)] += c - prev_cum;
    prev_cum = c;
  });
  ForEachSample(text, n + "_sum", [&](const std::string&, const std::string& v) {
    ok = ParseDouble(v, &out->sum) && ok;
  });
  ForEachSample(text, n + "_count",
                [&](const std::string&, const std::string& v) {
                  double c = 0.0;
                  ok = ParseDouble(v, &c) && ok;
                  out->count = static_cast<std::int64_t>(c);
                });
  return ok && prev_cum <= out->count;
}

bool ParsePromValue(const std::string& text, const std::string& name,
                    double* out) {
  bool found = false;
  ForEachSample(text, PromName(name),
                [&](const std::string& labels, const std::string& value) {
                  if (labels.empty() && ParseDouble(value, out)) found = true;
                });
  return found;
}

std::vector<std::int64_t> PoissonArrivals(std::uint64_t seed,
                                          double rate_per_s,
                                          std::int64_t duration_us) {
  std::vector<std::int64_t> out;
  dlner::Rng rng(seed);
  const double mean_gap_us = 1e6 / rate_per_s;
  double t = 0.0;
  for (;;) {
    // Inverse-CDF exponential gap; 1 - U lies in (0, 1].
    t += -std::log(1.0 - rng.Uniform()) * mean_gap_us;
    if (t >= static_cast<double>(duration_us)) break;
    out.push_back(static_cast<std::int64_t>(t));
  }
  return out;
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

std::size_t ZipfSampler::Sample(dlner::Rng* rng) const {
  const double u = rng->Uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

bool JsonNumberField(const std::string& line, const std::string& key,
                     double* out) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  const char* start = line.c_str() + pos + needle.size();
  char* end = nullptr;
  *out = std::strtod(start, &end);
  return end != start;
}

bool JsonStringField(const std::string& line, const std::string& key,
                     std::string* out) {
  const std::string needle = "\"" + key + "\":\"";
  std::size_t i = line.find(needle);
  if (i == std::string::npos) return false;
  out->clear();
  for (i += needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= line.size()) return false;
    switch (line[i]) {
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 >= line.size()) return false;
        const long cp = std::strtol(line.substr(i + 1, 4).c_str(), nullptr, 16);
        if (cp >= 0x80) return false;
        out->push_back(static_cast<char>(cp));
        i += 4;
        break;
      }
      default: out->push_back(line[i]); break;
    }
  }
  return false;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perf
