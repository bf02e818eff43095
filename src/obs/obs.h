// Observability runtime shared by the whole toolkit: global enablement
// switches, a monotonic clock, and the structured JSONL logger.
//
// Design rule: every hot-path hook must cost exactly one relaxed atomic
// load plus a predictable branch while the corresponding switch is off.
// Tracing and metrics start off and the log threshold starts at warn; the
// CLI flags --trace-out, --metrics-out and --log-level are the only
// switches that change them per run (see docs/OBSERVABILITY.md).
#ifndef DLNER_OBS_OBS_H_
#define DLNER_OBS_OBS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

namespace dlner::obs {

namespace internal {
extern std::atomic<bool> g_tracing;
extern std::atomic<bool> g_metrics;
extern std::atomic<int> g_log_level;

/// JSON string-escapes `s` (quotes, backslashes, control characters).
std::string JsonEscape(std::string_view s);

/// Formats a double as a JSON number: integers without a fraction,
/// everything else with enough digits to be useful; NaN/inf become null
/// (JSON has no encoding for them).
std::string JsonNumber(double v);
}  // namespace internal

// --- Enablement switches ------------------------------------------------

/// True while span tracing is collecting. The disabled path of every
/// ScopedSpan is this single relaxed load.
inline bool TracingEnabled() {
  return internal::g_tracing.load(std::memory_order_relaxed);
}
void EnableTracing(bool on);

/// True while metric collection is on (tensor allocation accounting,
/// throughput counters, per-module timings).
inline bool MetricsEnabled() {
  return internal::g_metrics.load(std::memory_order_relaxed);
}
void EnableMetrics(bool on);

// --- Clock --------------------------------------------------------------

/// Monotonic microseconds since the first call in this process
/// (std::chrono::steady_clock; never goes backwards, unaffected by
/// wall-clock adjustments). All trace timestamps share this origin.
std::uint64_t NowMicros();

/// Wall-clock interval helper over the same monotonic clock.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }
  double Micros() const { return Seconds() * 1e6; }

 private:
  std::chrono::steady_clock::time_point start_;
};

// --- Structured logging -------------------------------------------------

enum class LogLevel : int {
  kDebug = 0,
  kInfo = 1,
  kWarn = 2,
  kError = 3,
  kOff = 4,
};

/// Parses "debug|info|warn|error|off" (case-sensitive) into *out; anything
/// else returns false and leaves *out untouched.
bool ParseLogLevel(std::string_view name, LogLevel* out);
const char* LogLevelName(LogLevel level);

/// Sets the process-wide threshold: records below it are dropped.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// True when a record at `level` would be emitted.
inline bool LogEnabled(LogLevel level) {
  return static_cast<int>(level) >=
         internal::g_log_level.load(std::memory_order_relaxed);
}

/// One typed key/value pair of a log record.
struct Field {
  enum class Kind { kString, kInt, kDouble, kBool };

  Field(const char* k, const std::string& v)
      : key(k), kind(Kind::kString), str(v) {}
  Field(const char* k, const char* v) : key(k), kind(Kind::kString), str(v) {}
  Field(const char* k, std::int64_t v) : key(k), kind(Kind::kInt), i(v) {}
  Field(const char* k, int v) : key(k), kind(Kind::kInt), i(v) {}
  Field(const char* k, double v) : key(k), kind(Kind::kDouble), d(v) {}
  Field(const char* k, bool v) : key(k), kind(Kind::kBool), b(v) {}

  const char* key;
  Kind kind;
  std::string str;
  std::int64_t i = 0;
  double d = 0.0;
  bool b = false;
};

/// Appends one JSONL record — {"ts_us":..,"level":..,"event":..,<fields>} —
/// to the log sink iff `level` passes the threshold.
void Log(LogLevel level, const char* event,
         std::initializer_list<Field> fields = {});

/// Same record format but bypasses the threshold (used for failures that
/// must stay visible at any --log-level, such as a socket that cannot bind).
void ForceLog(LogLevel level, const char* event,
              std::initializer_list<Field> fields = {});

/// Redirects log output to `path` (truncating); an empty path restores the
/// default sink (stderr). Returns false when the file cannot be opened.
bool SetLogFile(const std::string& path);

/// Test hook: restores switches and log level to their startup values
/// (tracing off, metrics off, warn) and points the log sink back at stderr.
void ResetForTesting();

}  // namespace dlner::obs

#endif  // DLNER_OBS_OBS_H_
