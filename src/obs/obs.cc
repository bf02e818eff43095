#include "obs/obs.h"

#include <cmath>
#include <cstdio>
#include <mutex>

namespace dlner::obs {
namespace {

// Records go to stderr, written whole under the lock, so concurrent loggers
// interleave at record granularity only.
std::mutex g_log_mu;

void AppendField(std::string* out, const Field& f) {
  out->append(",\"");
  out->append(internal::JsonEscape(f.key));
  out->append("\":");
  switch (f.kind) {
    case Field::Kind::kString:
      out->push_back('"');
      out->append(internal::JsonEscape(f.str));
      out->push_back('"');
      break;
    case Field::Kind::kInt:
      out->append(std::to_string(f.i));
      break;
    case Field::Kind::kDouble:
      out->append(internal::JsonNumber(f.d));
      break;
    case Field::Kind::kBool:
      out->append(f.b ? "true" : "false");
      break;
  }
}

void WriteRecord(LogLevel level, const char* event,
                 std::initializer_list<Field> fields) {
  std::string line = "{\"ts_us\":" + std::to_string(NowMicros());
  line.append(",\"level\":\"");
  line.append(LogLevelName(level));
  line.append("\",\"event\":\"");
  line.append(internal::JsonEscape(event));
  line.push_back('"');
  for (const Field& f : fields) AppendField(&line, f);
  line.append("}\n");
  std::lock_guard<std::mutex> lock(g_log_mu);
  std::fwrite(line.data(), 1, line.size(), stderr);
  std::fflush(stderr);
}

}  // namespace

namespace internal {

std::atomic<bool> g_tracing{false};
std::atomic<bool> g_metrics{false};
std::atomic<int> g_log_level{static_cast<int>(LogLevel::kWarn)};

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace internal

void EnableTracing(bool on) {
  internal::g_tracing.store(on, std::memory_order_relaxed);
}

void EnableMetrics(bool on) {
  internal::g_metrics.store(on, std::memory_order_relaxed);
}

std::uint64_t NowMicros() {
  static const std::chrono::steady_clock::time_point base =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - base)
          .count());
}

bool ParseLogLevel(std::string_view name, LogLevel* out) {
  for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                               LogLevel::kWarn, LogLevel::kError,
                               LogLevel::kOff}) {
    if (name == LogLevelName(level)) {
      *out = level;
      return true;
    }
  }
  return false;
}

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "warn";
}

void SetLogLevel(LogLevel level) {
  int v = static_cast<int>(level);
  if (v < static_cast<int>(LogLevel::kDebug)) v = 0;
  if (v > static_cast<int>(LogLevel::kOff)) {
    v = static_cast<int>(LogLevel::kOff);
  }
  internal::g_log_level.store(v, std::memory_order_relaxed);
}

LogLevel GetLogLevel() {
  return static_cast<LogLevel>(
      internal::g_log_level.load(std::memory_order_relaxed));
}

void Log(LogLevel level, const char* event,
         std::initializer_list<Field> fields) {
  if (!LogEnabled(level)) return;
  WriteRecord(level, event, fields);
}

void ForceLog(LogLevel level, const char* event,
              std::initializer_list<Field> fields) {
  WriteRecord(level, event, fields);
}

void ResetForTesting() {
  EnableTracing(false);
  EnableMetrics(false);
  SetLogLevel(LogLevel::kWarn);
}

}  // namespace dlner::obs
