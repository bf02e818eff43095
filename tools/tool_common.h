// Flag plumbing shared by the dlner and dlner_serve front ends: the
// observability flags every subcommand accepts, the --threads runtime
// flag, and the end-of-run artifact flush.
#ifndef DLNER_TOOLS_TOOL_COMMON_H_
#define DLNER_TOOLS_TOOL_COMMON_H_

#include <cstdio>
#include <string>

#include "core/flags.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "runtime/runtime.h"

namespace dlner::tools {

/// Adds the observability flags (--log-level, --trace-out, --metrics-out)
/// to a subcommand's spec.
inline void AddObsFlags(core::FlagSpec* spec) {
  (*spec)["log-level"] = core::FlagKind::kValue;
  (*spec)["trace-out"] = core::FlagKind::kValue;
  (*spec)["metrics-out"] = core::FlagKind::kValue;
}

/// Applies --log-level / --trace-out / --metrics-out to the process-wide
/// observability state. Collection starts before the command runs;
/// artifacts are written by FlushObsArtifacts afterwards. Returns false
/// (with the reason on stderr) for an unknown --log-level.
inline bool ApplyObsFlags(const core::Args& args) {
  if (args.Has("log-level")) {
    obs::LogLevel level = obs::LogLevel::kWarn;
    if (!obs::ParseLogLevel(args.Get("log-level"), &level)) {
      std::fprintf(stderr,
                   "--log-level: invalid value \"%s\" "
                   "(debug|info|warn|error|off)\n",
                   args.Get("log-level").c_str());
      return false;
    }
    obs::SetLogLevel(level);
  }
  if (args.Has("trace-out")) obs::EnableTracing(true);
  if (args.Has("metrics-out")) obs::EnableMetrics(true);
  return true;
}

/// Largest accepted --threads: SetThreads(n) starts n-1 OS threads.
constexpr int kMaxThreads = 1024;

/// Applies --threads to the process-wide runtime (0 = hardware
/// concurrency). Without the flag the runtime keeps its hardware default.
/// A value outside [0, kMaxThreads] returns false (with the reason on
/// stderr) before any pool is built.
inline bool ApplyThreadsFlag(const core::Args& args) {
  if (!args.Has("threads")) return true;
  const int n = args.GetInt("threads", 0);
  if (n < 0 || n > kMaxThreads) {
    std::fprintf(stderr, "--threads: %d is outside [0, %d]\n", n,
                 kMaxThreads);
    return false;
  }
  runtime::Runtime::Get().SetThreads(n);
  return true;
}

/// Writes the trace / metrics files requested on the command line. Returns
/// false (and logs) when a file cannot be written, so the process exits
/// non-zero instead of silently dropping the artifact.
inline bool FlushObsArtifacts(const core::Args& args) {
  bool ok = true;
  if (args.Has("metrics-out")) {
    // Fold the thread-pool counters and the tracer's recorded/dropped span
    // counts into the registry before the snapshot (a nonzero
    // trace.dropped_spans means ring wraparound ate spans; check_trace.py
    // warns on it).
    runtime::Runtime::Get().PublishMetrics();
    obs::PublishTraceMetrics();
    const std::string path = args.Get("metrics-out");
    if (!obs::Metrics::Get().WriteJson(path)) {
      obs::ForceLog(obs::LogLevel::kError, "metrics_write_failed",
                    {{"path", path}});
      ok = false;
    }
  }
  if (args.Has("trace-out")) {
    const std::string path = args.Get("trace-out");
    if (!obs::Tracer::Get().WriteChromeTrace(path)) {
      obs::ForceLog(obs::LogLevel::kError, "trace_write_failed",
                    {{"path", path}});
      ok = false;
    }
  }
  return ok;
}

}  // namespace dlner::tools

#endif  // DLNER_TOOLS_TOOL_COMMON_H_
