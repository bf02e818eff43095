// Process-wide execution resources.
//
// The Runtime owns one lazily-created ThreadPool shared by every
// corpus-level parallel operation (evaluation, batch tagging, benchmarks).
// The logical thread count starts at std::thread::hardware_concurrency();
// Runtime::Get().SetThreads(n) (the tools' --threads flag) changes it, and
// n = 0 there means "use hardware concurrency" again. The count includes
// the calling thread, so a Runtime configured for N threads keeps N-1 pool
// workers.
#ifndef DLNER_RUNTIME_RUNTIME_H_
#define DLNER_RUNTIME_RUNTIME_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>

#include "runtime/thread_pool.h"

namespace dlner::runtime {

class Runtime {
 public:
  /// The process-wide instance.
  static Runtime& Get();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  /// Sets the logical thread count (0 = hardware concurrency). Rebuilds the
  /// pool on change; must not be called while a ParallelFor is in flight.
  void SetThreads(int n);

  /// Configured logical thread count (always >= 1).
  int threads();

  /// The shared pool (created on first use).
  ThreadPool& pool();

  /// Publishes the runtime's observable state into the obs metrics
  /// registry as gauges (runtime.threads, runtime.pool.jobs,
  /// runtime.pool.chunks_*, runtime.pool.idle_wait_us,
  /// runtime.pool.effective_parallelism). Call before exporting metrics;
  /// gauges carry the latest snapshot, so repeated calls never
  /// double-count. A never-used pool publishes zeros.
  void PublishMetrics();

 private:
  Runtime();

  std::mutex mu_;
  int threads_;
  std::unique_ptr<ThreadPool> pool_;
};

/// Convenience wrapper: Runtime::Get().pool().ParallelFor(...).
void ParallelFor(std::int64_t total, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& body);

}  // namespace dlner::runtime

#endif  // DLNER_RUNTIME_RUNTIME_H_
