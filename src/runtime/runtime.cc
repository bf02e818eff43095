#include "runtime/runtime.h"

#include <thread>

#include "obs/metrics.h"

namespace dlner::runtime {
namespace {

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

}  // namespace

Runtime::Runtime() : threads_(HardwareThreads()) {}

Runtime& Runtime::Get() {
  static Runtime* instance = new Runtime();  // leaked: lives until exit
  return *instance;
}

void Runtime::SetThreads(int n) {
  if (n <= 0) n = HardwareThreads();
  std::lock_guard<std::mutex> lock(mu_);
  if (n == threads_ && pool_ != nullptr) return;
  pool_.reset();  // joins the old workers before the new size takes effect
  threads_ = n;
}

int Runtime::threads() {
  std::lock_guard<std::mutex> lock(mu_);
  return threads_;
}

ThreadPool& Runtime::pool() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(threads_ - 1);
  return *pool_;
}

void Runtime::PublishMetrics() {
  PoolStats stats;
  int workers = 0;
  int threads;
  {
    std::lock_guard<std::mutex> lock(mu_);
    threads = threads_;
    if (pool_ != nullptr) {
      stats = pool_->stats();
      workers = pool_->workers();
    }
  }
  obs::Metrics& m = obs::Metrics::Get();
  m.gauge("runtime.threads")->Set(threads);
  m.gauge("runtime.pool.workers")->Set(workers);
  m.gauge("runtime.pool.jobs")->Set(static_cast<double>(stats.jobs_executed));
  m.gauge("runtime.pool.parallel_fors")
      ->Set(static_cast<double>(stats.parallel_fors));
  m.gauge("runtime.pool.chunks_caller")
      ->Set(static_cast<double>(stats.chunks_caller));
  m.gauge("runtime.pool.chunks_helper")
      ->Set(static_cast<double>(stats.chunks_helper));
  m.gauge("runtime.pool.idle_wait_us")
      ->Set(static_cast<double>(stats.idle_wait_us));
  m.gauge("runtime.pool.effective_parallelism")
      ->Set(stats.chunks_caller > 0
                ? static_cast<double>(stats.chunks_total()) /
                      static_cast<double>(stats.chunks_caller)
                : 1.0);
}

void ParallelFor(std::int64_t total, std::int64_t grain,
                 const std::function<void(std::int64_t, std::int64_t)>& body) {
  Runtime::Get().pool().ParallelFor(total, grain, body);
}

}  // namespace dlner::runtime
