// Long-lived tagging server: newline-delimited JSON over TCP with dynamic
// micro-batching (ROADMAP item 1; the survey frames NER as the front-line
// component of production NLP systems serving live traffic).
//
// Architecture:
//
//   accept loop ──> one reader thread per connection
//                     │  parse line (serve/protocol.h)
//                     │  cache hit?  ──────────────> respond immediately
//                     │  admin cmd?  ──────────────> handle inline
//                     ▼
//              bounded admission queue   (full -> 429 error response)
//                     │
//                     ▼
//               batcher thread: work-conserving — whenever it is idle it
//                     │  takes up to plan::kMicroBatch (16) queued
//                     │  requests for the head request's model; what
//                     │  arrives meanwhile is the next batch
//                     ▼
//            Pipeline::TagCorpus  (compiled plan: packed ragged
//            micro-batches over arena-backed buffers, src/plan/)
//                     │
//                     ▼
//              per-request responses (+ LRU cache fill)
//
// Responses are byte-identical to `dlner tag` on the same model and input:
// the batcher routes through exactly the PredictCorpus path the CLI uses.
// Backpressure is explicit — a full admission queue rejects with a
// 429-coded error response instead of queueing unboundedly; a draining
// server rejects with 503. Hot reload (admin "reload", or
// ModelRegistry::Load from the embedding process) swaps the model without
// dropping in-flight requests (serve/registry.h).
//
// Observability (docs/OBSERVABILITY.md "Live serving observability"):
// every accepted request gets a 64-bit request id threaded through the
// admission queue, the batcher, TagCorpus, and the response write. Sampled
// requests (--trace-sample-rate over the request-id hash) record a
// serve/request span plus serve/stage/{queue_wait,batch_wait,compute,
// write} spans sharing the same "req" annotation; serve/batch spans carry
// the ids they served and set the batch id as the thread's trace context,
// so plan/batch spans nest attributably. Each served quantity is recorded
// once, into one lifetime instrument: obs::Counters for counts
// (serve.responses_total, serve.errors_total, ...) and power-of-two
// histograms for latencies and batch sizes (serve.request.latency_us,
// serve.stage.*). The admin "metrics" command and the --metrics-port
// Prometheus scrape export them; rolling rates and quantiles come from two
// readings (PromQL rate and histogram_quantile). Requests over
// --slow-request-us emit a structured serve_slow_request log line with the
// stage breakdown. See docs/SERVING.md.
#ifndef DLNER_SERVE_SERVER_H_
#define DLNER_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/registry.h"

namespace dlner::serve {

struct ServeConfig {
  std::string host = "127.0.0.1";
  /// TCP port; 0 asks the kernel for an ephemeral port (see
  /// Server::port()).
  int port = 0;
  /// Admission-queue bound; a full queue rejects with a 429 error response.
  int queue_capacity = 256;
  /// LRU response-cache entries; 0 disables caching.
  std::size_t cache_capacity = 4096;
  /// Request lines longer than this are rejected with a 413 error response
  /// (the rest of the oversized line is discarded; the connection
  /// survives).
  std::size_t max_line_bytes = 1 << 20;
  /// Requests with more tokens than this are rejected with 413.
  int max_tokens = 512;

  // --- Live observability (docs/OBSERVABILITY.md) -----------------------

  /// Fraction of requests whose lifecycle is recorded as trace spans while
  /// tracing is enabled. Sampling is deterministic per request id (a
  /// splitmix64 hash), so reruns sample the same ids. 1.0 = every request
  /// (the pre-sampling behavior); 0.0 = none.
  double trace_sample_rate = 1.0;
  /// Requests slower than this end-to-end emit a structured
  /// "serve_slow_request" warn-level log line with the per-stage
  /// breakdown, independent of trace sampling. 0 disables.
  std::int64_t slow_request_us = 0;
  /// TCP port for the plain-text Prometheus scrape endpoint (HTTP GET,
  /// exposition format 0.0.4). -1 disables; 0 asks for an ephemeral port
  /// (see Server::metrics_port()). While the endpoint is up, serve-side
  /// metric collection is always on, even without --metrics-out.
  int metrics_port = -1;
};

class Server {
 public:
  /// The registry is borrowed and must outlive the server. Models may be
  /// loaded into it before Start() and hot-reloaded at any time after.
  Server(ModelRegistry* registry, const ServeConfig& config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and launches the accept + batcher threads. Returns
  /// false (with the reason logged) when the socket cannot be bound.
  bool Start();

  /// The bound port (useful with ServeConfig::port == 0).
  int port() const { return port_; }

  /// The bound Prometheus scrape port, or 0 when ServeConfig::metrics_port
  /// is -1 (endpoint disabled).
  int metrics_port() const { return metrics_port_; }

  /// Blocks until Stop() is called or a client sends {"cmd":"shutdown"}.
  /// `interrupted`, when non-null, is polled so a signal handler can end
  /// the wait.
  void Wait(const std::atomic<bool>* interrupted = nullptr);

  /// Graceful stop: refuses new work (503), drains the admission queue so
  /// every accepted request is answered, then joins all threads.
  /// Idempotent.
  void Stop();

  /// Sets the derived gauge serve.cache.size and the trace counters. Call
  /// before exporting metrics, like runtime::Runtime::PublishMetrics(); the
  /// counts themselves are live registry counters and need no publishing.
  void PublishMetrics() const;

  // Always-on lifetime counts (also the payload of the "stats" admin
  // command, so they work without --metrics-out). They read the registry's
  // serve.* counters, which Start() zeroes: they describe this server as
  // long as no other Server in the process has started since.
  std::int64_t requests_total() const { return requests_->value(); }
  std::int64_t responses_total() const { return responses_->value(); }
  std::int64_t rejected_total() const { return rejected_->value(); }
  std::int64_t errors_total() const { return errors_->value(); }
  std::int64_t cache_hits() const { return cache_hits_->value(); }
  std::int64_t cache_misses() const { return cache_misses_->value(); }
  std::int64_t batches_total() const { return batches_->value(); }

 private:
  struct Conn;

  /// One connection's reader thread. `done` is set as ConnLoop returns, so
  /// the accept loop can join exited readers instead of keeping their
  /// stacks mapped until Stop(). Holds the connection only weakly: the fd
  /// still closes when the last response owed on it is written.
  struct Reader {
    std::weak_ptr<Conn> conn;
    std::thread thread;
    std::atomic<bool> done{false};
  };

  struct Pending {
    std::shared_ptr<Conn> conn;
    Request request;
    std::uint64_t arrival_us = 0;
    std::uint64_t req_id = 0;
    bool sampled = false;  // trace this request's lifecycle as spans
  };

  /// Stage boundary timestamps of one tagging request (obs::NowMicros()).
  /// queue_wait = queue_end - arrival (head-of-line time before the
  /// batcher started collecting this batch), batch_wait = batch_end -
  /// queue_end (popping the batch off the queue), compute = the TagCorpus
  /// call, write = doc fold + payload build + cache fill + socket write.
  /// Cache hits collapse everything but write onto the arrival instant.
  struct StageTimes {
    std::uint64_t arrival_us = 0;
    std::uint64_t queue_end_us = 0;
    std::uint64_t batch_end_us = 0;
    std::uint64_t compute_start_us = 0;
    std::uint64_t compute_end_us = 0;
    std::uint64_t write_start_us = 0;
    std::uint64_t write_end_us = 0;
  };

  void AcceptLoop();
  void ConnLoop(std::shared_ptr<Conn> conn);
  void HandleLine(const std::shared_ptr<Conn>& conn, const std::string& line);
  void HandleAdmin(const std::shared_ptr<Conn>& conn, const Request& req);
  void BatchLoop();
  void ExecuteBatch(std::vector<Pending> batch, std::uint64_t collect_start_us,
                    std::uint64_t collect_end_us);
  void WriteLine(const std::shared_ptr<Conn>& conn, const std::string& line);

  /// True while serve-side metric collection should run: always while the
  /// scrape endpoint is configured, otherwise only under --metrics-out.
  bool CollectMetrics() const {
    return metrics_always_ || obs::MetricsEnabled();
  }
  /// Deterministic per-request sampling decision (splitmix64 hash of the
  /// request id against config_.trace_sample_rate).
  bool SampleTrace(std::uint64_t req_id) const;
  /// Tail of every answered tagging request: latency and stage
  /// histograms, stage spans for sampled requests, and the slow-request
  /// log line.
  void FinishTagRequest(const Pending& pending, const std::string& model,
                        bool cached, const StageTimes& t);

  bool StartMetricsListener();
  void MetricsLoop();
  /// The Prometheus exposition the scrape endpoint and the admin
  /// "metrics" command serve (publishes derived gauges first).
  std::string ScrapeText() const;

  ModelRegistry* const registry_;
  const ServeConfig config_;
  const bool metrics_always_;
  LruCache cache_;

  int listen_fd_ = -1;
  int port_ = 0;
  int metrics_listen_fd_ = -1;
  int metrics_port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  std::thread listener_;
  std::thread batcher_;
  std::thread metrics_thread_;
  std::mutex conn_mu_;  // guards readers_
  std::list<Reader> readers_;  // list: a running reader's entry never moves

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;

  std::mutex shutdown_mu_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;

  std::atomic<std::uint64_t> next_req_id_{0};

  // One registry instrument per served quantity (pointers are stable for
  // the process lifetime). The registry is process-global, so Start()
  // zeroes all of them: sequential in-process servers (tests, bench_serve)
  // each count only their own traffic.
  obs::Counter* requests_;
  obs::Counter* batches_;
  obs::Counter* reloads_;
  obs::Counter* slow_requests_;
  obs::Gauge* queue_depth_;  // set under queue_mu_
  obs::Gauge* queue_peak_;   // set under queue_mu_
  obs::Counter* responses_;
  obs::Counter* errors_;
  obs::Counter* rejected_;
  obs::Counter* cache_hits_;
  obs::Counter* cache_misses_;
  obs::Histogram* latency_;
  obs::Histogram* stage_queue_;
  obs::Histogram* stage_batch_;
  obs::Histogram* stage_compute_;
  obs::Histogram* stage_write_;
  obs::Histogram* batch_size_;
};

}  // namespace dlner::serve

#endif  // DLNER_SERVE_SERVER_H_
