#include "serve/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "plan/plan.h"
#include "stream/entity_memory.h"

namespace dlner::serve {

// One client connection. The fd is shared between the reader thread and
// any queued requests still owed a response; it is shut down (not closed)
// to unblock reads, and closed only when the last reference drops, so a
// half-closed client still receives every response it is owed.
struct Server::Conn {
  explicit Conn(int fd_in) : fd(fd_in) {}
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }

  const int fd;
  std::mutex write_mu;  // serializes response lines
  std::atomic<bool> dead{false};

  // Document state for "doc":true requests: the connection IS the document.
  // Lives on the connection (not the model entry), so a hot reload
  // mid-document swaps the model without touching accumulated entity
  // votes. Guarded by doc_mu; the single batcher thread executes batches
  // sequentially, so per-connection request order is preserved.
  std::mutex doc_mu;
  stream::EntityMemory doc_memory;
};

namespace {

// The lifetime counter serve.model.<model>.<what>_total, so multi-model
// servers keep a per-model breakdown.
obs::Counter* ModelCounter(const std::string& model, const char* what) {
  return obs::Metrics::Get().counter("serve.model." + model + "." + what +
                                     "_total");
}

// splitmix64: maps a request id to a well-mixed 64-bit value so the
// sampling decision is uniform over [0,1) yet deterministic per id.
std::uint64_t Mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// Opens a TCP socket listening on host:port (port 0 binds an ephemeral
// port) and stores the bound port in *bound_port. On failure it logs
// serve_socket_failed, serve_bad_host, or `bind_failed_event` when bind or
// listen fails, and returns -1.
int OpenListener(const std::string& host, int port, int backlog,
                 const char* bind_failed_event, int* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    obs::ForceLog(obs::LogLevel::kError, "serve_socket_failed",
                  {{"errno", std::strerror(errno)}});
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    obs::ForceLog(obs::LogLevel::kError, "serve_bad_host", {{"host", host}});
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    obs::ForceLog(obs::LogLevel::kError, bind_failed_event,
                  {{"host", host},
                   {"port", port},
                   {"errno", std::strerror(errno)}});
    ::close(fd);
    return -1;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);
  return fd;
}

}  // namespace

Server::Server(ModelRegistry* registry, const ServeConfig& config)
    : registry_(registry),
      config_(config),
      metrics_always_(config.metrics_port >= 0),
      cache_(config.cache_capacity) {
  obs::Metrics& m = obs::Metrics::Get();
  requests_ = m.counter("serve.requests_total");
  batches_ = m.counter("serve.batches_total");
  reloads_ = m.counter("serve.reloads_total");
  slow_requests_ = m.counter("serve.slow_requests_total");
  queue_depth_ = m.gauge("serve.queue.depth");
  queue_peak_ = m.gauge("serve.queue.peak_depth");
  responses_ = m.counter("serve.responses_total");
  errors_ = m.counter("serve.errors_total");
  rejected_ = m.counter("serve.rejected_total");
  cache_hits_ = m.counter("serve.cache.hits");
  cache_misses_ = m.counter("serve.cache.misses");
  latency_ = m.histogram("serve.request.latency_us");
  stage_queue_ = m.histogram("serve.stage.queue_wait_us");
  stage_batch_ = m.histogram("serve.stage.batch_wait_us");
  stage_compute_ = m.histogram("serve.stage.compute_us");
  stage_write_ = m.histogram("serve.stage.write_us");
  batch_size_ = m.histogram("serve.batch.size");
}

Server::~Server() { Stop(); }

bool Server::Start() {
  listen_fd_ = OpenListener(config_.host, config_.port, 64,
                            "serve_bind_failed", &port_);
  if (listen_fd_ < 0) return false;

  // The serve.* instruments are registry-global; zero them so this server's
  // counts start from its own traffic (sequential in-process servers in
  // tests and bench_serve would otherwise bleed into each other).
  for (obs::Counter* c : {requests_, batches_, reloads_, slow_requests_,
                          responses_, errors_, rejected_, cache_hits_,
                          cache_misses_}) {
    c->Reset();
  }
  queue_depth_->Reset();
  queue_peak_->Reset();
  for (obs::Histogram* h : {latency_, stage_queue_, stage_batch_,
                            stage_compute_, stage_write_, batch_size_}) {
    h->Reset();
  }

  if (config_.metrics_port >= 0 && !StartMetricsListener()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }

  started_.store(true);
  listener_ = std::thread([this] { AcceptLoop(); });
  batcher_ = std::thread([this] { BatchLoop(); });
  obs::Log(obs::LogLevel::kInfo, "serve_started",
           {{"host", config_.host}, {"port", port_}});
  return true;
}

bool Server::StartMetricsListener() {
  metrics_listen_fd_ = OpenListener(config_.host, config_.metrics_port, 16,
                                    "serve_metrics_bind_failed",
                                    &metrics_port_);
  if (metrics_listen_fd_ < 0) return false;
  metrics_thread_ = std::thread([this] { MetricsLoop(); });
  obs::Log(obs::LogLevel::kInfo, "serve_metrics_listening",
           {{"host", config_.host}, {"port", metrics_port_}});
  return true;
}

void Server::MetricsLoop() {
  // Deliberately minimal HTTP: read whatever request head arrives, answer
  // one HTTP/1.0 response with the exposition, close. Prometheus and curl
  // are both happy with this, and there is no second protocol to fuzz.
  for (;;) {
    const int fd = ::accept(metrics_listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;
    }
    char discard[1024];
    (void)::recv(fd, discard, sizeof(discard), 0);
    const std::string body = ScrapeText();
    std::string resp =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) + "\r\nConnection: close\r\n\r\n" + body;
    std::size_t off = 0;
    while (off < resp.size()) {
      const ssize_t n = ::send(fd, resp.data() + off, resp.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<std::size_t>(n);
    }
    ::shutdown(fd, SHUT_RDWR);
    ::close(fd);
  }
}

std::string Server::ScrapeText() const {
  PublishMetrics();  // fold the derived gauges in first
  std::ostringstream os;
  obs::Metrics::Get().WritePrometheus(os);
  return os.str();
}

void Server::AcceptLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR) continue;
      return;  // listen socket gone
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Conn>(fd);
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_.load()) {
      ::shutdown(fd, SHUT_RDWR);
      return;
    }
    // Reap readers whose connection has ended: their threads have
    // returned (or are returning), so the join is immediate.
    for (auto it = readers_.begin(); it != readers_.end();) {
      if (!it->done.load()) {
        ++it;
        continue;
      }
      it->thread.join();
      it = readers_.erase(it);
    }
    Reader& reader = readers_.emplace_back();
    reader.conn = conn;
    reader.thread = std::thread([this, conn, &reader] {
      ConnLoop(conn);
      reader.done.store(true);
    });
  }
}

void Server::ConnLoop(std::shared_ptr<Conn> conn) {
  obs::ScopedSpan span("serve/conn");
  std::string buf;
  char chunk[4096];
  bool discarding = false;  // inside an oversized line, drop to next newline
  for (;;) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF or error: pending responses still drain
    buf.append(chunk, static_cast<std::size_t>(n));
    if (discarding) {
      const std::size_t pos = buf.find('\n');
      if (pos == std::string::npos) {
        buf.clear();
        continue;
      }
      buf.erase(0, pos + 1);
      discarding = false;
    }
    std::size_t pos;
    while ((pos = buf.find('\n')) != std::string::npos) {
      std::string line = buf.substr(0, pos);
      buf.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      if (line.size() > config_.max_line_bytes) {
        errors_->Add();
        WriteLine(conn, ErrorResponse(false, 0, kTooLarge,
                                      "request line too long"));
        continue;
      }
      HandleLine(conn, line);
    }
    if (buf.size() > config_.max_line_bytes) {
      errors_->Add();
      WriteLine(conn,
                ErrorResponse(false, 0, kTooLarge, "request line too long"));
      buf.clear();
      discarding = true;
    }
  }
}

bool Server::SampleTrace(std::uint64_t req_id) const {
  if (!obs::TracingEnabled()) return false;
  const double rate = config_.trace_sample_rate;
  if (rate >= 1.0) return true;
  if (rate <= 0.0) return false;
  // Top 53 bits of the hash as a uniform double in [0,1).
  const double u =
      static_cast<double>(Mix64(req_id) >> 11) * 0x1.0p-53;
  return u < rate;
}

void Server::HandleLine(const std::shared_ptr<Conn>& conn,
                        const std::string& line) {
  obs::ScopedSpan span("serve/ingest");
  requests_->Add();
  const std::uint64_t arrival_us = obs::NowMicros();

  Request req;
  std::string error;
  int code = 0;
  if (!ParseRequest(line, &req, &error, &code)) {
    errors_->Add();
    WriteLine(conn, ErrorResponse(req.has_id, req.id, code, error));
    return;
  }
  if (req.kind == Request::Kind::kAdmin) {
    HandleAdmin(conn, req);
    return;
  }

  // Every accepted tagging request gets a process-unique 64-bit id; it
  // threads through the queue, batcher, and response so the request's
  // lifecycle reconstructs from its stage spans and slow-request log line.
  const std::uint64_t req_id = next_req_id_.fetch_add(1) + 1;
  const bool sampled = SampleTrace(req_id);
  const bool collect = CollectMetrics();
  if (collect) ModelCounter(req.model, "requests")->Add();

  const ModelRegistry::Entry entry = registry_->Get(req.model);
  if (entry.pipeline == nullptr) {
    errors_->Add();
    if (collect) ModelCounter(req.model, "errors")->Add();
    WriteLine(conn, ErrorResponse(req.has_id, req.id, kUnknownModel,
                                  "unknown model \"" + req.model + "\""));
    return;
  }
  if (static_cast<int>(req.tokens.size()) > config_.max_tokens) {
    errors_->Add();
    if (collect) ModelCounter(req.model, "errors")->Add();
    WriteLine(conn, ErrorResponse(req.has_id, req.id, kTooLarge,
                                  "too many tokens (max " +
                                      std::to_string(config_.max_tokens) +
                                      ")"));
    return;
  }
  // Answers without the batcher (an empty sentence or a cache hit): every
  // stage but write collapses onto the arrival instant.
  const auto respond_inline = [&](bool cached, const std::string& payload) {
    const Pending p{conn, std::move(req), arrival_us, req_id, sampled};
    StageTimes t;
    t.arrival_us = t.queue_end_us = t.batch_end_us = arrival_us;
    t.compute_start_us = t.compute_end_us = arrival_us;
    responses_->Add();
    t.write_start_us = obs::NowMicros();
    WriteLine(conn, TagResponse(p.request, cached, payload));
    t.write_end_us = obs::NowMicros();
    FinishTagRequest(p, p.request.model, cached, t);
  };
  if (req.tokens.empty()) {
    // Nothing to tag (the plan requires non-empty sentences, and the eager
    // path short-circuits identically).
    respond_inline(/*cached=*/false, TagPayload({}, {}));
    return;
  }

  // Document requests never consult the cache: their answer depends on the
  // connection's entity memory, not just (model, generation, tokens).
  if (!req.doc) {
    const std::string key =
        LruCache::Key(req.model, entry.generation, req.tokens);
    std::string payload;
    if (cache_.Get(key, &payload)) {
      cache_hits_->Add();
      respond_inline(/*cached=*/true, payload);
      return;
    }
    cache_misses_->Add();
  }

  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (stopping_.load()) {
      rejected_->Add();
      WriteLine(conn, ErrorResponse(req.has_id, req.id, kShuttingDown,
                                    "server is shutting down"));
      return;
    }
    if (static_cast<int>(queue_.size()) >= config_.queue_capacity) {
      rejected_->Add();
      WriteLine(conn, ErrorResponse(req.has_id, req.id, kQueueFull,
                                    "admission queue full"));
      return;
    }
    queue_.push_back(Pending{conn, std::move(req), arrival_us, req_id,
                             sampled});
    const auto depth = static_cast<double>(queue_.size());
    queue_depth_->Set(depth);
    queue_peak_->SetMax(depth);
  }
  queue_cv_.notify_one();
}

void Server::FinishTagRequest(const Pending& pending, const std::string& model,
                              bool cached, const StageTimes& t) {
  const auto stage = [](std::uint64_t from, std::uint64_t to) {
    return to >= from ? to - from : 0;
  };
  const std::uint64_t queue_wait = stage(t.arrival_us, t.queue_end_us);
  const std::uint64_t batch_wait = stage(t.queue_end_us, t.batch_end_us);
  const std::uint64_t compute = stage(t.compute_start_us, t.compute_end_us);
  const std::uint64_t write = stage(t.write_start_us, t.write_end_us);
  const std::uint64_t total = stage(t.arrival_us, t.write_end_us);

  if (CollectMetrics()) {
    latency_->Observe(static_cast<double>(total));
    stage_queue_->Observe(static_cast<double>(queue_wait));
    stage_batch_->Observe(static_cast<double>(batch_wait));
    stage_compute_->Observe(static_cast<double>(compute));
    stage_write_->Observe(static_cast<double>(write));
  }

  if (pending.sampled && obs::TracingEnabled()) {
    obs::Tracer& tracer = obs::Tracer::Get();
    const std::string req = "\"req\":" + std::to_string(pending.req_id);
    tracer.Record("serve/request", t.arrival_us, t.write_end_us,
                  req + ",\"model\":" + JsonQuote(model) +
                      ",\"cached\":" + (cached ? "true" : "false") +
                      (pending.request.doc ? ",\"doc\":true" : ""));
    if (!cached) {
      tracer.Record("serve/stage/queue_wait", t.arrival_us, t.queue_end_us,
                    req);
      tracer.Record("serve/stage/batch_wait", t.queue_end_us, t.batch_end_us,
                    req);
      tracer.Record("serve/stage/compute", t.compute_start_us,
                    t.compute_end_us, req);
    }
    tracer.Record("serve/stage/write", t.write_start_us, t.write_end_us, req);
  }

  if (config_.slow_request_us > 0 &&
      total >= static_cast<std::uint64_t>(config_.slow_request_us)) {
    slow_requests_->Add();
    obs::Log(obs::LogLevel::kWarn, "serve_slow_request",
             {{"req", static_cast<std::int64_t>(pending.req_id)},
              {"model", model},
              {"total_us", static_cast<std::int64_t>(total)},
              {"queue_wait_us", static_cast<std::int64_t>(queue_wait)},
              {"batch_wait_us", static_cast<std::int64_t>(batch_wait)},
              {"compute_us", static_cast<std::int64_t>(compute)},
              {"write_us", static_cast<std::int64_t>(write)},
              {"tokens", static_cast<std::int64_t>(
                             pending.request.tokens.size())},
              {"cached", cached},
              {"doc", pending.request.doc}});
  }
}

void Server::HandleAdmin(const std::shared_ptr<Conn>& conn,
                         const Request& req) {
  const std::string id_prefix =
      req.has_id ? "\"id\":" + std::to_string(req.id) + "," : "";
  if (req.cmd == "reload") {
    if (!registry_->Load(req.model, req.path)) {
      errors_->Add();
      WriteLine(conn, ErrorResponse(req.has_id, req.id, kInternal,
                                    "cannot load checkpoint \"" + req.path +
                                        "\""));
      return;
    }
    reloads_->Add();
    const ModelRegistry::Entry entry = registry_->Get(req.model);
    obs::Log(obs::LogLevel::kInfo, "serve_reloaded",
             {{"model", req.model},
              {"generation", static_cast<std::int64_t>(entry.generation)}});
    WriteLine(conn, "{" + id_prefix + "\"ok\":true,\"model\":" +
                        JsonQuote(req.model) + ",\"generation\":" +
                        std::to_string(entry.generation) + "}");
    return;
  }
  if (req.cmd == "models") {
    std::string out = "{" + id_prefix + "\"models\":[";
    bool first = true;
    for (const std::string& name : registry_->Names()) {
      if (!first) out.push_back(',');
      first = false;
      out += JsonQuote(name);
    }
    out += "]}";
    WriteLine(conn, out);
    return;
  }
  if (req.cmd == "stats") {
    std::size_t depth;
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      depth = queue_.size();
    }
    WriteLine(conn,
              "{" + id_prefix + "\"requests\":" +
                  std::to_string(requests_total()) + ",\"responses\":" +
                  std::to_string(responses_total()) + ",\"rejected\":" +
                  std::to_string(rejected_total()) + ",\"errors\":" +
                  std::to_string(errors_total()) + ",\"cache_hits\":" +
                  std::to_string(cache_hits()) + ",\"cache_misses\":" +
                  std::to_string(cache_misses()) + ",\"batches\":" +
                  std::to_string(batches_total()) + ",\"queue_depth\":" +
                  std::to_string(depth) + "}");
    return;
  }
  if (req.cmd == "metrics") {
    // The same exposition the --metrics-port scrape serves, carried as a
    // JSON string so it works over the NDJSON socket without a second
    // listener.
    WriteLine(conn,
              "{" + id_prefix + "\"metrics\":" + JsonQuote(ScrapeText()) +
                  "}");
    return;
  }
  // shutdown: acknowledge, then wake Wait() so the owning thread can run
  // the graceful Stop() (a connection thread must not join itself).
  WriteLine(conn, "{" + id_prefix + "\"ok\":true}");
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

void Server::BatchLoop() {
  for (;;) {
    std::vector<Pending> batch;
    std::uint64_t collect_start_us = 0;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_.load() || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, and everything is drained
      // Work-conserving: the batcher is idle, so it runs what is queued now
      // instead of waiting for more. Requests that arrive while this batch
      // computes form the next one. Time before this point was queue_wait
      // (head-of-line blocking behind the previous batch); the pop below is
      // batch_wait.
      collect_start_us = obs::NowMicros();
      const std::string model = queue_.front().request.model;
      for (auto it = queue_.begin();
           it != queue_.end() &&
           static_cast<std::int64_t>(batch.size()) < plan::kMicroBatch;) {
        if (it->request.model == model) {
          batch.push_back(std::move(*it));
          it = queue_.erase(it);
        } else {
          ++it;
        }
      }
      queue_depth_->Set(static_cast<double>(queue_.size()));
    }
    ExecuteBatch(std::move(batch), collect_start_us, obs::NowMicros());
  }
}

void Server::ExecuteBatch(std::vector<Pending> batch,
                          std::uint64_t collect_start_us,
                          std::uint64_t collect_end_us) {
  const std::int64_t batch_id = batches_->Add();
  obs::ScopedSpan span("serve/batch");
  span.Annotate("batch", batch_id);
  if (obs::TracingEnabled()) {
    std::string reqs = "[";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i > 0) reqs.push_back(',');
      reqs += std::to_string(batch[i].req_id);
    }
    reqs.push_back(']');
    span.Annotate("reqs", reqs);
  }
  if (CollectMetrics()) batch_size_->Observe(static_cast<double>(batch.size()));

  const std::string& model = batch.front().request.model;
  // Resolve the pipeline at execution time: requests queued before a hot
  // reload are served by the new model, and the shared_ptr keeps whichever
  // pipeline we picked alive for the whole batch. HandleLine admits only
  // known models and the registry never removes one, so the entry exists.
  const ModelRegistry::Entry entry = registry_->Get(model);
  DLNER_CHECK(entry.pipeline != nullptr);

  text::Corpus corpus;
  corpus.sentences.resize(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    corpus.sentences[i].tokens = batch[i].request.tokens;
  }
  // The compiled-plan corpus path (packed ragged micro-batches, arena
  // buffers) — the same code `dlner tag --in` runs, so served responses
  // are bit-identical to the batch CLI. The batch id becomes the trace
  // context for the duration, so plan/batch spans (on this thread and on
  // ParallelFor helpers) carry "ctx":<batch id> and attribute to this
  // serve/batch span's request ids.
  const std::uint64_t compute_start_us = obs::NowMicros();
  std::vector<std::vector<text::Span>> spans;
  {
    obs::ScopedTraceContext trace_ctx(static_cast<std::uint64_t>(batch_id));
    spans = entry.pipeline->TagCorpus(corpus);
  }
  const std::uint64_t compute_end_us = obs::NowMicros();

  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Pending& p = batch[i];
    StageTimes t;
    t.arrival_us = p.arrival_us;
    // Every request in the batch was queued before the pop began, so
    // arrival <= collect_start <= collect_end; the clamp keeps the stage
    // boundaries ordered even if that ever stops holding.
    t.queue_end_us = std::clamp(collect_start_us, p.arrival_us,
                                collect_end_us);
    t.batch_end_us = collect_end_us;
    t.compute_start_us = compute_start_us;
    t.compute_end_us = compute_end_us;
    t.write_start_us = obs::NowMicros();
    if (p.request.doc) {
      // Fold this sentence through the connection's document state, in
      // batch (= per-connection arrival) order. Doc responses are not
      // cached: they are functions of connection state.
      std::lock_guard<std::mutex> lock(p.conn->doc_mu);
      p.conn->doc_memory.Apply(p.request.tokens, &spans[i]);
      p.conn->doc_memory.Observe(p.request.tokens, spans[i]);
    }
    const std::string payload = TagPayload(p.request.tokens, spans[i]);
    if (!p.request.doc) {
      cache_.Put(LruCache::Key(model, entry.generation, p.request.tokens),
                 payload);
    }
    responses_->Add();
    WriteLine(p.conn, TagResponse(p.request, false, payload));
    t.write_end_us = obs::NowMicros();
    FinishTagRequest(p, model, /*cached=*/false, t);
  }
}

void Server::WriteLine(const std::shared_ptr<Conn>& conn,
                       const std::string& line) {
  if (conn->dead.load()) return;
  std::lock_guard<std::mutex> lock(conn->write_mu);
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    // MSG_NOSIGNAL: a half-closed or gone client must surface as an error
    // return, not a process-killing SIGPIPE.
    const ssize_t n = ::send(conn->fd, framed.data() + off, framed.size() - off,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      conn->dead.store(true);
      return;
    }
    off += static_cast<std::size_t>(n);
  }
}

void Server::Wait(const std::atomic<bool>* interrupted) {
  std::unique_lock<std::mutex> lock(shutdown_mu_);
  for (;;) {
    if (shutdown_requested_ || stopping_.load()) return;
    if (interrupted != nullptr && interrupted->load()) return;
    shutdown_cv_.wait_for(lock, std::chrono::milliseconds(200));
  }
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  if (!started_.load()) return;
  // 1. Refuse new connections and wake the listener out of accept(); the
  //    fd is closed only after the join so its number cannot be reused
  //    under a racing accept().
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (listener_.joinable()) listener_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // 2. Drain the batcher: stopping_ is set, so readers now reject new
  //    requests with 503 while everything already admitted is answered.
  queue_cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
  // 2b. Take down the metrics scrape listener (same shutdown-then-join
  //     discipline as the main listener).
  if (metrics_listen_fd_ >= 0) ::shutdown(metrics_listen_fd_, SHUT_RDWR);
  if (metrics_thread_.joinable()) metrics_thread_.join();
  if (metrics_listen_fd_ >= 0) {
    ::close(metrics_listen_fd_);
    metrics_listen_fd_ = -1;
  }
  // 3. Unblock and join the connection readers.
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (const Reader& reader : readers_) {
      if (const std::shared_ptr<Conn> conn = reader.conn.lock()) {
        ::shutdown(conn->fd, SHUT_RDWR);
      }
    }
  }
  for (Reader& reader : readers_) {
    if (reader.thread.joinable()) reader.thread.join();
  }
  {
    std::lock_guard<std::mutex> lock(shutdown_mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
  obs::Log(obs::LogLevel::kInfo, "serve_stopped",
           {{"responses", responses_total()}});
}

void Server::PublishMetrics() const {
  obs::Metrics& m = obs::Metrics::Get();
  m.gauge("serve.cache.size")->Set(static_cast<double>(cache_.size()));
  obs::PublishTraceMetrics();
}

}  // namespace dlner::serve
