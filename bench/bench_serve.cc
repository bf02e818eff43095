// Serving latency benchmark: an open-loop load generator against an
// in-process dlner_serve Server (src/serve/), recording latency vs offered
// load (ROADMAP item 1's "latency-vs-offered-load curve").
//
// A tiny cnn+softmax model is trained in-process and served over real
// localhost sockets. The generator first measures closed-loop capacity
// (one connection, one request in flight), then replays >= 2 open-loop
// points at fixed fractions of that capacity: requests are sent on a fixed
// schedule across several connections regardless of response progress, the
// way real traffic arrives, so queueing delay shows up in the tail instead
// of being absorbed by the sender (closed-loop coordinated omission).
//
// Recorded gauges (dlner-metrics-v1 snapshot, written to --out, default
// BENCH_serve.json, intended to be run from the repo root and committed):
//   bench.serve.capacity_rps            closed-loop sentences/sec ceiling:
//                                       the median of kCapacityWindows
//                                       1-second windows
//   bench.serve.capacity_spread         (max - min) / median of them
//   bench.serve.point<i>.offered_rps    the schedule's request rate
//   bench.serve.point<i>.load_factor    offered_rps / capacity_rps
//   bench.serve.point<i>.p50_us         response latency percentiles
//   bench.serve.point<i>.p99_us           (exact, from sorted samples)
//   bench.serve.point<i>.sentences_per_sec  sustained completion rate
//   bench.serve.point<i>.rejected       429 backpressure rejections
//   bench.serve.point<i>.<stage>_p50_us / _p99_us  server-side stage
//       breakdown for stage in {queue_wait, batch_wait, compute, write},
//       taken as the delta of the server's serve.stage.* histograms across
//       the point, so coordinated-omission effects are attributable: under
//       overload the client-side p99 decomposes into queue-wait vs
//       batch-wait vs compute instead of being a single opaque number.
//   bench.serve.responses_total         total tagged responses, all points
//   bench.hardware_concurrency          cores the host reports
//   bench.simd_isa                      0=scalar 1=avx2 2=avx512
//   serve.*                             the sweep server's own instruments
//
// The whole sweep runs with metrics collection on and request tracing
// enabled at --trace-sample-rate (default 0.01), so the recorded numbers
// include the observability tax a production deployment would pay.
//
// Flags: --out FILE, --duration SECS (per point), --conns N,
//        --loads F1,F2,... (load factors, default 0.5,1.0,2.0,8.0),
//        --trace-sample-rate F (default 0.01)
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench/bench_common.h"
#include "core/flags.h"
#include "core/pipeline.h"
#include "obs/metrics.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "tensor/simd/simd.h"

namespace {

using namespace dlner;

// One benchmark connection: schedule-driven sends, a reader thread that
// timestamps completions.
class BenchConn {
 public:
  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      ::close(fd_);
      fd_ = -1;
      return false;
    }
    return true;
  }
  ~BenchConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool SendLine(const std::string& line) {
    std::string framed = line + "\n";
    std::size_t sent = 0;
    while (sent < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + sent,
                               framed.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  // Reads response lines until EOF, reporting each to `on_line`.
  template <typename Fn>
  void ReadLoop(Fn on_line) {
    std::string buf;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        on_line(buf.substr(0, nl));
        buf.erase(0, nl + 1);
      }
    }
  }

  void CloseWrite() { ::shutdown(fd_, SHUT_WR); }

 private:
  int fd_ = -1;
};

// Server-side stage names, in pipeline order; each has a lifetime
// histogram serve.stage.<name>_us maintained by the server.
constexpr const char* kStages[] = {"queue_wait", "batch_wait", "compute",
                                   "write"};
constexpr int kNumStages = 4;

struct PointResult {
  double offered_rps = 0.0;
  double load_factor = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double sentences_per_sec = 0.0;
  std::int64_t responses = 0;
  std::int64_t rejected = 0;
  // Per-stage server-side percentiles over this point only.
  double stage_p50_us[kNumStages] = {};
  double stage_p99_us[kNumStages] = {};
};

obs::HistogramSnapshot StageSnapshot(int stage) {
  return obs::Metrics::Get()
      .histogram(std::string("serve.stage.") + kStages[stage] + "_us")
      ->Snapshot();
}

// Percentiles of the observations recorded between `before` and `after`.
// min/max are lifetime values (they only clamp the interpolation), which is
// fine: each point's observations dominate its own delta buckets.
void StageDelta(const obs::HistogramSnapshot& before,
                const obs::HistogramSnapshot& after, double* p50_us,
                double* p99_us) {
  obs::HistogramSnapshot d = after;
  d.count -= before.count;
  d.sum -= before.sum;
  for (int b = 0; b < obs::HistogramSnapshot::kBuckets; ++b) {
    d.buckets[b] -= before.buckets[b];
  }
  if (d.count <= 0) {
    *p50_us = 0.0;
    *p99_us = 0.0;
    return;
  }
  *p50_us = d.Percentile(obs::Quantile::P(50));
  *p99_us = d.Percentile(obs::Quantile::P(99));
}

std::int64_t IdOf(const std::string& line) {
  const std::size_t pos = line.find("\"id\":");
  if (pos == std::string::npos) return -1;
  return std::atoll(line.c_str() + pos + 5);
}

double Percentile(std::vector<double>* sorted_inout, obs::Quantile q) {
  if (sorted_inout->empty()) return 0.0;
  std::sort(sorted_inout->begin(), sorted_inout->end());
  const std::size_t idx = std::min(
      sorted_inout->size() - 1,
      static_cast<std::size_t>(q.fraction() *
                               static_cast<double>(sorted_inout->size())));
  return (*sorted_inout)[idx];
}

// Pre-rendered request lines for a sentence pool; ids are assigned at send
// time so every request is unique and traceable.
std::vector<std::string> RequestBodies(const text::Corpus& corpus) {
  std::vector<std::string> bodies;
  for (const auto& s : corpus.sentences) {
    if (s.tokens.empty()) continue;
    std::string body = ",\"tokens\":[";
    for (std::size_t i = 0; i < s.tokens.size(); ++i) {
      if (i > 0) body.push_back(',');
      body += serve::JsonQuote(s.tokens[i]);
    }
    body += "]}";
    bodies.push_back(std::move(body));
  }
  return bodies;
}

// Closed-loop capacity: one connection, one request in flight, ~min_seconds
// of wall clock. The open-loop points are scheduled as fractions of this.
double MeasureCapacity(int port, const std::vector<std::string>& bodies,
                       double min_seconds) {
  BenchConn conn;
  if (!conn.Connect(port)) return 0.0;
  std::atomic<std::int64_t> done{0};
  std::thread reader([&] {
    conn.ReadLoop([&](const std::string&) { done.fetch_add(1); });
  });
  obs::Stopwatch sw;
  std::int64_t sent = 0;
  while (sw.Seconds() < min_seconds) {
    conn.SendLine("{\"id\":" + std::to_string(sent) +
                  bodies[static_cast<std::size_t>(sent) % bodies.size()]);
    ++sent;
    while (done.load() < sent) std::this_thread::yield();
  }
  const double elapsed = sw.Seconds();
  conn.CloseWrite();
  reader.join();
  return static_cast<double>(sent) / elapsed;
}

// One open-loop point: send on a fixed schedule across `n_conns`
// connections for `duration` seconds, then drain.
PointResult RunPoint(int port, const std::vector<std::string>& bodies,
                     double offered_rps, double capacity_rps, double duration,
                     int n_conns) {
  PointResult result;
  result.offered_rps = offered_rps;
  result.load_factor = capacity_rps > 0.0 ? offered_rps / capacity_rps : 0.0;

  obs::HistogramSnapshot stage_before[kNumStages];
  for (int s = 0; s < kNumStages; ++s) stage_before[s] = StageSnapshot(s);

  std::vector<std::unique_ptr<BenchConn>> conns;
  for (int i = 0; i < n_conns; ++i) {
    auto conn = std::make_unique<BenchConn>();
    if (!conn->Connect(port)) return result;
    conns.push_back(std::move(conn));
  }

  std::mutex mu;  // guards send_us and latencies
  std::unordered_map<std::int64_t, std::uint64_t> send_us;
  std::vector<double> latencies;
  std::atomic<std::int64_t> responses{0};
  std::atomic<std::int64_t> rejected{0};

  std::vector<std::thread> readers;
  for (auto& conn : conns) {
    readers.emplace_back([&, c = conn.get()] {
      c->ReadLoop([&](const std::string& line) {
        const std::uint64_t now = obs::NowMicros();
        const std::int64_t id = IdOf(line);
        if (line.find("\"error\"") != std::string::npos) {
          rejected.fetch_add(1);
          return;
        }
        responses.fetch_add(1);
        std::lock_guard<std::mutex> lock(mu);
        const auto it = send_us.find(id);
        if (it != send_us.end()) {
          latencies.push_back(static_cast<double>(now - it->second));
          send_us.erase(it);
        }
      });
    });
  }

  // Open-loop sender: each request goes out at its scheduled time (or as
  // soon as we are able, if the schedule slipped), regardless of how far
  // behind the responses are.
  const double interval_us = 1e6 / offered_rps;
  const std::uint64_t start = obs::NowMicros();
  const std::uint64_t end =
      start + static_cast<std::uint64_t>(duration * 1e6);
  std::int64_t sent = 0;
  for (;;) {
    const std::uint64_t due =
        start + static_cast<std::uint64_t>(static_cast<double>(sent) *
                                           interval_us);
    if (due >= end) break;
    std::uint64_t now = obs::NowMicros();
    while (now < due) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
      now = obs::NowMicros();
    }
    const std::string line =
        "{\"id\":" + std::to_string(sent) +
        bodies[static_cast<std::size_t>(sent) % bodies.size()];
    {
      std::lock_guard<std::mutex> lock(mu);
      send_us[sent] = obs::NowMicros();
    }
    if (!conns[static_cast<std::size_t>(sent) % conns.size()]->SendLine(
            line)) {
      break;
    }
    ++sent;
  }
  const std::uint64_t send_done = obs::NowMicros();

  // Drain: every request must resolve to a response or a rejection.
  while (responses.load() + rejected.load() < sent &&
         obs::NowMicros() - send_done < 30u * 1000u * 1000u) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t drain_done = obs::NowMicros();
  for (auto& conn : conns) conn->CloseWrite();
  for (std::thread& t : readers) t.join();

  result.responses = responses.load();
  result.rejected = rejected.load();
  result.p50_us = Percentile(&latencies, obs::Quantile::P(50));
  result.p99_us = Percentile(&latencies, obs::Quantile::P(99));
  for (int s = 0; s < kNumStages; ++s) {
    StageDelta(stage_before[s], StageSnapshot(s), &result.stage_p50_us[s],
               &result.stage_p99_us[s]);
  }
  const double elapsed = static_cast<double>(drain_done - start) / 1e6;
  result.sentences_per_sec =
      elapsed > 0.0 ? static_cast<double>(result.responses) / elapsed : 0.0;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  core::FlagSpec spec{{"out", core::FlagKind::kValue},
                      {"duration", core::FlagKind::kValue},
                      {"conns", core::FlagKind::kValue},
                      {"loads", core::FlagKind::kValue},
                      {"trace-sample-rate", core::FlagKind::kValue}};
  core::Args args;
  if (!args.Parse(argc, argv, 1, spec)) {
    std::fprintf(stderr, "bench_serve: %s\n", args.error().c_str());
    return 1;
  }
  const std::string out_path = args.Get("out", "BENCH_serve.json");
  const double duration = args.GetDouble("duration", 2.0);
  const int n_conns = args.GetInt("conns", 4);
  const double sample_rate = args.GetDouble("trace-sample-rate", 0.01);
  std::vector<double> loads;
  {
    // Closed-loop capacity runs one request in flight, so every batch holds
    // a single sentence; open loop over several connections coalesces what
    // arrives while a batch computes, so its throughput can exceed 1.0x.
    // The high multiplier probes actual saturation.
    const std::string spec_str = args.Get("loads", "0.5,1.0,2.0,8.0");
    std::size_t pos = 0;
    while (pos < spec_str.size()) {
      std::size_t comma = spec_str.find(',', pos);
      if (comma == std::string::npos) comma = spec_str.size();
      double f = 0.0;
      if (!core::ParseDouble(spec_str.substr(pos, comma - pos), &f) ||
          f <= 0.0) {
        std::fprintf(stderr, "bench_serve: bad --loads entry\n");
        return 1;
      }
      loads.push_back(f);
      pos = comma + 1;
    }
  }

  bench::PrintHeader("Serving latency vs offered load (dlner_serve)");

  // Train and checkpoint a tiny model, then serve it the way dlner_serve
  // does: through a registry-loaded Pipeline.
  const text::Corpus corpus = data::MakeDataset("conll-like", 120, 23);
  core::NerConfig config;
  config.encoder = "cnn";
  config.decoder = "softmax";
  config.word_dim = 16;
  config.hidden_dim = 16;
  config.seed = 7;
  core::TrainConfig tc;
  tc.epochs = 3;
  tc.lr = 0.02;
  const std::string model_path = "/tmp/bench_serve_model.bin";
  core::Pipeline::Train(config, tc, corpus, nullptr, corpus.EntityTypes())
      ->Save(model_path);

  serve::ModelRegistry registry;
  if (!registry.Load("default", model_path)) {
    std::fprintf(stderr, "bench_serve: cannot load %s\n", model_path.c_str());
    return 1;
  }
  serve::ServeConfig serve_config;
  serve_config.cache_capacity = 0;  // measure inference, not memoization
  serve_config.trace_sample_rate = sample_rate;
  // The sweep pays the production observability tax: metrics collection on
  // (feeds the serve.stage.* histograms the breakdown is read from) and
  // request tracing sampled at serve_config.trace_sample_rate.
  obs::EnableMetrics(true);
  obs::EnableTracing(sample_rate > 0.0);
  serve::Server server(&registry, serve_config);
  if (!server.Start()) {
    std::fprintf(stderr, "bench_serve: cannot start server\n");
    return 1;
  }

  // One window can land on a disturbed second and misplace every load
  // point, so capacity is the median of several.
  constexpr int kCapacityWindows = 5;
  const std::vector<std::string> bodies = RequestBodies(corpus);
  std::vector<double> windows;
  for (int i = 0; i < kCapacityWindows; ++i) {
    windows.push_back(MeasureCapacity(server.port(), bodies, 1.0));
  }
  const bench::RunStats capacity_stats = bench::Summarize(windows);
  const double capacity = capacity_stats.median;
  std::printf("closed-loop capacity: %.1f req/s (spread %.1f%% over %d "
              "windows)\n\n",
              capacity, 100.0 * capacity_stats.spread, kCapacityWindows);
  if (capacity <= 0.0) {
    std::fprintf(stderr, "bench_serve: capacity measurement failed\n");
    return 1;
  }

  std::printf("%-8s %12s %10s %10s %12s %9s\n", "load", "offered_rps",
              "p50_ms", "p99_ms", "sent/s", "rejected");
  std::vector<PointResult> points;
  for (const double f : loads) {
    PointResult r = RunPoint(server.port(), bodies, f * capacity, capacity,
                             duration, n_conns);
    std::printf("%-8.2f %12.1f %10.2f %10.2f %12.1f %9lld\n", f,
                r.offered_rps, r.p50_us / 1e3, r.p99_us / 1e3,
                r.sentences_per_sec, static_cast<long long>(r.rejected));
    std::printf("         server stage p99 (ms): queue %.2f  batch %.2f  "
                "compute %.2f  write %.2f\n",
                r.stage_p99_us[0] / 1e3, r.stage_p99_us[1] / 1e3,
                r.stage_p99_us[2] / 1e3, r.stage_p99_us[3] / 1e3);
    points.push_back(r);
  }
  server.Stop();

  obs::Metrics& m = obs::Metrics::Get();
  m.gauge("bench.hardware_concurrency")
      ->Set(static_cast<double>(std::thread::hardware_concurrency()));
  m.gauge("bench.simd_isa")->Set(static_cast<double>(simd::kIsaId));
  m.gauge("bench.serve.capacity_rps")->Set(capacity);
  m.gauge("bench.serve.capacity_spread")->Set(capacity_stats.spread);
  m.gauge("bench.serve.trace_sample_rate")->Set(sample_rate);
  m.gauge("bench.serve.load_points")
      ->Set(static_cast<double>(points.size()));
  std::int64_t total_responses = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const PointResult& r = points[i];
    const std::string prefix = "bench.serve.point" + std::to_string(i) + ".";
    m.gauge(prefix + "offered_rps")->Set(r.offered_rps);
    m.gauge(prefix + "load_factor")->Set(r.load_factor);
    m.gauge(prefix + "p50_us")->Set(r.p50_us);
    m.gauge(prefix + "p99_us")->Set(r.p99_us);
    m.gauge(prefix + "sentences_per_sec")->Set(r.sentences_per_sec);
    m.gauge(prefix + "rejected")->Set(static_cast<double>(r.rejected));
    for (int s = 0; s < kNumStages; ++s) {
      m.gauge(prefix + kStages[s] + "_p50_us")->Set(r.stage_p50_us[s]);
      m.gauge(prefix + kStages[s] + "_p99_us")->Set(r.stage_p99_us[s]);
    }
    total_responses += r.responses;
  }
  m.gauge("bench.serve.responses_total")
      ->Set(static_cast<double>(total_responses));
  server.PublishMetrics();
  if (!m.WriteJson(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
