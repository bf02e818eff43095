#include "perf/workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <memory>
#include <thread>

#include "core/pipeline.h"
#include "eval/metrics.h"
#include "obs/obs.h"
#include "perf/client.h"
#include "perf/inputs.h"
#include "perf/layers.h"
#include "perf/result.h"
#include "perf/server_proc.h"
#include "perf/spans.h"
#include "perf/stats.h"
#include "runtime/runtime.h"
#include "serve/protocol.h"
#include "stream/entity_memory.h"
#include "tensor/simd/simd.h"

namespace perf {

namespace {

using namespace dlner;

// --- Workloads (why each one: perf/README.md) -------------------------------

enum class Loop { kOpen, kClosed, kOffline };

struct Workload {
  const char* name;
  Loop loop;
  // Open loop: the offered rate. A constant of the workload, never scaled
  // to a capacity measured in the same run, so every run offers the same
  // load.
  double rate_per_s;
  // Closed loop: requests kept outstanding per connection.
  int window;
  // Zipf-drawn stateless requests, doc streams and periodic reloads.
  bool mixed;
};

constexpr Workload kWorkloads[] = {
    {"serve_light", Loop::kOpen, 200.0, 0, false},
    {"serve_saturate", Loop::kClosed, 0.0, 8, false},
    {"serve_mixed", Loop::kOpen, 600.0, 0, true},
    {"offline_corpus", Loop::kOffline, 0.0, 0, false},
};

constexpr int kConns = 4;           // data connections (nproc on the host)
constexpr int kAdminConn = kConns;  // serve_mixed's reloads use a fifth
constexpr int kDocConns = 2;        // serve_mixed streams documents on 0, 1
constexpr std::int64_t kWarmUs = 1'000'000;  // sent, checked, not measured
constexpr std::int64_t kDrainUs = 20'000'000;
constexpr int kSetupRepeats = 21;
// More distinct sentences than the server's 4096 cache entries, so cycling
// through the pool never hits the cache.
constexpr std::size_t kSaturatePool = 16384;
// About a fifth of serve_mixed's requests hit the cache (a quarter of the
// stateless ones; the doc quarter never does), so its median lies well inside
// the uncached requests rather than in the gap between the two modes.
constexpr std::size_t kMixedPool = 10000;
constexpr double kZipfS = 0.8;
constexpr std::int64_t kReloadPeriodUs = 2'500'000;
constexpr std::size_t kOfflineSentences = 16384;
// Offline tags its corpus as TagCorpus calls of this many sentences: 8
// plan micro-batches, two per core at nproc = 4.
constexpr std::size_t kOfflineJob = 128;
// Closed-loop and offline throughput is the median of the rates of these
// sub-windows, so a second in which a neighbour on the host steals the
// CPU does not move it.
constexpr std::int64_t kSubWindowUs = 1'000'000;
constexpr int kParts = 6;

// Independent input streams derived from one workload seed.
enum Stream : std::uint64_t {
  kArrivalStream = 1,
  kPoolStream,
  kZipfStream,
  kDocStream,  // + connection index
  kOfflineStream = kDocStream + kDocConns,
  kPartStream,  // + part index
};

// The warm-up request that ends setup. Not a generator sentence, so it
// never turns a pool request into a cache hit.
const std::vector<std::string>& SetupTokens() {
  static const std::vector<std::string> tokens = {
      "Setup", "check", ":", "Anna", "Kowalski", "arrived", "in", "Lyon",
      "."};
  return tokens;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// --- Traffic ----------------------------------------------------------------

enum class Kind { kStateless, kDoc, kAdmin };

struct Traffic {
  text::Corpus sentences;  // what tagging requests carry, with gold spans
  std::vector<std::vector<text::Span>> ref;  // in-process TagCorpus of them
  std::vector<Call> calls;
  std::vector<Kind> kind;     // per call
  std::vector<int> sentence;  // per call; -1 for admin calls
  std::int64_t start_us = 0;
  std::int64_t measure_us = 0;  // window: [start + warm, + measure)

  bool InWindow(std::int64_t t) const {
    return t >= start_us + kWarmUs && t < start_us + kWarmUs + measure_us;
  }
  void Add(Kind k, int s, int conn, std::int64_t due, std::string line) {
    Call call;
    call.conn = conn;
    call.due_us = due;
    call.line = std::move(line);
    calls.push_back(std::move(call));
    kind.push_back(k);
    sentence.push_back(s);
  }
};

// serve_mixed's document streams: entity_consistency documents, one stream
// per doc connection, long enough for `requests` doc requests each.
std::vector<text::Corpus> DocStreams(std::uint64_t seed, std::size_t requests) {
  std::vector<text::Corpus> streams;
  for (int c = 0; c < kDocConns; ++c) {
    streams.push_back(ConsistencyDocs(StreamSeed(seed, kDocStream + c),
                                      static_cast<int>(requests / 5 + 2)));
  }
  return streams;
}

// Open-loop traffic with due times relative to the start of the run.
Traffic OpenTraffic(const Workload& w, std::uint64_t seed,
                    std::int64_t measure_us, const std::string& model_path) {
  Traffic t;
  t.measure_us = measure_us;
  const std::vector<std::int64_t> arrivals = PoissonArrivals(
      StreamSeed(seed, kArrivalStream), w.rate_per_s, kWarmUs + measure_us);
  if (!w.mixed) {
    // Every request carries a different sentence: the cache never hits.
    t.sentences =
        DistinctSentences(StreamSeed(seed, kPoolStream),
                          static_cast<int>(arrivals.size()));
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
      t.Add(Kind::kStateless, static_cast<int>(i), static_cast<int>(i % kConns),
            arrivals[i],
            TagLine(static_cast<std::int64_t>(i),
                    t.sentences.sentences[i].tokens, false));
    }
    return t;
  }
  t.sentences =
      DistinctSentences(StreamSeed(seed, kPoolStream), static_cast<int>(kMixedPool));
  // Arrival i goes to connection i % 4; on the two doc connections every
  // other request is the next sentence of that connection's documents.
  const std::vector<text::Corpus> streams =
      DocStreams(seed, arrivals.size() / (2 * kConns) + 2);
  std::vector<int> doc_base, doc_next(kDocConns, 0);
  for (const text::Corpus& s : streams) {
    doc_base.push_back(t.sentences.size());
    t.sentences.sentences.insert(t.sentences.sentences.end(),
                                 s.sentences.begin(), s.sentences.end());
  }
  const ZipfSampler zipf(kMixedPool, kZipfS);
  Rng rng(StreamSeed(seed, kZipfStream));
  std::int64_t next_reload = kReloadPeriodUs / 2;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    while (next_reload <= arrivals[i]) {
      t.Add(Kind::kAdmin, -1, kAdminConn, next_reload,
            ReloadLine(static_cast<std::int64_t>(t.calls.size()), model_path));
      next_reload += kReloadPeriodUs;
    }
    const int conn = static_cast<int>(i % kConns);
    const auto id = static_cast<std::int64_t>(t.calls.size());
    if (conn < kDocConns && (i / kConns) % 2 == 0) {
      const int s = doc_base[static_cast<std::size_t>(conn)] +
                    doc_next[static_cast<std::size_t>(conn)]++ %
                        streams[static_cast<std::size_t>(conn)].size();
      t.Add(Kind::kDoc, s, conn, arrivals[i],
            TagLine(id, t.sentences.sentences[static_cast<std::size_t>(s)].tokens,
                    true));
    } else {
      const int s = static_cast<int>(zipf.Sample(&rng));
      t.Add(Kind::kStateless, s, conn, arrivals[i],
            TagLine(id, t.sentences.sentences[static_cast<std::size_t>(s)].tokens,
                    false));
    }
  }
  return t;
}

void DriveOpen(int port, Traffic* t, int n_conns) {
  LoadClient client;
  if (!client.Connect(port, n_conns)) return;  // every call reads as failed
  t->start_us = NowUs() + 10'000;
  for (Call& c : t->calls) c.due_us += t->start_us;
  client.RunOpen(&t->calls,
                 t->start_us + kWarmUs + t->measure_us + kDrainUs);
}

// Closed loop over `pool` (cycled): traffic is made as responses arrive.
void DriveClosed(int port, int window, const text::Corpus& pool,
                 std::int64_t measure_us, Traffic* t) {
  t->measure_us = measure_us;
  t->sentences = pool;
  LoadClient client;
  if (!client.Connect(port, kConns)) return;
  t->start_us = NowUs();
  const std::int64_t stop = t->start_us + kWarmUs + measure_us;
  client.RunClosed(
      window, stop, stop + kDrainUs,
      [&](int, std::int64_t id) {
        return TagLine(id,
                       pool.sentences[static_cast<std::size_t>(id) %
                                      pool.sentences.size()]
                           .tokens,
                       false);
      },
      &t->calls);
  for (std::size_t i = 0; i < t->calls.size(); ++i) {
    t->kind.push_back(Kind::kStateless);
    t->sentence.push_back(static_cast<int>(i % pool.sentences.size()));
  }
}

// Checks every response: stateless ones byte-equal to the in-process
// TagCorpus of the same tokens, cached or not (so a cached payload equals
// the uncached one), doc ones equal to a per-connection EntityMemory
// Apply -> Observe replay in send order. Errors and missing responses
// count as failed. Returns the served spans per call (empty when failed).
std::vector<std::vector<text::Span>> CheckCalls(const Traffic& t,
                                                std::vector<bool>* ok,
                                                Result* r) {
  std::vector<std::vector<text::Span>> served(t.calls.size());
  ok->assign(t.calls.size(), false);
  std::map<int, stream::EntityMemory> memory;
  for (std::size_t i = 0; i < t.calls.size(); ++i) {
    const Call& c = t.calls[i];
    ++r->attempted;
    if (c.done_us < 0 || c.response.find("\"error\":") != std::string::npos) {
      ++r->failed;
      continue;
    }
    (*ok)[i] = true;
    if (t.kind[i] == Kind::kAdmin) {
      if (c.response.find("\"ok\":true") == std::string::npos) {
        r->Mismatch("admin response " + c.response);
      }
      continue;
    }
    const auto s = static_cast<std::size_t>(t.sentence[i]);
    const std::vector<std::string>& tokens = t.sentences.sentences[s].tokens;
    std::vector<text::Span> spans = t.ref[s];
    serve::Request req;
    req.has_id = true;
    req.id = static_cast<std::int64_t>(i);
    req.doc = t.kind[i] == Kind::kDoc;
    if (req.doc) {
      stream::EntityMemory& m = memory[c.conn];
      m.Apply(tokens, &spans);
      m.Observe(tokens, spans);
    }
    const bool cached =
        c.response.find(",\"cached\":true,") != std::string::npos;
    if (c.response !=
        serve::TagResponse(req, cached, serve::TagPayload(tokens, spans))) {
      r->Mismatch("response " + c.response);
    }
    served[i] = std::move(spans);
  }
  return served;
}

// The in-process reference tags of the sentences `t`'s calls carry (the
// others stay empty): serve_mixed's Zipf draws touch a fraction of its pool.
std::vector<std::vector<text::Span>> ReferenceTags(const core::Pipeline& ref,
                                                   const Traffic& t) {
  std::vector<int> used;
  std::vector<bool> seen(t.sentences.size(), false);
  for (const int s : t.sentence) {
    if (s >= 0 && !seen[static_cast<std::size_t>(s)]) {
      seen[static_cast<std::size_t>(s)] = true;
      used.push_back(s);
    }
  }
  text::Corpus sub;
  for (const int s : used) {
    sub.sentences.push_back(t.sentences.sentences[static_cast<std::size_t>(s)]);
  }
  std::vector<std::vector<text::Span>> tags = ref.TagCorpus(sub);
  std::vector<std::vector<text::Span>> out(t.sentences.size());
  for (std::size_t i = 0; i < used.size(); ++i) {
    out[static_cast<std::size_t>(used[i])] = std::move(tags[i]);
  }
  return out;
}

// --- End-to-end tally ---------------------------------------------------------

// A percentile per part, and their median. Notes each part's sample count,
// samples beyond its percentile and value.
double PartMedian(const std::vector<std::vector<double>>& parts, double p,
                  Result* r) {
  std::vector<double> values;
  std::string note = "p";
  note += FormatNumber(p);
  note += " per part (samples/beyond/ms):";
  for (const std::vector<double>& part : parts) {
    if (part.empty()) continue;
    const double v = Percentile(part, p);
    values.push_back(v);
    char buf[96];
    std::snprintf(buf, sizeof(buf), " %zu/%zu/%.4f", part.size(),
                  CountAbove(part, v), v);
    note += buf;
  }
  r->Note(note);
  return Median(values);
}

// Appends the rate of every 1 s sub-window of [start, start + length), from
// the completion times in it.
void AddRates(const std::vector<std::int64_t>& done_us, std::int64_t start,
              std::int64_t length, std::vector<double>* rates) {
  const std::int64_t n = std::max<std::int64_t>(1, length / kSubWindowUs);
  std::vector<double> counts(static_cast<std::size_t>(n), 0.0);
  for (const std::int64_t t : done_us) {
    const std::int64_t k = (t - start) / kSubWindowUs;
    if (t >= start && k < n) counts[static_cast<std::size_t>(k)] += 1.0;
  }
  for (const double c : counts) {
    rates->push_back(c / (static_cast<double>(kSubWindowUs) / 1e6));
  }
}

// The end-to-end numbers of a run. The measured window is split into
// kParts parts, each against a freshly started process (dlner_serve, or an
// offline worker): on a shared host one process can spend its whole life on
// a slowed core, and medians over the parts keep one such process from
// setting the result.
struct Tally {
  std::vector<double> setup_s;
  std::vector<std::vector<double>> latency_ms;  // one vector per part
  std::vector<double> rates;  // sub-window rates (closed loop, offline)
  std::int64_t tagged = 0;    // correct tagging responses in the windows
  double measured_s = 0.0;
  eval::Prf f1;
  std::vector<double> rss_mb;
  std::vector<double> cpu_us_per_sentence;  // one value per part
  std::int64_t cached = 0;
};

// Adds one serve part: latency from the scheduled send time, correct
// responses and F1 over the tagging requests due in its measured window,
// and the server's CPU time per tagging response over the whole drive
// (`cpu_s`, warm-up included; not added when negative).
void TallyServe(const Traffic& t, const std::vector<bool>& ok,
                const std::vector<std::vector<text::Span>>& served,
                bool closed, double cpu_s, Tally* tally) {
  std::vector<double> latency_ms;
  std::vector<std::int64_t> done_us;
  eval::ExactMatchEvaluator f1;
  for (std::size_t i = 0; i < t.calls.size(); ++i) {
    if (t.kind[i] == Kind::kAdmin) continue;
    const Call& c = t.calls[i];
    if (ok[i]) done_us.push_back(c.done_us);
    if (!t.InWindow(c.due_us)) continue;
    const auto s = static_cast<std::size_t>(t.sentence[i]);
    f1.Add(t.sentences.sentences[s].spans, served[i]);
    if (!ok[i]) continue;
    ++tally->tagged;
    latency_ms.push_back(static_cast<double>(c.done_us - c.due_us) / 1e3);
    if (c.response.find(",\"cached\":true,") != std::string::npos) {
      ++tally->cached;
    }
  }
  tally->latency_ms.push_back(std::move(latency_ms));
  if (cpu_s >= 0.0 && !done_us.empty()) {
    tally->cpu_us_per_sentence.push_back(cpu_s * 1e6 /
                                         static_cast<double>(done_us.size()));
  }
  if (closed) {
    AddRates(done_us, t.start_us + kWarmUs, t.measure_us, &tally->rates);
  }
  tally->measured_s += static_cast<double>(t.measure_us) / 1e6;
  const eval::Prf prf = f1.Result().micro;
  tally->f1.tp += prf.tp;
  tally->f1.fp += prf.fp;
  tally->f1.fn += prf.fn;
}

// The end-to-end metrics. p50 is the median of the parts' medians, so one
// slowed process does not set it; CPU time per sentence is the median over
// the parts. The tail percentiles and throughput go to the notes only: on a
// shared host the tail measures the neighbours' stalls (p90 of one run's
// parts spread 5-8 ms on serve_light while their p50 held at 3.0-3.1 ms),
// and in an open loop throughput follows the offered rate.
void Report(const Tally& tally, bool rate_median, Result* r) {
  std::vector<double> pooled;
  for (const std::vector<double>& part : tally.latency_ms) {
    pooled.insert(pooled.end(), part.begin(), part.end());
  }
  r->Add("setup_s", Median(tally.setup_s), "s");
  r->Add("p50_ms", PartMedian(tally.latency_ms, 50, r), "ms");
  r->Add("cpu_us_per_sentence", Median(tally.cpu_us_per_sentence), "us");
  r->Note("over " + std::to_string(pooled.size()) + " samples: p90 " +
          FormatNumber(Percentile(pooled, 90)) + " ms, p99 " +
          FormatNumber(Percentile(pooled, 99)) + " ms");
  r->Note("sentences_per_s " +
          FormatNumber(rate_median
                           ? Median(tally.rates)
                           : static_cast<double>(tally.tagged) /
                                 tally.measured_s));
  std::string cpu_note = "cpu_us_per_sentence per part:";
  for (const double v : tally.cpu_us_per_sentence) {
    cpu_note += " " + FormatNumber(v);
  }
  r->Note(cpu_note);
  r->Add("f1", tally.f1.f1(), "frac");
  r->Add("peak_rss_mb", Median(tally.rss_mb), "MB");
  std::string note = "setup_s samples:";
  for (const double v : tally.setup_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), " %.4f", v);
    note += buf;
  }
  r->Note(note);
  if (rate_median) {
    note = "sub-window rates (1/s):";
    for (const double v : tally.rates) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), " %.0f", v);
      note += buf;
    }
    r->Note(note);
  }
  r->Note(std::to_string(tally.cached) + " cache hits");
}

std::string ExpectedSetupResponse(const core::Pipeline& ref) {
  text::Corpus one;
  one.sentences.resize(1);
  one.sentences[0].tokens = SetupTokens();
  serve::Request req;
  req.has_id = true;
  return serve::TagResponse(
      req, false, serve::TagPayload(SetupTokens(), ref.TagCorpus(one)[0]));
}

// Starts dlner_serve and times it from exec to the first correct response.
std::unique_ptr<ServerProcess> StartServer(const RunOptions& o,
                                           std::vector<std::string> args,
                                           const std::string& expected,
                                           double* setup_s, Result* r) {
  args.insert(args.begin(), {"--model", o.model});
  const std::int64_t t0 = NowUs();
  std::unique_ptr<ServerProcess> server = ServerProcess::Start(o.server, args);
  if (server == nullptr) return nullptr;
  std::string response;
  if (!RoundTrip(server->port(), TagLine(0, SetupTokens(), false), &response) ||
      response != expected) {
    r->Mismatch("setup response " + response);
  }
  *setup_s = static_cast<double>(NowUs() - t0) / 1e6;
  return server;
}

// serve_saturate's sentences, cycled by every part, and their reference
// tags.
struct Pool {
  text::Corpus sentences;
  std::vector<std::vector<text::Span>> ref;
};

Pool SaturatePool(std::uint64_t seed, const core::Pipeline& ref) {
  Pool pool;
  pool.sentences = DistinctSentences(StreamSeed(seed, kPoolStream),
                                     static_cast<int>(kSaturatePool));
  pool.ref = ref.TagCorpus(pool.sentences);
  return pool;
}

// Sends one serve workload's traffic for `measure_us` (after the warm-up)
// and checks every response against `ref`.
Traffic DriveServe(const RunOptions& o, const Workload& w, int port,
                   std::int64_t measure_us, std::uint64_t seed,
                   const Pool& pool) {
  Traffic t;
  if (w.loop == Loop::kOpen) {
    t = OpenTraffic(w, seed, measure_us, o.model);
    DriveOpen(port, &t, w.mixed ? kConns + 1 : kConns);
  } else {
    DriveClosed(port, w.window, pool.sentences, measure_us, &t);
    t.ref = pool.ref;
  }
  return t;
}

bool ServeEndToEndRun(const RunOptions& o, const Workload& w,
                      const core::Pipeline& ref, Result* r) {
  const std::string expected = ExpectedSetupResponse(ref);
  const bool closed = w.loop == Loop::kClosed;
  const Pool pool = closed ? SaturatePool(o.seed, ref) : Pool{};
  const std::int64_t part_us =
      static_cast<std::int64_t>(o.seconds) * 1'000'000 / kParts;
  Tally tally;
  for (int k = 0; k < kSetupRepeats; ++k) {
    double s = 0.0;
    std::unique_ptr<ServerProcess> server = StartServer(o, {}, expected, &s, r);
    if (server == nullptr) return false;
    tally.setup_s.push_back(s);
    // The last kParts servers each serve one part of the window.
    const int part = k - (kSetupRepeats - kParts);
    if (part < 0) {
      server->Stop();
      continue;
    }
    const double cpu0 = CpuSeconds(server->pid());
    Traffic t = DriveServe(o, w, server->port(), part_us,
                           StreamSeed(o.seed, kPartStream + part), pool);
    const double cpu_s = CpuSeconds(server->pid()) - cpu0;
    tally.rss_mb.push_back(PeakRssMb(server->pid()));
    if (!server->Stop()) r->Note("dlner_serve exited uncleanly");
    if (t.ref.empty()) t.ref = ReferenceTags(ref, t);
    std::vector<bool> ok;
    const auto served = CheckCalls(t, &ok, r);
    TallyServe(t, ok, served, closed, cpu_s, &tally);
  }
  Report(tally, closed, r);
  return true;
}

// --- Offline ----------------------------------------------------------------

struct OfflineCorpus {
  text::Corpus all;
  std::vector<text::Corpus> jobs;
};

OfflineCorpus MakeOfflineCorpus(std::uint64_t seed) {
  OfflineCorpus c;
  c.all = DistinctSentences(StreamSeed(seed, kOfflineStream),
                            static_cast<int>(kOfflineSentences));
  for (std::size_t b = 0; b < c.all.sentences.size(); b += kOfflineJob) {
    text::Corpus job;
    const std::size_t e = std::min(c.all.sentences.size(), b + kOfflineJob);
    job.sentences.assign(c.all.sentences.begin() + static_cast<std::ptrdiff_t>(b),
                         c.all.sentences.begin() + static_cast<std::ptrdiff_t>(e));
    c.jobs.push_back(std::move(job));
  }
  return c;
}

struct OfflineLoopResult {
  std::int64_t start_us = 0;
  std::vector<std::int64_t> sentence_done_us;  // one entry per sentence
  std::vector<double> job_ms;
  std::vector<double> gap_ms;  // harness time between consecutive jobs
  std::int64_t sentences = 0;
  double seconds = 0.0;
};

// TagCorpus job after job, cycling through the corpus, for `measure_us`.
// Every output must equal the warm pass's output for the same job.
OfflineLoopResult OfflineLoop(
    const core::Pipeline& p, const OfflineCorpus& c,
    const std::vector<std::vector<std::vector<text::Span>>>& expected,
    std::int64_t measure_us, eval::ExactMatchEvaluator* f1, Result* r) {
  OfflineLoopResult out;
  const std::int64_t start = NowUs();
  out.start_us = start;
  std::int64_t prev_end = start;
  for (std::size_t j = 0; NowUs() - start < measure_us;
       j = (j + 1) % c.jobs.size()) {
    const std::int64_t t0 = NowUs();
    const auto spans = p.TagCorpus(c.jobs[j]);
    const std::int64_t t1 = NowUs();
    out.job_ms.push_back(static_cast<double>(t1 - t0) / 1e3);
    out.gap_ms.push_back(static_cast<double>(t0 - prev_end) / 1e3);
    prev_end = t1;
    ++r->attempted;
    if (spans != expected[j]) r->Mismatch("offline job " + std::to_string(j));
    if (f1 != nullptr) {
      for (std::size_t i = 0; i < spans.size(); ++i) {
        f1->Add(c.jobs[j].sentences[i].spans, spans[i]);
      }
    }
    out.sentences += static_cast<std::int64_t>(spans.size());
    out.sentence_done_us.insert(out.sentence_done_us.end(), spans.size(), t1);
  }
  out.seconds = static_cast<double>(NowUs() - start) / 1e6;
  return out;
}

// Pipeline::Load plus the first TagCorpus call (which compiles the plan),
// as `dlner tag --in` starts.
std::unique_ptr<core::Pipeline> OfflineLoad(const std::string& model,
                                            double* setup_s) {
  text::Corpus one;
  one.sentences.resize(1);
  one.sentences[0].tokens = SetupTokens();
  const std::int64_t t0 = NowUs();
  std::unique_ptr<core::Pipeline> p = core::Pipeline::Load(model);
  if (p != nullptr) p->TagCorpus(one);
  *setup_s = static_cast<double>(NowUs() - t0) / 1e6;
  return p;
}

// The warm pass: its tags are the reference every timed job must repeat,
// and they must not depend on the thread count.
std::vector<std::vector<std::vector<text::Span>>> OfflineWarmPass(
    const core::Pipeline& p, const OfflineCorpus& c, Result* r) {
  std::vector<std::vector<std::vector<text::Span>>> expected;
  for (const text::Corpus& job : c.jobs) expected.push_back(p.TagCorpus(job));
  runtime::Runtime::Get().SetThreads(1);
  if (p.TagCorpus(c.jobs[0]) != expected[0]) r->Mismatch("1-thread tag");
  runtime::Runtime::Get().SetThreads(0);
  return expected;
}

// Runs this executable as an offline worker and reads its report lines
// ("key v1 v2 ...").
bool RunOfflineWorker(const std::vector<std::string>& args,
                      std::map<std::string, std::vector<double>>* report) {
  std::vector<std::string> argv = {SelfExecutable()};
  argv.insert(argv.end(), args.begin(), args.end());
  std::string out;
  if (!RunChild(argv, &out)) return false;
  std::size_t pos = 0;
  while (pos < out.size()) {
    std::size_t eol = out.find('\n', pos);
    if (eol == std::string::npos) eol = out.size();
    std::istringstream line(out.substr(pos, eol - pos));
    std::string key;
    double v = 0.0;
    if (line >> key) {
      std::vector<double>& values = (*report)[key];
      while (line >> v) values.push_back(v);
    }
    pos = eol + 1;
  }
  return true;
}

bool OfflineEndToEndRun(const RunOptions& o, Result* r) {
  const std::int64_t part_us =
      static_cast<std::int64_t>(o.seconds) * 1'000'000 / kParts;
  Tally tally;
  for (int k = 0; k < kSetupRepeats; ++k) {
    std::map<std::string, std::vector<double>> rep;
    const int part = k - (kSetupRepeats - kParts);
    if (part < 0) {
      if (!RunOfflineWorker({"offline-setup", "--model", o.model}, &rep) ||
          rep["setup_s"].empty()) {
        return false;
      }
      tally.setup_s.push_back(rep["setup_s"][0]);
      continue;
    }
    // The last kParts workers each run one part of the window.
    if (!RunOfflineWorker(
            {"offline-part", "--model", o.model, "--seed",
             std::to_string(StreamSeed(o.seed, kPartStream + part)),
             "--part-us", std::to_string(part_us)},
            &rep) ||
        rep["setup_s"].empty() || rep["f1"].size() != 3 ||
        rep["counts"].size() != 3 || rep["cpu_us_per_sentence"].empty()) {
      return false;
    }
    tally.setup_s.push_back(rep["setup_s"][0]);
    tally.rss_mb.push_back(rep["rss_mb"].empty() ? 0.0 : rep["rss_mb"][0]);
    tally.cpu_us_per_sentence.push_back(rep["cpu_us_per_sentence"][0]);
    tally.latency_ms.push_back(rep["job_ms"]);
    tally.rates.insert(tally.rates.end(), rep["rates"].begin(),
                       rep["rates"].end());
    tally.f1.tp += static_cast<int>(rep["f1"][0]);
    tally.f1.fp += static_cast<int>(rep["f1"][1]);
    tally.f1.fn += static_cast<int>(rep["f1"][2]);
    r->attempted += static_cast<std::int64_t>(rep["counts"][0]);
    r->failed += static_cast<std::int64_t>(rep["counts"][1]);
    if (rep["counts"][2] != 0) r->Mismatch("offline worker output");
  }
  Report(tally, true, r);
  return true;
}

// --- Traced run ---------------------------------------------------------------

struct Snapshot {
  std::string metrics;  // Prometheus text
  std::string stats;    // {"cmd":"stats"} reply
};

Snapshot TakeSnapshot(int port) {
  Snapshot s;
  std::string line;
  if (RoundTrip(port, AdminLine(0, "metrics"), &line)) {
    JsonStringField(line, "metrics", &s.metrics);
  }
  RoundTrip(port, AdminLine(0, "stats"), &s.stats);
  return s;
}

double StatDelta(const Snapshot& a, const Snapshot& b, const std::string& key) {
  double x = 0.0, y = 0.0;
  JsonNumberField(a.stats, key, &x);
  JsonNumberField(b.stats, key, &y);
  return y - x;
}

// serve.* metrics from the server's own counters and stage histograms over
// the traced pass, and the client-side residual of the stage accounting.
void ServerLayerMetrics(const Snapshot& before, const Snapshot& after,
                        const Traffic& t, const std::vector<bool>& ok,
                        Result* r) {
  auto stage = [&](const char* name) {
    BucketHistogram a, b;
    const std::string metric = std::string("serve.stage.") + name + "_us";
    if (!ParsePromHistogram(before.metrics, metric, &a) ||
        !ParsePromHistogram(after.metrics, metric, &b)) {
      r->Mismatch("metrics exposition of " + metric);
    }
    return Subtract(b, a);
  };
  const BucketHistogram queue = stage("queue_wait"), batch = stage("batch_wait"),
                        compute = stage("compute"), write = stage("write");
  r->Add("serve.batch_wait_ms.p50", BucketPercentile(batch, 50) / 1e3, "ms");
  r->Add("serve.queue_wait_ms.p99", BucketPercentile(queue, 99) / 1e3, "ms");
  r->Add("serve.compute_ms.p50", BucketPercentile(compute, 50) / 1e3, "ms");
  r->Add("serve.write_ms.p99", BucketPercentile(write, 99) / 1e3, "ms");

  const double batches = StatDelta(before, after, "batches");
  const double hits = StatDelta(before, after, "cache_hits");
  const double misses = StatDelta(before, after, "cache_misses");
  const double responses = StatDelta(before, after, "responses");
  double flush0 = 0.0, flush1 = 0.0;
  ParsePromValue(before.metrics, "serve.batch.deadline_flushes", &flush0);
  ParsePromValue(after.metrics, "serve.batch.deadline_flushes", &flush1);
  r->Add("serve.batch_size.mean",
         batches > 0 ? (responses - hits) / batches : 0.0, "count");
  r->Add("serve.deadline_flush_frac",
         batches > 0 ? (flush1 - flush0) / batches : 0.0, "frac");
  r->Add("serve.cache.hit_frac", hits + misses > 0 ? hits / (hits + misses) : 0.0,
         "frac");

  // Client latency from the actual send (the server's arrival clock starts
  // there) minus the four mean server stages.
  std::vector<double> client_ms;
  for (std::size_t i = 0; i < t.calls.size(); ++i) {
    if (t.kind[i] != Kind::kAdmin && ok[i]) {
      client_ms.push_back(
          static_cast<double>(t.calls[i].done_us - t.calls[i].sent_us) / 1e3);
    }
  }
  const double stages_ms =
      (queue.Mean() + batch.Mean() + compute.Mean() + write.Mean()) / 1e3;
  r->Add("serve.residual_ms", Mean(client_ms) - stages_ms, "ms");
  r->Note("stage means (ms): queue " + FormatNumber(queue.Mean() / 1e3) +
          " batch " + FormatNumber(batch.Mean() / 1e3) + " compute " +
          FormatNumber(compute.Mean() / 1e3) + " write " +
          FormatNumber(write.Mean() / 1e3) + "; client mean " +
          FormatNumber(Mean(client_ms)));
}

// How late each open-loop send left compared with its schedule.
double GeneratorLagP99Ms(const Traffic& t) {
  std::vector<double> lag;
  for (const Call& c : t.calls) {
    if (c.sent_us >= 0) {
      lag.push_back(static_cast<double>(c.sent_us - c.due_us) / 1e3);
    }
  }
  return Percentile(lag, 99);
}

// The layer-probe inputs of one serve pass: its lines and key stream.
LayerInputs ProbeInputs(const Traffic& t, std::uint64_t seed, int seconds) {
  LayerInputs in;
  std::uint64_t generation = 1;
  std::vector<text::Corpus> docs(kDocConns);
  for (std::size_t i = 0; i < t.calls.size(); ++i) {
    in.lines.push_back(t.calls[i].line);
    if (t.kind[i] == Kind::kAdmin) {
      ++generation;
    } else if (t.kind[i] == Kind::kDoc) {
      docs[static_cast<std::size_t>(t.calls[i].conn)].sentences.push_back(
          t.sentences.sentences[static_cast<std::size_t>(t.sentence[i])]);
    } else {
      in.stateless.sentences.push_back(
          t.sentences.sentences[static_cast<std::size_t>(t.sentence[i])]);
      in.generation.push_back(generation);
    }
  }
  // Workloads without doc requests replay the doc streams serve_mixed
  // sends for the same seed in a traced pass (half the run).
  const double doc_requests = FindWorkload("serve_mixed")->rate_per_s *
                              (seconds / 2.0) / (2 * kConns);
  in.doc_streams =
      docs[0].sentences.empty()
          ? DocStreams(seed, static_cast<std::size_t>(doc_requests))
          : docs;
  return in;
}

std::vector<std::string> TracedServerArgs(const RunOptions& o) {
  return {"--metrics-port", "0", "--trace-sample-rate", "0.01", "--trace-out",
          o.out_dir + "/server-trace-" + o.workload + ".json"};
}

// One traced pass of serve traffic against a server with its metrics on:
// server-side stage accounting, reload round trips and layer probes.
bool TracedServePass(const RunOptions& o, const Workload& w,
                     const core::Pipeline& ref, const Pool& pool,
                     std::int64_t measure_us, SpanLog* log, Traffic* t,
                     Result* r) {
  SpanLog::Scope span(log, "pass.traced");
  double setup = 0.0;
  std::unique_ptr<ServerProcess> server =
      StartServer(o, TracedServerArgs(o), ExpectedSetupResponse(ref), &setup, r);
  if (server == nullptr) return false;
  Snapshot before, after;
  std::vector<double> reload_ms;
  {
    SpanLog::Scope drive(log, "serve.drive");
    before = TakeSnapshot(server->port());
    *t = DriveServe(o, w, server->port(), measure_us, o.seed, pool);
    after = TakeSnapshot(server->port());
  }
  if (!w.mixed) {
    SpanLog::Scope reload(log, "serve.reload");
    for (int k = 0; k < 3; ++k) {
      std::string ack;
      const std::int64_t t0 = NowUs();
      if (!RoundTrip(server->port(), ReloadLine(0, o.model), &ack) ||
          ack.find("\"ok\":true") == std::string::npos) {
        r->Mismatch("reload " + ack);
      }
      reload_ms.push_back(static_cast<double>(NowUs() - t0) / 1e3);
    }
  }
  server->Stop();
  if (t->ref.empty()) t->ref = ReferenceTags(ref, *t);
  std::vector<bool> ok;
  CheckCalls(*t, &ok, r);
  for (std::size_t i = 0; i < t->calls.size(); ++i) {
    if (t->kind[i] == Kind::kAdmin && ok[i]) {
      reload_ms.push_back(
          static_cast<double>(t->calls[i].done_us - t->calls[i].sent_us) / 1e3);
    }
  }
  r->Add("serve.reload_rtt_ms", Median(reload_ms), "ms");
  ServerLayerMetrics(before, after, *t, ok, r);
  return true;
}

bool ServeTracedRun(const RunOptions& o, const Workload& w,
                    const core::Pipeline& ref, SpanLog* log, Result* r) {
  const std::int64_t half = static_cast<std::int64_t>(o.seconds) * 500'000;
  const bool closed = w.loop == Loop::kClosed;
  const Pool pool = closed ? SaturatePool(o.seed, ref) : Pool{};
  // Untraced pass: the server as in the end-to-end run.
  Traffic plain;
  {
    SpanLog::Scope span(log, "pass.untraced");
    double setup = 0.0;
    std::unique_ptr<ServerProcess> server =
        StartServer(o, {}, ExpectedSetupResponse(ref), &setup, r);
    if (server == nullptr) return false;
    plain = DriveServe(o, w, server->port(), half, o.seed, pool);
    server->Stop();
  }
  if (plain.ref.empty()) plain.ref = ReferenceTags(ref, plain);
  std::vector<bool> plain_ok;
  Tally plain_tally;
  TallyServe(plain, plain_ok, CheckCalls(plain, &plain_ok, r), closed, -1.0,
             &plain_tally);

  Traffic traced;
  if (!TracedServePass(o, w, ref, pool, half, log, &traced, r)) return false;
  std::vector<bool> traced_ok;
  Result scratch;
  Tally traced_tally;
  TallyServe(traced, traced_ok, CheckCalls(traced, &traced_ok, &scratch),
             closed, -1.0, &traced_tally);
  // Closed loop: throughput lost to observability; open loop (throughput
  // is the offered rate): median latency added by it.
  const double overhead =
      closed ? 1.0 - Median(traced_tally.rates) / Median(plain_tally.rates)
             : Percentile(traced_tally.latency_ms[0], 50) /
                       Percentile(plain_tally.latency_ms[0], 50) -
                   1.0;
  r->Add("obs.overhead_frac", overhead, "frac");
  r->Add("bench.generator_lag_ms.p99", GeneratorLagP99Ms(plain), "ms");
  r->Add("client.p99_ms", Percentile(plain_tally.latency_ms[0], 99), "ms");
  RunLayerProbes(o.model, ProbeInputs(traced, o.seed, o.seconds), ref, log, r);
  return true;
}

bool OfflineTracedRun(const RunOptions& o, SpanLog* log, Result* r) {
  const OfflineCorpus c = MakeOfflineCorpus(o.seed);
  double setup = 0.0;
  std::unique_ptr<core::Pipeline> p = OfflineLoad(o.model, &setup);
  if (p == nullptr) return false;
  const auto expected = OfflineWarmPass(*p, c, r);
  const std::int64_t quarter = static_cast<std::int64_t>(o.seconds) * 250'000;
  OfflineLoopResult plain, traced;
  {
    SpanLog::Scope span(log, "pass.untraced");
    plain = OfflineLoop(*p, c, expected, quarter, nullptr, r);
  }
  {
    SpanLog::Scope span(log, "pass.traced");
    obs::EnableMetrics(true);
    obs::EnableTracing(true);
    traced = OfflineLoop(*p, c, expected, quarter, nullptr, r);
    obs::EnableTracing(false);
    obs::EnableMetrics(false);
  }
  r->Add("obs.overhead_frac",
         1.0 - (static_cast<double>(traced.sentences) / traced.seconds) /
                   (static_cast<double>(plain.sentences) / plain.seconds),
         "frac");
  r->Add("bench.generator_lag_ms.p99", Percentile(plain.gap_ms, 99), "ms");
  r->Add("client.p99_ms", Percentile(plain.job_ms, 99), "ms");

  // No serve layer in this workload: its serve.* numbers come from the
  // offline corpus pushed through a traced dlner_serve in a closed loop.
  Traffic replay;
  const Workload& saturate = *FindWorkload("serve_saturate");
  {
    SpanLog::Scope span(log, "pass.serve_replay");
    double setup = 0.0;
    std::unique_ptr<ServerProcess> server = StartServer(
        o, TracedServerArgs(o), ExpectedSetupResponse(*p), &setup, r);
    if (server == nullptr) return false;
    const Snapshot before = TakeSnapshot(server->port());
    DriveClosed(server->port(), saturate.window, c.all, quarter, &replay);
    const Snapshot after = TakeSnapshot(server->port());
    std::vector<double> reload_ms;
    for (int k = 0; k < 3; ++k) {
      std::string ack;
      const std::int64_t t0 = NowUs();
      if (!RoundTrip(server->port(), ReloadLine(0, o.model), &ack)) {
        r->Mismatch("reload");
      }
      reload_ms.push_back(static_cast<double>(NowUs() - t0) / 1e3);
    }
    server->Stop();
    replay.ref = p->TagCorpus(replay.sentences);
    std::vector<bool> ok;
    CheckCalls(replay, &ok, r);
    r->Add("serve.reload_rtt_ms", Median(reload_ms), "ms");
    ServerLayerMetrics(before, after, replay, ok, r);
  }
  LayerInputs in = ProbeInputs(replay, o.seed, o.seconds);
  in.stateless = c.all;
  in.generation.assign(c.all.sentences.size(), 1);
  RunLayerProbes(o.model, in, *p, log, r);
  return true;
}

}  // namespace

int RunOfflineSetupWorker(const std::string& model) {
  double setup = 0.0;
  if (OfflineLoad(model, &setup) == nullptr) return 1;
  std::printf("setup_s %.9g\n", setup);
  return 0;
}

int RunOfflinePartWorker(const std::string& model, std::uint64_t seed,
                         std::int64_t part_us) {
  runtime::Runtime::Get().SetThreads(0);
  const OfflineCorpus c = MakeOfflineCorpus(seed);
  double setup = 0.0;
  std::unique_ptr<core::Pipeline> p = OfflineLoad(model, &setup);
  if (p == nullptr) return 1;
  Result r;
  const auto expected = OfflineWarmPass(*p, c, &r);
  eval::ExactMatchEvaluator f1;
  const double cpu0 = CpuSeconds(::getpid());
  const OfflineLoopResult loop = OfflineLoop(*p, c, expected, part_us, &f1, &r);
  const double cpu_s = CpuSeconds(::getpid()) - cpu0;
  std::vector<double> rates;
  AddRates(loop.sentence_done_us, loop.start_us, part_us, &rates);
  const eval::Prf prf = f1.Result().micro;
  std::printf("setup_s %.9g\nrss_mb %.9g\n", setup, PeakRssMb(::getpid()));
  std::printf("cpu_us_per_sentence %.9g\n",
              loop.sentences > 0
                  ? cpu_s * 1e6 / static_cast<double>(loop.sentences)
                  : 0.0);
  std::printf("f1 %d %d %d\n", prf.tp, prf.fp, prf.fn);
  std::printf("counts %lld %lld %d\n", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed), r.correct ? 0 : 1);
  std::printf("rates");
  for (const double v : rates) std::printf(" %.9g", v);
  std::printf("\njob_ms");
  for (const double v : loop.job_ms) std::printf(" %.9g", v);
  std::printf("\n");
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  return 0;
}

namespace {

// --- Output -----------------------------------------------------------------

std::string ContextJson(const RunOptions& o) {
  const core::NerConfig cfg = ModelConfig();
  int vocab = 0;
  if (std::unique_ptr<core::Pipeline> p = core::Pipeline::Load(o.model)) {
    vocab = p->model()->word_vocab().size();
  }
  return std::string("{\"workload\":") + serve::JsonQuote(o.workload) +
         ",\"seed\":" + std::to_string(o.seed) +
         ",\"seconds\":" + std::to_string(o.seconds) +
         ",\"trace\":" + (o.trace ? "1" : "0") +
         ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"isa\":" + serve::JsonQuote(simd::kIsaName) +
         ",\"build_type\":" + serve::JsonQuote(PERF_BUILD_TYPE) +
         ",\"cxx_flags\":" + serve::JsonQuote(PERF_CXX_FLAGS) +
         ",\"model\":" + serve::JsonQuote(cfg.Describe()) +
         ",\"word_dim\":" + std::to_string(cfg.word_dim) +
         ",\"char_dim\":" + std::to_string(cfg.char_dim) +
         ",\"char_filters\":" + std::to_string(cfg.char_filters) +
         ",\"hidden_dim\":" + std::to_string(cfg.hidden_dim) +
         ",\"word_vocab\":" + std::to_string(vocab) + "}";
}

std::string ResultLine(const Result& r) {
  std::string out = std::string("{\"correct\": ") +
                    (r.correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    out += (i > 0 ? ", " : "") + serve::JsonQuote(m.name) +
           ": {\"value\": " + FormatNumber(m.value) +
           ", \"unit\": " + serve::JsonQuote(m.unit) + "}";
  }
  return out + "}}";
}

}  // namespace

int RunWorkload(const RunOptions& o) {
  const Workload* w = FindWorkload(o.workload);
  if (w == nullptr || o.seconds < 1) {
    std::fprintf(stderr, "perf_harness: bad workload or seconds\n");
    return 2;
  }
  runtime::Runtime::Get().SetThreads(0);
  Result r;
  SpanLog log;
  const HostTicks ticks0 = ReadHostTicks();
  bool ran = false;
  if (w->loop == Loop::kOffline) {
    ran = o.trace ? OfflineTracedRun(o, &log, &r) : OfflineEndToEndRun(o, &r);
  } else {
    std::unique_ptr<core::Pipeline> ref = core::Pipeline::Load(o.model);
    if (ref == nullptr) {
      std::fprintf(stderr, "perf_harness: cannot load %s\n", o.model.c_str());
      return 1;
    }
    ran = o.trace ? ServeTracedRun(o, *w, *ref, &log, &r)
                  : ServeEndToEndRun(o, *w, *ref, &r);
  }
  if (!ran) {
    std::fprintf(stderr, "perf_harness: %s could not run\n", w->name);
    return 1;
  }
  const HostTicks ticks1 = ReadHostTicks();
  if (ticks1.total > ticks0.total) {
    r.Note("host steal: " +
           FormatNumber((ticks1.steal - ticks0.steal) /
                        (ticks1.total - ticks0.total)) +
           " of vCPU time");
  }
  const std::string tag = o.workload + "-seed" + std::to_string(o.seed) +
                          (o.trace ? "-trace" : "");
  const std::string context = ContextJson(o);
  const std::string line = ResultLine(r);
  std::fprintf(stderr, "context %s\n", context.c_str());
  for (const std::string& note : r.notes) {
    std::fprintf(stderr, "note: %s\n", note.c_str());
  }
  if (o.trace) log.Write(o.out_dir + "/spans-" + tag + ".json");
  std::ofstream record(o.out_dir + "/result-" + tag + ".json");
  record << "{\"context\":" << context << ",\"result\":" << line
         << ",\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    record << (i > 0 ? "," : "") << serve::JsonQuote(r.notes[i]);
  }
  record << "]}\n";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perf
