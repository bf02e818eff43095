#include "perf/layers.h"

#include <algorithm>
#include <chrono>
#include <memory>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "perf/stats.h"
#include "plan/plan.h"
#include "runtime/runtime.h"
#include "serve/cache.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "stream/entity_memory.h"
#include "tensor/arena.h"
#include "tensor/batched.h"
#include "tensor/rng.h"

namespace perf {

namespace {

using namespace dlner;

constexpr int kRepeats = 3;          // passes per probe; the median is kept
constexpr std::size_t kMaxReplay = 8192;  // requests replayed per probe
constexpr std::size_t kMicroBatch = 16;   // the plan's micro-batch size
// Cache capacity dlner_serve runs with by default (--cache-cap).
constexpr std::size_t kServeCacheCapacity = 4096;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double MedianOf(int repeats, Fn fn) {
  std::vector<double> v;
  for (int i = 0; i < repeats; ++i) v.push_back(fn());
  return Median(v);
}

text::Corpus Slice(const text::Corpus& c, std::size_t begin, std::size_t n) {
  text::Corpus out;
  for (std::size_t i = begin; i < c.sentences.size() && out.sentences.size() < n;
       ++i) {
    out.sentences.push_back(c.sentences[i]);
  }
  return out;
}

void ProtocolProbes(const LayerInputs& in, const core::Pipeline& ref,
                    SpanLog* log, Result* r) {
  {
    SpanLog::Scope span(log, "serve.protocol.parse");
    const double us = MedianOf(kRepeats, [&] {
      serve::Request req;
      std::string error;
      int code = 0;
      const std::int64_t t0 = NowNs();
      for (const std::string& line : in.lines) {
        serve::ParseRequest(line, &req, &error, &code);
      }
      return static_cast<double>(NowNs() - t0) / 1e3 /
             static_cast<double>(std::max<std::size_t>(1, in.lines.size()));
    });
    r->Add("serve.protocol.parse_us", us, "us");
  }
  SpanLog::Scope span(log, "serve.protocol.respond");
  const text::Corpus replay = Slice(in.stateless, 0, kMaxReplay);
  const auto spans = ref.TagCorpus(replay);
  const double us = MedianOf(kRepeats, [&] {
    serve::Request req;
    req.has_id = true;
    std::size_t bytes = 0;
    const std::int64_t t0 = NowNs();
    for (std::size_t i = 0; i < replay.sentences.size(); ++i) {
      req.id = static_cast<std::int64_t>(i);
      const std::string payload =
          serve::TagPayload(replay.sentences[i].tokens, spans[i]);
      bytes += serve::TagResponse(req, false, payload).size();
    }
    const double total = static_cast<double>(NowNs() - t0);
    return bytes > 0 ? total / 1e3 /
                           static_cast<double>(replay.sentences.size())
                     : 0.0;
  });
  r->Add("serve.protocol.respond_us", us, "us");
}

// Replays the stateless key stream through an LRU of the server's default
// capacity: Get, and Put on a miss, as the server's reader and batcher do.
void CacheProbe(const LayerInputs& in, const core::Pipeline& ref, SpanLog* log,
                Result* r) {
  SpanLog::Scope span(log, "serve.cache.replay");
  const text::Corpus replay = Slice(in.stateless, 0, kMaxReplay);
  const auto spans = ref.TagCorpus(replay);
  std::vector<std::string> keys, payloads;
  for (std::size_t i = 0; i < replay.sentences.size(); ++i) {
    keys.push_back(serve::LruCache::Key("default", in.generation[i],
                                        replay.sentences[i].tokens));
    payloads.push_back(serve::TagPayload(replay.sentences[i].tokens, spans[i]));
  }
  std::vector<double> get_us, put_us;
  for (int rep = 0; rep < kRepeats; ++rep) {
    serve::LruCache cache(kServeCacheCapacity);
    std::string value;
    std::int64_t get_ns = 0, put_ns = 0, puts = 0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::int64_t t0 = NowNs();
      const bool hit = cache.Get(keys[i], &value);
      const std::int64_t t1 = NowNs();
      get_ns += t1 - t0;
      if (!hit) {
        cache.Put(keys[i], payloads[i]);
        put_ns += NowNs() - t1;
        ++puts;
      }
    }
    get_us.push_back(static_cast<double>(get_ns) / 1e3 /
                     static_cast<double>(std::max<std::size_t>(1, keys.size())));
    put_us.push_back(puts > 0 ? static_cast<double>(put_ns) / 1e3 /
                                    static_cast<double>(puts)
                              : 0.0);
  }
  r->Add("serve.cache.get_us", Median(get_us), "us");
  r->Add("serve.cache.put_us", Median(put_us), "us");
}

void LoadProbes(const std::string& model_path, SpanLog* log, Result* r) {
  std::vector<double> registry_ms, load_ms, compile_ms;
  for (int rep = 0; rep < kRepeats; ++rep) {
    {
      SpanLog::Scope span(log, "serve.registry.load");
      serve::ModelRegistry registry;
      const std::int64_t t0 = NowUs();
      if (!registry.Load("default", model_path)) r->Mismatch("registry load");
      registry_ms.push_back(static_cast<double>(NowUs() - t0) / 1e3);
    }
    SpanLog::Scope span(log, "core.load");
    const std::int64_t t0 = NowUs();
    std::unique_ptr<core::Pipeline> p = core::Pipeline::Load(model_path);
    const std::int64_t t1 = NowUs();
    if (p == nullptr) {
      r->Mismatch("pipeline load");
      return;
    }
    {
      SpanLog::Scope compile(log, "plan.compile");
      p->model()->plan();
    }
    compile_ms.push_back(static_cast<double>(NowUs() - t1) / 1e3);
    load_ms.push_back(static_cast<double>(t1 - t0) / 1e3);
  }
  r->Add("serve.registry.load_ms", Median(registry_ms), "ms");
  r->Add("core.load_ms", Median(load_ms), "ms");
  r->Add("plan.compile_ms", Median(compile_ms), "ms");
}

void TagCorpusProbes(const LayerInputs& in, const core::Pipeline& ref,
                     SpanLog* log, Result* r) {
  SpanLog::Scope span(log, "core.tag_corpus");
  const std::size_t n = in.stateless.sentences.size();
  for (const std::size_t batch : {std::size_t{1}, kMicroBatch}) {
    std::vector<double> ms;
    for (std::size_t begin = 0; begin + batch <= n && ms.size() < 200;
         begin += batch) {
      const text::Corpus c = Slice(in.stateless, begin, batch);
      const std::int64_t t0 = NowUs();
      ref.TagCorpus(c);
      ms.push_back(static_cast<double>(NowUs() - t0) / 1e3);
    }
    r->Add(batch == 1 ? "core.tag_corpus_ms.b1" : "core.tag_corpus_ms.b16",
           Median(ms), "ms");
  }
}

// InferencePlan::Execute on 16-sentence micro-batches, on this thread, and
// the arena high-water mark those batches reach.
void PlanProbe(const LayerInputs& in, const core::Pipeline& ref, SpanLog* log,
               Result* r) {
  SpanLog::Scope span(log, "plan.execute");
  const plan::InferencePlan& plan = ref.model()->plan();
  const text::Corpus c = Slice(in.stateless, 0, 1024);
  auto pass = [&] {
    std::int64_t ns = 0;
    for (std::size_t b = 0; b < c.sentences.size(); b += kMicroBatch) {
      std::vector<const std::vector<std::string>*> batch;
      for (std::size_t i = b; i < std::min(c.sentences.size(), b + kMicroBatch);
           ++i) {
        batch.push_back(&c.sentences[i].tokens);
      }
      std::vector<std::vector<text::Span>> out(batch.size());
      const std::int64_t t0 = NowNs();
      plan.Execute(batch, &out);
      ns += NowNs() - t0;
    }
    return static_cast<double>(ns) / 1e3 /
           static_cast<double>(std::max<std::size_t>(1, c.sentences.size()));
  };
  r->Add("plan.execute_us_per_sentence", MedianOf(kRepeats, pass), "us");
  // The arena gauge updates only while metrics are collected.
  obs::EnableMetrics(true);
  pass();
  obs::EnableMetrics(false);
  r->Add("tensor.arena_high_water_mb",
         obs::Metrics::Get().gauge("tensor.arena.high_water")->value() /
             (1024.0 * 1024.0),
         "MB");
}

// batched::BiLstm at the model's shapes over the workload's sentence
// lengths, with seeded weights and inputs.
void BiLstmProbe(const LayerInputs& in, const core::Pipeline& ref,
                 SpanLog* log, Result* r) {
  SpanLog::Scope span(log, "tensor.bilstm");
  const core::NerConfig& cfg = ref.model()->config();
  const int in_dim = cfg.word_dim + cfg.char_filters;
  const int hidden = cfg.hidden_dim;
  Rng rng(7);
  auto random = [&](std::vector<int> shape) {
    Tensor t(std::move(shape));
    for (int i = 0; i < t.size(); ++i) t[i] = rng.Uniform(-0.1, 0.1);
    return t;
  };
  const Tensor wf = random({in_dim + hidden, 4 * hidden});
  const Tensor bf = random({4 * hidden});
  const Tensor wb = random({in_dim + hidden, 4 * hidden});
  const Tensor bb = random({4 * hidden});
  const batched::LstmDir fwd{&wf, &bf}, bwd{&wb, &bb};
  const text::Corpus c = Slice(in.stateless, 0, 1024);
  std::vector<batched::BatchLayout> layouts;
  int max_rows = 0;
  for (std::size_t b = 0; b < c.sentences.size(); b += kMicroBatch) {
    batched::BatchLayout layout;
    for (std::size_t i = b; i < std::min(c.sentences.size(), b + kMicroBatch);
         ++i) {
      layout.Add(c.sentences[i].size());
    }
    max_rows = std::max(max_rows, layout.rows());
    layouts.push_back(std::move(layout));
  }
  const Tensor x = random({std::max(1, max_rows), in_dim});
  std::vector<Float> out(static_cast<std::size_t>(max_rows) * 2 * hidden);
  Arena arena;
  const double us = MedianOf(kRepeats, [&] {
    std::int64_t ns = 0, tokens = 0;
    for (const batched::BatchLayout& layout : layouts) {
      arena.Reset();
      const std::int64_t t0 = NowNs();
      batched::BiLstm(x.data(), in_dim, hidden, layout, fwd, bwd, out.data(),
                      &arena);
      ns += NowNs() - t0;
      tokens += layout.rows();
    }
    return static_cast<double>(ns) / 1e3 /
           static_cast<double>(std::max<std::int64_t>(1, tokens));
  });
  r->Add("tensor.bilstm_us_per_token", us, "us");
}

// TagCorpus on up to 2048 of the workload's sentences at 1 thread and at
// nproc threads, and the pool's idle wait during the nproc calls.
void RuntimeProbe(const LayerInputs& in, const core::Pipeline& ref,
                  SpanLog* log, Result* r) {
  SpanLog::Scope span(log, "runtime.tag_corpus");
  const text::Corpus c = Slice(in.stateless, 0, 2048);
  runtime::Runtime& rt = runtime::Runtime::Get();
  auto timed = [&] {
    const std::int64_t t0 = NowUs();
    ref.TagCorpus(c);
    return static_cast<double>(NowUs() - t0);
  };
  rt.SetThreads(1);
  const double one = MedianOf(kRepeats, timed);
  rt.SetThreads(0);
  obs::EnableMetrics(true);
  obs::Gauge* idle = obs::Metrics::Get().gauge("runtime.pool.idle_wait_us");
  rt.PublishMetrics();
  const double idle_before = idle->value();
  const double all = MedianOf(kRepeats, timed);
  rt.PublishMetrics();
  const double idle_after = idle->value();
  obs::EnableMetrics(false);
  r->Add("runtime.speedup_nproc", all > 0.0 ? one / all : 0.0, "x");
  r->Add("runtime.idle_wait_ms", (idle_after - idle_before) / 1e3 / kRepeats,
         "ms");
}

// EntityMemory Apply -> Observe per document sentence, in stream order, as
// the server folds doc requests.
void MemoryProbe(const LayerInputs& in, const core::Pipeline& ref,
                 SpanLog* log, Result* r) {
  SpanLog::Scope span(log, "stream.memory");
  std::int64_t apply_ns = 0, observe_ns = 0, sentences = 0, changed = 0;
  for (const text::Corpus& stream : in.doc_streams) {
    const auto predicted = ref.TagCorpus(stream);
    stream::EntityMemory memory;
    for (std::size_t i = 0; i < stream.sentences.size(); ++i) {
      const std::vector<std::string>& tokens = stream.sentences[i].tokens;
      std::vector<text::Span> spans = predicted[i];
      const std::int64_t t0 = NowNs();
      memory.Apply(tokens, &spans);
      const std::int64_t t1 = NowNs();
      memory.Observe(tokens, spans);
      observe_ns += NowNs() - t1;
      apply_ns += t1 - t0;
      changed += spans != predicted[i] ? 1 : 0;
      ++sentences;
    }
  }
  const double n = static_cast<double>(std::max<std::int64_t>(1, sentences));
  r->Add("stream.memory.apply_us", static_cast<double>(apply_ns) / 1e3 / n,
         "us");
  r->Add("stream.memory.observe_us", static_cast<double>(observe_ns) / 1e3 / n,
         "us");
  r->Add("stream.memory.changed_frac", static_cast<double>(changed) / n,
         "frac");
}

}  // namespace

void RunLayerProbes(const std::string& model_path, const LayerInputs& in,
                    const core::Pipeline& ref, SpanLog* log, Result* result) {
  SpanLog::Scope span(log, "layer_probes");
  ProtocolProbes(in, ref, log, result);
  CacheProbe(in, ref, log, result);
  LoadProbes(model_path, log, result);
  TagCorpusProbes(in, ref, log, result);
  PlanProbe(in, ref, log, result);
  BiLstmProbe(in, ref, log, result);
  RuntimeProbe(in, ref, log, result);
  MemoryProbe(in, ref, log, result);
}

}  // namespace perf
