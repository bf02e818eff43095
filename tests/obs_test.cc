// Tests for the observability subsystem (src/obs/): enablement switches,
// scoped-span tracing and its Chrome trace_event export, the metrics
// registry, the structured JSONL logger, and — most importantly — the
// guarantees the rest of the toolkit relies on: the disabled path records
// nothing, and turning collection on does not change model output.
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "core/config.h"
#include "core/model.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "runtime/runtime.h"

namespace dlner::obs {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser, just enough to validate the schema
// of the emitted artifacts without adding a dependency. Numbers are parsed
// with strtod; objects use std::map (duplicate keys keep the last value).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is(Kind k) const { return kind == k; }
  const JsonValue* find(const std::string& key) const {
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool Parse(JsonValue* out) {
    const bool ok = Value(out);
    Ws();
    return ok && pos_ == s_.size();
  }

 private:
  void Ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(
                                   s_[pos_]))) {
      ++pos_;
    }
  }
  bool Literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  bool Value(JsonValue* out) {
    Ws();
    if (pos_ >= s_.size()) return false;
    const char c = s_[pos_];
    if (c == '{') return Object(out);
    if (c == '[') return Array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->str);
    }
    if (Literal("null")) return true;  // kind already kNull
    if (Literal("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->b = true;
      return true;
    }
    if (Literal("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->b = false;
      return true;
    }
    return Number(out);
  }
  bool Number(JsonValue* out) {
    const char* start = s_.c_str() + pos_;
    char* end = nullptr;
    out->num = std::strtod(start, &end);
    if (end == start) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ += static_cast<std::size_t>(end - start);
    return true;
  }
  bool String(std::string* out) {
    if (s_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char c = s_[pos_++];
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return false;
            pos_ += 4;   // validated as hex by the escape writer
            c = '?';     // code point value irrelevant for these tests
            break;
          }
          default:
            return false;
        }
      }
      out->push_back(c);
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool Array(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    Ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue v;
      if (!Value(&v)) return false;
      out->arr.push_back(std::move(v));
      Ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }
  bool Object(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    Ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      Ws();
      std::string key;
      if (pos_ >= s_.size() || !String(&key)) return false;
      Ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      JsonValue v;
      if (!Value(&v)) return false;
      out->obj[key] = std::move(v);
      Ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

// Every test starts and ends with collection off, empty buffers, and the
// startup defaults, so tests compose in any order.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override { ResetAllState(); }
  void TearDown() override { ResetAllState(); }

  static void ResetAllState() {
    ResetForTesting();
    EnableTracing(false);
    EnableMetrics(false);
    Tracer::Get().Clear();
    Metrics::Get().ResetAll();
  }
};

TEST_F(ObsTest, SwitchesDefaultOffAndToggle) {
  EXPECT_FALSE(TracingEnabled());
  EXPECT_FALSE(MetricsEnabled());
  EnableTracing(true);
  EnableMetrics(true);
  EXPECT_TRUE(TracingEnabled());
  EXPECT_TRUE(MetricsEnabled());
  EnableTracing(false);
  EnableMetrics(false);
  EXPECT_FALSE(TracingEnabled());
  EXPECT_FALSE(MetricsEnabled());
}

TEST_F(ObsTest, DisabledTracingRecordsNothing) {
  {
    ScopedSpan outer("outer");
    ScopedSpan inner("inner");
  }
  EXPECT_TRUE(Tracer::Get().Snapshot().empty());
  EXPECT_EQ(Tracer::Get().recorded(), 0u);
}

TEST_F(ObsTest, SpanNestingAndOrdering) {
  EnableTracing(true);
  {
    ScopedSpan outer("outer");
    { ScopedSpan inner("inner"); }
    { ScopedSpan inner2("dynamic", std::string("suffix")); }
  }
  const std::vector<SpanEvent> spans = Tracer::Get().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  // Sorted by start time: outer opened first.
  EXPECT_EQ(spans[0].name, "outer");
  EXPECT_EQ(spans[1].name, "inner");
  EXPECT_EQ(spans[2].name, "dynamic/suffix");
  // Nesting: children start no earlier and end no later than the parent.
  for (int i = 1; i < 3; ++i) {
    EXPECT_GE(spans[i].start_us, spans[0].start_us);
    EXPECT_LE(spans[i].start_us + spans[i].dur_us,
              spans[0].start_us + spans[0].dur_us);
  }
  // All on the calling thread.
  EXPECT_EQ(spans[0].tid, spans[1].tid);
  EXPECT_EQ(spans[1].tid, spans[2].tid);
}

TEST_F(ObsTest, SpansCarryPerThreadIds) {
  EnableTracing(true);
  { ScopedSpan main_span("on_main"); }
  std::thread t([] { ScopedSpan worker_span("on_worker"); });
  t.join();
  const std::vector<SpanEvent> spans = Tracer::Get().Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  int main_tid = 0, worker_tid = 0;
  for (const SpanEvent& s : spans) {
    if (s.name == "on_main") main_tid = s.tid;
    if (s.name == "on_worker") worker_tid = s.tid;
  }
  EXPECT_GT(main_tid, 0);
  EXPECT_GT(worker_tid, 0);
  EXPECT_NE(main_tid, worker_tid);
}

TEST_F(ObsTest, ChromeTraceJsonSchema) {
  EnableTracing(true);
  {
    ScopedSpan a("alpha");
    ScopedSpan b("beta");
  }
  std::ostringstream os;
  Tracer::Get().WriteChromeTrace(os);
  const std::string text = os.str();

  JsonValue root;
  ASSERT_TRUE(JsonParser(text).Parse(&root)) << text;
  ASSERT_TRUE(root.is(JsonValue::Kind::kObject));
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is(JsonValue::Kind::kArray));
  ASSERT_FALSE(events->arr.empty());

  int complete_events = 0;
  for (const JsonValue& e : events->arr) {
    ASSERT_TRUE(e.is(JsonValue::Kind::kObject));
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is(JsonValue::Kind::kString));
    ASSERT_NE(e.find("name"), nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    EXPECT_TRUE(e.find("pid")->is(JsonValue::Kind::kNumber));
    EXPECT_TRUE(e.find("tid")->is(JsonValue::Kind::kNumber));
    if (ph->str == "X") {
      ++complete_events;
      const JsonValue* ts = e.find("ts");
      const JsonValue* dur = e.find("dur");
      ASSERT_NE(ts, nullptr);
      ASSERT_NE(dur, nullptr);
      EXPECT_TRUE(ts->is(JsonValue::Kind::kNumber));
      EXPECT_TRUE(dur->is(JsonValue::Kind::kNumber));
      EXPECT_GE(dur->num, 0.0);
    }
  }
  EXPECT_EQ(complete_events, 2);

  // Export is deterministic: a second write produces identical bytes.
  std::ostringstream os2;
  Tracer::Get().WriteChromeTrace(os2);
  EXPECT_EQ(text, os2.str());
}

// A bare double is neither percent nor fraction: only Quantile::P builds
// a quantile, so passing 0.99 where 99 is meant does not compile.
static_assert(!std::is_convertible_v<double, Quantile>);
// The Prometheus summary labels P(99) with its fraction: exactly "0.99".
static_assert(Quantile::P(99).fraction() == 0.99);

TEST_F(ObsTest, HistogramPercentilesAndStats) {
  Histogram h;
  for (int v = 1; v <= 1000; ++v) h.Observe(static_cast<double>(v));
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.sum(), 500500.0);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  // Power-of-two buckets: estimates are exact to within a factor of two.
  const double p50 = h.Snapshot().Percentile(Quantile::P(50.0));
  EXPECT_GE(p50, 250.0);
  EXPECT_LE(p50, 750.0);
  const double p99 = h.Snapshot().Percentile(Quantile::P(99.0));
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);  // clamped to the observed max
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(Quantile::P(0.0)), 1.0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(Quantile::P(100.0)), 1000.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_DOUBLE_EQ(h.Snapshot().Percentile(Quantile::P(50.0)), 0.0);
}

TEST_F(ObsTest, MetricsRegistryBasicsAndJson) {
  Metrics& m = Metrics::Get();
  m.counter("t.counter")->Add(3);
  m.counter("t.counter")->Add(4);
  EXPECT_EQ(m.counter("t.counter")->value(), 7);
  // Same name returns the same instrument.
  EXPECT_EQ(m.counter("t.counter"), m.counter("t.counter"));

  m.gauge("t.gauge")->Set(1.5);
  m.gauge("t.gauge")->Add(0.5);
  EXPECT_DOUBLE_EQ(m.gauge("t.gauge")->value(), 2.0);
  m.gauge("t.gauge")->SetMax(1.0);  // no-op: below current
  EXPECT_DOUBLE_EQ(m.gauge("t.gauge")->value(), 2.0);

  m.histogram("t.hist")->Observe(10.0);
  m.series("t.series")->Append(0, 1.0);
  m.series("t.series")->Append(1, 0.5);

  std::ostringstream os;
  m.WriteJson(os);
  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(&root)) << os.str();
  const JsonValue* schema = root.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->str, "dlner-metrics-v1");
  const JsonValue* series = root.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_TRUE(series->is(JsonValue::Kind::kObject));

  const JsonValue* counter = series->find("t.counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->find("type")->str, "counter");
  EXPECT_DOUBLE_EQ(counter->find("value")->num, 7.0);

  const JsonValue* hist = series->find("t.hist");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->find("type")->str, "histogram");
  EXPECT_DOUBLE_EQ(hist->find("count")->num, 1.0);
  ASSERT_NE(hist->find("p50"), nullptr);
  ASSERT_NE(hist->find("p99"), nullptr);

  const JsonValue* ser = series->find("t.series");
  ASSERT_NE(ser, nullptr);
  EXPECT_EQ(ser->find("type")->str, "series");
  ASSERT_EQ(ser->find("points")->arr.size(), 2u);

  // Deterministic: same registry, same bytes.
  std::ostringstream os2;
  m.WriteJson(os2);
  EXPECT_EQ(os.str(), os2.str());

  m.ResetAll();
  EXPECT_EQ(m.counter("t.counter")->value(), 0);
  EXPECT_TRUE(m.series("t.series")->points().empty());
}

TEST_F(ObsTest, WriteJsonCanSkipEmptyHistograms) {
  // The JSON export always leaves out histograms with no observations;
  // zero-valued counters and gauges stay, and the Prometheus exposition
  // keeps the empty histogram.
  Metrics& m = Metrics::Get();
  m.histogram("t.hist.empty");  // registered but never observed
  m.histogram("t.hist.filled")->Observe(3.0);
  m.counter("t.keep")->Add(1);
  m.counter("t.zero");
  m.gauge("t.zero_gauge");

  std::ostringstream os;
  m.WriteJson(os);
  JsonValue root;
  ASSERT_TRUE(JsonParser(os.str()).Parse(&root)) << os.str();
  const JsonValue* series = root.find("series");
  ASSERT_NE(series, nullptr);
  EXPECT_EQ(series->find("t.hist.empty"), nullptr);
  EXPECT_NE(series->find("t.hist.filled"), nullptr);
  EXPECT_NE(series->find("t.keep"), nullptr);
  EXPECT_NE(series->find("t.zero"), nullptr);
  EXPECT_NE(series->find("t.zero_gauge"), nullptr);
  std::ostringstream prom;
  m.WritePrometheus(prom);
  EXPECT_NE(prom.str().find("# TYPE t_hist_empty histogram"),
            std::string::npos);

  // Once observed, the histogram is exported.
  m.histogram("t.hist.empty")->Observe(1.0);
  std::ostringstream after;
  m.WriteJson(after);
  JsonValue root2;
  ASSERT_TRUE(JsonParser(after.str()).Parse(&root2)) << after.str();
  EXPECT_NE(root2.find("series")->find("t.hist.empty"), nullptr);
}

TEST_F(ObsTest, DisabledMetricsPathProducesNoTensorAccounting) {
  Metrics& m = Metrics::Get();
  ASSERT_FALSE(MetricsEnabled());
  {
    Tensor a({64, 64});
    Tensor b = a;
    Tensor c = std::move(b);
  }
  EXPECT_EQ(m.counter("tensor.allocs")->value(), 0);
  EXPECT_EQ(m.counter("tensor.alloc_bytes")->value(), 0);
  EXPECT_DOUBLE_EQ(m.gauge("tensor.live_bytes")->value(), 0.0);
  EXPECT_DOUBLE_EQ(m.gauge("tensor.peak_bytes")->value(), 0.0);
}

TEST_F(ObsTest, TensorAccountingBalancesLiveBytes) {
  EnableMetrics(true);
  Metrics& m = Metrics::Get();
  const double live_before = m.gauge("tensor.live_bytes")->value();
  {
    Tensor a({32, 32});
    Tensor b = a;             // copy re-tracks
    Tensor c = std::move(b);  // move transfers, no new allocation tracked
    EXPECT_GT(m.gauge("tensor.live_bytes")->value(), live_before);
    EXPECT_GE(m.gauge("tensor.peak_bytes")->value(),
              m.gauge("tensor.live_bytes")->value());
  }
  // Every tracked allocation was released on scope exit.
  EXPECT_DOUBLE_EQ(m.gauge("tensor.live_bytes")->value(), live_before);
  EXPECT_GE(m.counter("tensor.allocs")->value(), 2);
}

TEST_F(ObsTest, LoggerLevelFilteringAndForceLog) {
  SetLogLevel(LogLevel::kWarn);
  ::testing::internal::CaptureStderr();
  Log(LogLevel::kInfo, "dropped", {{"k", 1}});
  Log(LogLevel::kWarn, "kept", {{"k", 2}, {"s", "va\"lue"}, {"f", 0.5}});
  ForceLog(LogLevel::kInfo, "forced", {{"ok", true}});
  std::istringstream in(::testing::internal::GetCapturedStderr());

  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 2u);

  JsonValue first, second;
  ASSERT_TRUE(JsonParser(lines[0]).Parse(&first)) << lines[0];
  ASSERT_TRUE(JsonParser(lines[1]).Parse(&second)) << lines[1];
  EXPECT_EQ(first.find("event")->str, "kept");
  EXPECT_EQ(first.find("level")->str, "warn");
  EXPECT_DOUBLE_EQ(first.find("k")->num, 2.0);
  EXPECT_EQ(first.find("s")->str, "va\"lue");
  EXPECT_DOUBLE_EQ(first.find("f")->num, 0.5);
  ASSERT_NE(first.find("ts_us"), nullptr);
  EXPECT_EQ(second.find("event")->str, "forced");
  EXPECT_TRUE(second.find("ok")->b);
}

TEST_F(ObsTest, LogLevelStringRoundTrip) {
  for (const LogLevel level : {LogLevel::kDebug, LogLevel::kInfo,
                               LogLevel::kWarn, LogLevel::kError,
                               LogLevel::kOff}) {
    LogLevel parsed = LogLevel::kOff;
    ASSERT_TRUE(ParseLogLevel(LogLevelName(level), &parsed));
    EXPECT_EQ(parsed, level);
  }
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "info");
  LogLevel untouched = LogLevel::kError;
  EXPECT_FALSE(ParseLogLevel("bogus", &untouched));
  EXPECT_FALSE(ParseLogLevel("INFO", &untouched));
  EXPECT_EQ(untouched, LogLevel::kError);
}

// The switches have one way in each (the tools' flags or the Enable*/
// SetLogLevel calls): the environment does not seed them.
TEST_F(ObsTest, EnvironmentDoesNotSeedSwitches) {
  setenv("DLNER_TRACE", "1", 1);
  setenv("DLNER_METRICS", "1", 1);
  setenv("DLNER_LOG_LEVEL", "debug", 1);
  ResetForTesting();
  const bool tracing = TracingEnabled();
  const bool metrics = MetricsEnabled();
  const LogLevel level = GetLogLevel();
  unsetenv("DLNER_TRACE");
  unsetenv("DLNER_METRICS");
  unsetenv("DLNER_LOG_LEVEL");
  ResetForTesting();
  EXPECT_FALSE(tracing);
  EXPECT_FALSE(metrics);
  EXPECT_EQ(level, LogLevel::kWarn);
}

// The observability invariant the whole design leans on: collection must
// never change what the model computes.
TEST_F(ObsTest, TracingDoesNotChangeEvaluateOrPredictions) {
  const text::Corpus corpus = data::MakeDataset("conll-like", 24, 5);
  std::vector<std::string> types = {"LOC", "MISC", "ORG", "PER"};
  core::NerConfig config;
  config.encoder = "cnn";
  config.decoder = "crf";
  config.seed = 11;
  core::NerModel model(config, corpus, types);

  const eval::ExactResult plain = model.Evaluate(corpus);
  const auto plain_predictions = model.PredictCorpus(corpus);

  EnableTracing(true);
  EnableMetrics(true);
  const eval::ExactResult traced = model.Evaluate(corpus);
  const auto traced_predictions = model.PredictCorpus(corpus);
  EnableTracing(false);
  EnableMetrics(false);

  EXPECT_EQ(plain.micro.tp, traced.micro.tp);
  EXPECT_EQ(plain.micro.fp, traced.micro.fp);
  EXPECT_EQ(plain.micro.fn, traced.micro.fn);
  ASSERT_EQ(plain.per_type.size(), traced.per_type.size());
  for (const auto& [type, prf] : plain.per_type) {
    const auto it = traced.per_type.find(type);
    ASSERT_NE(it, traced.per_type.end());
    EXPECT_EQ(prf.tp, it->second.tp);
    EXPECT_EQ(prf.fp, it->second.fp);
    EXPECT_EQ(prf.fn, it->second.fn);
  }
  ASSERT_EQ(plain_predictions.size(), traced_predictions.size());
  for (std::size_t i = 0; i < plain_predictions.size(); ++i) {
    EXPECT_EQ(plain_predictions[i], traced_predictions[i]) << "sentence " << i;
  }

  // The traced run actually produced the spans the docs promise.
  std::vector<std::string> names;
  for (const SpanEvent& s : Tracer::Get().Snapshot()) names.push_back(s.name);
  for (const char* expected : {"evaluate", "predict_corpus", "encode/cnn",
                               "decode/crf", "embed"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing span " << expected;
  }
}

TEST_F(ObsTest, PlannedInferencePublishesArenaGaugesAndPlanSpans) {
  const text::Corpus corpus = data::MakeDataset("conll-like", 16, 6);
  std::vector<std::string> types = {"LOC", "MISC", "ORG", "PER"};
  core::NerConfig config;
  config.encoder = "cnn";
  config.decoder = "softmax";
  config.seed = 12;
  core::NerModel model(config, corpus, types);

  EnableTracing(true);
  EnableMetrics(true);
  model.Evaluate(corpus);
  EnableTracing(false);
  EnableMetrics(false);

  Metrics& m = Metrics::Get();
  EXPECT_GT(m.gauge("tensor.arena.bytes_reserved")->value(), 0.0);
  EXPECT_GT(m.gauge("tensor.arena.high_water")->value(), 0.0);
  // Peak live bytes can never exceed what the arena reserved.
  EXPECT_LE(m.gauge("tensor.arena.high_water")->value(),
            m.gauge("tensor.arena.bytes_reserved")->value());
  EXPECT_GT(m.counter("plan.batches")->value(), 0);
  EXPECT_EQ(m.counter("plan.sentences")->value(),
            static_cast<std::int64_t>(corpus.size()));

  std::vector<std::string> names;
  for (const SpanEvent& s : Tracer::Get().Snapshot()) names.push_back(s.name);
  for (const char* expected : {"plan/compile", "plan/batch"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing span " << expected;
  }
}

TEST_F(ObsTest, SpanArgsAndTraceContextReachChromeTrace) {
  EnableTracing(true);
  {
    ScopedTraceContext ctx(42);
    ScopedSpan span("annotated");
    span.Annotate("req", static_cast<std::int64_t>(7));
    span.Annotate("reqs", std::string("[1,2]"));
  }
  { ScopedSpan span("plain"); }
  EnableTracing(false);

  const std::string path = ::testing::TempDir() + "obs_args_trace.json";
  ASSERT_TRUE(Tracer::Get().WriteChromeTrace(path));
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  std::remove(path.c_str());
  JsonValue root;
  ASSERT_TRUE(JsonParser(buf.str()).Parse(&root)) << buf.str();
  const JsonValue* events = root.find("traceEvents");
  ASSERT_NE(events, nullptr);

  const JsonValue* annotated = nullptr;
  const JsonValue* plain = nullptr;
  for (const JsonValue& e : events->arr) {
    const JsonValue* name = e.find("name");
    if (name == nullptr) continue;
    if (name->str == "annotated") annotated = &e;
    if (name->str == "plain") plain = &e;
  }
  ASSERT_NE(annotated, nullptr);
  ASSERT_NE(plain, nullptr);

  const JsonValue* args = annotated->find("args");
  ASSERT_NE(args, nullptr);
  ASSERT_TRUE(args->is(JsonValue::Kind::kObject));
  ASSERT_NE(args->find("req"), nullptr);
  EXPECT_DOUBLE_EQ(args->find("req")->num, 7.0);
  const JsonValue* reqs = args->find("reqs");
  ASSERT_NE(reqs, nullptr);
  ASSERT_TRUE(reqs->is(JsonValue::Kind::kArray));
  ASSERT_EQ(reqs->arr.size(), 2u);
  const JsonValue* ctx_arg = args->find("ctx");
  ASSERT_NE(ctx_arg, nullptr);
  EXPECT_DOUBLE_EQ(ctx_arg->num, 42.0);

  // A span recorded with no annotations and no active context stays lean.
  EXPECT_EQ(plain->find("args"), nullptr);
}

TEST_F(ObsTest, TraceContextRestoredOnScopeExit) {
  EXPECT_EQ(CurrentTraceContext(), 0u);
  {
    ScopedTraceContext outer(5);
    EXPECT_EQ(CurrentTraceContext(), 5u);
    {
      ScopedTraceContext inner(9);
      EXPECT_EQ(CurrentTraceContext(), 9u);
    }
    EXPECT_EQ(CurrentTraceContext(), 5u);
  }
  EXPECT_EQ(CurrentTraceContext(), 0u);
}

TEST_F(ObsTest, PublishTraceMetricsExportsSpanCounters) {
  EnableTracing(true);
  { ScopedSpan a("one"); }
  { ScopedSpan b("two"); }
  EnableTracing(false);
  PublishTraceMetrics();
  Metrics& m = Metrics::Get();
  EXPECT_EQ(m.counter("trace.recorded_spans")->value(), 2);
  EXPECT_EQ(m.counter("trace.dropped_spans")->value(), 0);
  // Publish is reset-then-set: calling it again must not double-count.
  PublishTraceMetrics();
  EXPECT_EQ(m.counter("trace.recorded_spans")->value(), 2);
}

TEST_F(ObsTest, WritePrometheusExpositionShape) {
  Metrics& m = Metrics::Get();
  m.counter("t.requests.total")->Add(5);
  m.gauge("t.queue-depth")->Set(3.5);  // '-' must sanitize to '_'
  m.histogram("t.lat_us")->Observe(10.0);
  m.histogram("t.lat_us")->Observe(1000.0);
  m.series("t.curve")->Append(0, 1.0);  // series have no Prometheus shape

  std::ostringstream os;
  m.WritePrometheus(os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE t_requests_total counter\nt_requests_total 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE t_queue_depth gauge\nt_queue_depth 3.5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE t_lat_us histogram"), std::string::npos);
  EXPECT_NE(text.find("t_lat_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("t_lat_us_count 2"), std::string::npos);
  EXPECT_EQ(text.find("t_curve"), std::string::npos);

  // Exposition-format lint: every line is a comment or `name value` /
  // `name{labels} value`, names restricted to [a-zA-Z0-9_:].
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    ASSERT_FALSE(line.empty());
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    const std::size_t brace = name.find('{');
    if (brace != std::string::npos) {
      EXPECT_EQ(name.back(), '}') << line;
      name = name.substr(0, brace);
    }
    for (const char c : name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << line;
    }
    const std::string value = line.substr(space + 1);
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      char* end = nullptr;
      std::strtod(value.c_str(), &end);
      EXPECT_EQ(*end, '\0') << line;
    }
  }

  // Deterministic: same registry, same bytes.
  std::ostringstream os2;
  m.WritePrometheus(os2);
  EXPECT_EQ(text, os2.str());
}

TEST_F(ObsTest, RuntimePublishMetricsReportsPoolActivity) {
  EnableMetrics(true);
  runtime::ParallelFor(64, 8, [](std::int64_t, std::int64_t) {});
  runtime::Runtime::Get().PublishMetrics();
  Metrics& m = Metrics::Get();
  EXPECT_GE(m.gauge("runtime.threads")->value(), 1.0);
  EXPECT_GE(m.gauge("runtime.pool.parallel_fors")->value(), 1.0);
  EXPECT_GE(m.gauge("runtime.pool.effective_parallelism")->value(), 1.0);
  // Gauges snapshot, so publishing twice must not double-count.
  const double fors = m.gauge("runtime.pool.parallel_fors")->value();
  runtime::Runtime::Get().PublishMetrics();
  EXPECT_DOUBLE_EQ(m.gauge("runtime.pool.parallel_fors")->value(), fors);
}

}  // namespace
}  // namespace dlner::obs
