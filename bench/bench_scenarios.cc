// Hostile-input scenario benchmark (Table-1-style grid): every architecture
// cell gets an exact-match micro-F1 on every scenario corpus from
// src/data/scenarios.h, plus a doc-context on/off comparison on the
// entity-consistency scenario run through the streaming tagger.
//
// Recorded series (dlner-metrics-v1 snapshot, written to --out, default
// BENCH_scenarios.json, intended to be run from the repo root and
// committed):
//   bench.scenarios.<cell>.<scenario>.f1   test-set micro-F1 (x = scenario
//                                          index in data::AllScenarios())
//   bench.scenarios.doc_context.off        streaming F1, stateless
//   bench.scenarios.doc_context.on         streaming F1, entity memory on
//   bench.scenarios.doc_context.delta      on - off
//   bench.scenarios.count                  scenarios evaluated
//   bench.hardware_concurrency             cores the host reports
//   bench.simd_isa                         0=scalar 1=avx2 2=avx512
//
// Each scenario trains on its matched clean split (MakeScenarioSplit): the
// realistic setting where the hostile property appears only at test time.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "applied/nested.h"
#include "bench/bench_common.h"
#include "core/flags.h"
#include "core/pipeline.h"
#include "data/scenarios.h"
#include "eval/metrics.h"
#include "obs/metrics.h"
#include "stream/stream_tagger.h"
#include "tensor/simd/simd.h"

namespace {

using namespace dlner;
using namespace dlner::bench;

struct Cell {
  const char* name;
  const char* encoder;
  const char* decoder;
  bool shape;
};

// Taxonomy cells spanning both encoder families and both tag-decoder
// families, plus a shape-feature hybrid (the survey's Table 3 axes).
constexpr Cell kCells[] = {
    {"cnn+softmax", "cnn", "softmax", false},
    {"cnn+crf", "cnn", "crf", false},
    {"bilstm+softmax", "bilstm", "softmax", false},
    {"bilstm+crf", "bilstm", "crf", false},
    {"bilstm+crf+shape", "bilstm", "crf", true},
};

core::NerConfig CellConfig(const Cell& cell, uint64_t seed) {
  core::NerConfig config;
  config.encoder = cell.encoder;
  config.decoder = cell.decoder;
  config.use_shape = cell.shape;
  config.word_dim = 16;
  config.hidden_dim = 16;
  config.word_unk_dropout = 0.2;
  config.seed = seed;
  return config;
}

double TrainAndScoreScenario(const core::NerConfig& config,
                             data::Scenario scenario,
                             const data::ScenarioSplit& split,
                             const std::vector<std::string>& types,
                             int epochs) {
  core::TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = 0.015;
  if (scenario == data::Scenario::kDiscontinuous) {
    // Component spans of a discontinuous mention overlap its coordinated
    // sibling, so flat tag decoding does not apply; the layered nested-NER
    // decomposition (applied/nested.h) trains one flat model per level and
    // evaluates against the overlapping gold.
    applied::LayeredNerModel model(config, types);
    model.Train(split.train, tc);
    return model.Evaluate(split.test).micro.f1();
  }
  core::NerModel model(config, split.train, types);
  core::Trainer trainer(&model, tc);
  trainer.Train(split.train, nullptr);
  return model.Evaluate(split.test).micro.f1();
}

// Streams every document of `corpus` through a StreamTagger and returns
// micro-F1 against the gold spans. The scenario generators follow the
// streaming sentence conventions, so the emitted sentence split must match
// the corpus 1:1 — anything else is a bug worth crashing on.
double StreamF1(const core::Pipeline& pipeline, const text::Corpus& corpus,
                bool doc_context) {
  std::vector<std::vector<text::Span>> gold, predicted;
  for (int d = 0; d < corpus.DocCount(); ++d) {
    stream::StreamOptions opts;
    opts.doc_context = doc_context;
    stream::StreamTagger tagger(&pipeline, opts);
    std::vector<stream::TaggedSentence> emitted;
    const std::string raw = data::RenderDocument(corpus, d);
    for (stream::TaggedSentence& ts : tagger.Feed(raw)) {
      emitted.push_back(std::move(ts));
    }
    for (stream::TaggedSentence& ts : tagger.Flush()) {
      emitted.push_back(std::move(ts));
    }
    const auto [first, last] = corpus.DocRange(d);
    if (static_cast<int>(emitted.size()) != last - first) {
      std::fprintf(stderr,
                   "stream/corpus sentence mismatch in doc %d: %zu vs %d\n", d,
                   emitted.size(), last - first);
      std::exit(1);
    }
    for (int i = first; i < last; ++i) {
      gold.push_back(corpus.sentences[static_cast<size_t>(i)].spans);
      predicted.push_back(std::move(emitted[static_cast<size_t>(i - first)].spans));
    }
  }
  return eval::EvaluateExact(gold, predicted).micro.f1();
}

}  // namespace

int main(int argc, char** argv) {
  const core::FlagSpec spec{{"out", core::FlagKind::kValue},
                            {"epochs", core::FlagKind::kValue},
                            {"sentences", core::FlagKind::kValue},
                            {"min-doc-tokens", core::FlagKind::kValue},
                            {"seed", core::FlagKind::kValue}};
  core::Args args;
  if (!args.Parse(argc, argv, 1, spec)) {
    std::fprintf(stderr, "bench_scenarios: %s\n", args.error().c_str());
    return 1;
  }
  const std::string out_path = args.Get("out", "BENCH_scenarios.json");
  const int epochs = args.GetInt("epochs", 8);
  const int num_sentences = args.GetInt("sentences", 140);
  const int min_doc_tokens = args.GetInt("min-doc-tokens", 10000);
  const uint64_t seed = args.GetUInt64("seed", 5);

  PrintHeader("Hostile-input scenarios (architecture cells x scenarios)");

  obs::Metrics& m = obs::Metrics::Get();
  std::printf("%-18s", "cell");
  for (const data::Scenario sc : data::AllScenarios()) {
    std::printf(" %14s", data::ScenarioToString(sc).c_str());
  }
  std::printf("\n");

  std::vector<double> cell_f1;  // filled row-major for the metrics pass
  for (const Cell& cell : kCells) {
    std::printf("%-18s", cell.name);
    for (const data::Scenario sc : data::AllScenarios()) {
      data::ScenarioOptions opts;
      opts.seed = seed;
      opts.num_sentences = num_sentences;
      opts.min_doc_tokens = min_doc_tokens;
      const data::ScenarioSplit split = data::MakeScenarioSplit(sc, opts);
      const double f1 = TrainAndScoreScenario(
          CellConfig(cell, seed + 31), sc, split,
          data::ScenarioEntityTypes(sc), epochs);
      cell_f1.push_back(f1);
      std::printf(" %14.3f", f1);
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  // Doc-context differential: one pipeline trained on the cue-rich
  // consistency training split, then the SAME pipeline streams the test
  // documents with the entity memory off vs on. The only variable is the
  // document state.
  PrintHeader("Doc-context differential (entity-consistency scenario)");
  data::ScenarioOptions copts;
  copts.seed = seed;
  copts.num_sentences = std::max(num_sentences, 60);
  const data::ScenarioSplit consistency =
      data::MakeScenarioSplit(data::Scenario::kEntityConsistency, copts);
  core::NerConfig config;
  config.encoder = "bilstm";
  config.decoder = "crf";
  config.word_dim = 16;
  config.hidden_dim = 16;
  config.word_unk_dropout = 0.2;
  config.seed = seed + 97;
  core::TrainConfig tc;
  tc.epochs = std::max(epochs, 8);
  tc.lr = 0.015;
  const auto pipeline = core::Pipeline::Train(
      config, tc, consistency.train, nullptr,
      data::ScenarioEntityTypes(data::Scenario::kEntityConsistency));
  const double off_f1 = StreamF1(*pipeline, consistency.test, false);
  const double on_f1 = StreamF1(*pipeline, consistency.test, true);
  std::printf("doc_context off: F1 = %.3f\n", off_f1);
  std::printf("doc_context on : F1 = %.3f  (delta %+.3f)\n", on_f1,
              on_f1 - off_f1);

  obs::EnableMetrics(true);
  std::size_t row = 0;
  for (const Cell& cell : kCells) {
    int x = 0;
    for (const data::Scenario sc : data::AllScenarios()) {
      m.series("bench.scenarios." + std::string(cell.name) + "." +
               data::ScenarioToString(sc) + ".f1")
          ->Append(static_cast<double>(x++), cell_f1[row++]);
    }
  }
  m.gauge("bench.scenarios.count")
      ->Set(static_cast<double>(data::AllScenarios().size()));
  m.gauge("bench.scenarios.doc_context.off")->Set(off_f1);
  m.gauge("bench.scenarios.doc_context.on")->Set(on_f1);
  m.gauge("bench.scenarios.doc_context.delta")->Set(on_f1 - off_f1);
  m.gauge("bench.hardware_concurrency")
      ->Set(static_cast<double>(std::thread::hardware_concurrency()));
  m.gauge("bench.simd_isa")->Set(static_cast<double>(simd::kIsaId));
  if (!m.WriteJson(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
