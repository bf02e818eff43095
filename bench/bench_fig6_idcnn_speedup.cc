// E4 — Fig. 6 / Section 3.3.1: ID-CNN test-time speedup over BiLSTM-CRF.
//
// Strubell et al.'s claim, quoted by the survey: "ID-CNNs achieve 14-20x
// test-time speedups compared to Bi-LSTM-CRF while retaining comparable
// accuracy", because "fixed-depth convolutions run in parallel across
// entire documents" while the LSTM's recurrence is strictly sequential.
//
// The speedup is a *parallelism* result: on GPU hardware the convolution
// at every position executes simultaneously, so latency is governed by
// the length of the longest chain of dependent operations. One CPU core
// gains only what packed GEMMs give the convolutions over the stepped
// recurrence, so the measurable counterpart of the claim here is the
// SEQUENTIAL CRITICAL-PATH LENGTH of the computation graph: O(depth) for
// the ID-CNN versus O(T) for the BiLSTM. We report both (wall time of the
// planned path that serving runs, critical path for the claim), plus the
// accuracy parity after identical training budgets. Each wall-clock cell is
// the median of kRuns alternating timings, with its spread, since one run
// on a shared host can be off by more than the ratio being measured.
#include <unordered_map>

#include "bench/bench_common.h"

namespace {

using namespace dlner;
using namespace dlner::bench;

// Longest chain of dependent ops from graph leaves to `node` — the number
// of sequential steps a maximally parallel device would need.
int CriticalPathDepth(const Var& node,
                      std::unordered_map<Variable*, int>* memo) {
  auto it = memo->find(node.get());
  if (it != memo->end()) return it->second;
  int best = 0;
  for (const Var& p : node->parents) {
    best = std::max(best, CriticalPathDepth(p, memo));
  }
  const int depth = best + 1;
  (*memo)[node.get()] = depth;
  return depth;
}

// Timings per cell and document length; the table reports their median
// and (max - min) / median.
constexpr int kRuns = 5;

double Throughput(const core::NerModel& model,
                  const std::vector<std::string>& doc, int repeats) {
  text::Corpus corpus;
  corpus.sentences.push_back({doc, {}});
  model.PredictCorpus(corpus);  // warm-up
  obs::Stopwatch sw;
  for (int r = 0; r < repeats; ++r) model.PredictCorpus(corpus);
  return repeats * static_cast<double>(doc.size()) / sw.Seconds();
}

}  // namespace

int main() {
  PrintHeader("E4: ID-CNN vs BiLSTM-CRF test-time speed (survey Fig. 6)");

  const auto genre = data::Genre::kNews;
  const auto& types = data::EntityTypesFor(genre);
  data::DataSplit bd = data::MakeOovSplit(genre, 200, 100, 31);

  core::NerConfig lstm_config;
  lstm_config.encoder = "bilstm";
  lstm_config.hidden_dim = 48;
  lstm_config.decoder = "crf";
  core::NerConfig idcnn_config = lstm_config;
  idcnn_config.encoder = "idcnn";
  idcnn_config.idcnn_dilations = {1, 2, 4};
  idcnn_config.idcnn_iterations = 2;

  // Per-architecture learning rates, as in the original works: the stacked
  // ReLU dilated convolutions need a smaller step than the gated LSTM.
  core::TrainConfig lstm_tc;
  lstm_tc.epochs = 10;
  lstm_tc.lr = 0.015;
  core::TrainConfig idcnn_tc = lstm_tc;
  idcnn_tc.lr = 0.008;

  core::NerModel lstm(lstm_config, bd.train, types);
  core::NerModel idcnn(idcnn_config, bd.train, types);
  {
    core::Trainer t1(&lstm, lstm_tc);
    t1.Train(bd.train, nullptr);
    core::Trainer t2(&idcnn, idcnn_tc);
    t2.Train(bd.train, nullptr);
  }
  const double f1_lstm = lstm.Evaluate(bd.test).micro.f1();
  const double f1_idcnn = idcnn.Evaluate(bd.test).micro.f1();

  auto sentences = data::GenerateUnlabeledText(genre, 200, 33);
  std::vector<std::string> words;
  for (const auto& s : sentences) {
    for (const auto& w : s) words.push_back(w);
  }

  std::printf(
      "accuracy: BiLSTM-CRF F1=%.3f  ID-CNN-CRF F1=%.3f (delta %+.3f)\n\n",
      f1_lstm, f1_idcnn, f1_idcnn - f1_lstm);
  std::printf("%8s | %16s %16s %6s | %11s %11s %9s\n", "doc len",
              "LSTM tok/s", "IDCNN tok/s", "ratio", "LSTM depth",
              "IDCNN depth", "parallel");
  std::printf("%8s | %41s | %23s %9s\n", "",
              "planned-path wall clock, median (spread)",
              "sequential critical path", "speedup");
  for (int len : {32, 64, 128, 256, 512}) {
    std::vector<std::string> doc(words.begin(), words.begin() + len);
    const int repeats = std::max(2, 1024 / len);
    // Both cells timed kRuns times, alternating which goes first, so a
    // slow stretch of a shared host lands on both.
    std::vector<double> runs_lstm, runs_idcnn;
    for (int run = 0; run < kRuns; ++run) {
      if (run % 2 == 1) runs_idcnn.push_back(Throughput(idcnn, doc, repeats));
      runs_lstm.push_back(Throughput(lstm, doc, repeats));
      if (run % 2 == 0) runs_idcnn.push_back(Throughput(idcnn, doc, repeats));
    }
    const RunStats tps_lstm = Summarize(runs_lstm);
    const RunStats tps_idcnn = Summarize(runs_idcnn);

    // Critical path of the encoder graph (the component the claim is
    // about; the CRF decode is shared by both systems).
    Var rep_l = lstm.Represent(doc, false);
    std::unordered_map<Variable*, int> memo_l;
    const int depth_lstm =
        CriticalPathDepth(lstm.EncodeTokens(rep_l, doc, false), &memo_l);
    Var rep_i = idcnn.Represent(doc, false);
    std::unordered_map<Variable*, int> memo_i;
    const int depth_idcnn =
        CriticalPathDepth(idcnn.EncodeTokens(rep_i, doc, false), &memo_i);

    std::printf("%8d | %8.0f (%4.1f%%) %8.0f (%4.1f%%) %5.2fx | %11d %11d "
                "%8.1fx\n",
                len, tps_lstm.median, 100.0 * tps_lstm.spread,
                tps_idcnn.median, 100.0 * tps_idcnn.spread,
                tps_idcnn.median / tps_lstm.median, depth_lstm, depth_idcnn,
                static_cast<double>(depth_lstm) / depth_idcnn);
  }
  std::printf(
      "\nShape check vs the paper: accuracy is comparable, and the ID-CNN's\n"
      "sequential critical path is constant in document length while the\n"
      "BiLSTM's grows linearly — the depth ratio (the upper bound a\n"
      "time-parallel device can exploit) passes the paper's 14-20x band\n"
      "within a few dozen tokens and keeps growing. On one core the planned\n"
      "path gains only what packed convolution GEMMs give over the stepped\n"
      "recurrence; the 14-20x claim is a parallel-hardware result\n"
      "(substitution note in DESIGN.md).\n");
  return 0;
}
