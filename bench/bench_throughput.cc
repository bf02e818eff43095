// Inference throughput benchmark: compiled-plan (packed batch) corpus
// inference, the path NerModel::PredictCorpus and serving run, for the
// softmax/CRF decoders crossed with the BiLSTM/CNN encoders and the
// survey's standard char-CNN + BiLSTM + CRF cell, plus a single-thread
// MatMul kernel microbenchmark (raw-pointer GEMM kernel vs the
// bounds-checked triple loop it replaced).
//
// Recorded series (dlner-metrics-v1 snapshot, written to --out, default
// BENCH_throughput.json, intended to be run from the repo root and
// committed):
//   bench.planned.<model>.sentences_per_sec  plan path, thread sweep over
//                                            powers of two up to the host's
//                                            cores, plus the core count;
//                                            each point is the median of
//                                            kRepeats timed runs
//   bench.planned.<model>.spread             per point, (max - min) / median
//                                            of those runs
//   bench.throughput.<model>.speedup_4t      only when the sweep reaches 4
//   bench.hardware_concurrency               cores the host reports
// On a single-core host a multi-thread speedup is unmeasurable (the sweep
// is just 1 thread), so bench.multithread_unmeasurable = 1 is recorded.
//
// SIMD series (docs/PERFORMANCE.md):
//   bench.simd_isa                           0=scalar 1=avx2 2=avx512
//   bench.simd.<kernel>_gflops               explicit-ISA microkernels,
//   bench.scalar.<kernel>_gflops             vs the true-scalar reference
//                                            (kernel in gemm, affine;
//                                            x = reduction dim k)
//   bench.simd.<fn>_gelems_per_s             elementwise primitives per
//   bench.scalar.<fn>_gelems_per_s           element (fn in sigmoid, tanh,
//                                            relu, mul, mul_mul_add, blend,
//                                            norm_apply, row_max; x =
//                                            elements per call)
//   bench.libm.<fn>_gelems_per_s             the libm expressions Sigmoid
//                                            and Tanh replaced
//
// Timing loops run with collection disabled so the numbers measure the
// zero-overhead path; the registry is populated afterwards.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/flags.h"
#include "core/model.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "tensor/batched.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/simd/simd.h"

namespace {

using namespace dlner;
using namespace dlner::bench;

// Runs `pass` (one inference pass over `corpus`) repeatedly for >=
// min_seconds after one warmup pass and returns sentences/sec.
template <typename Pass>
double MeasureThroughput(const Pass& pass, const text::Corpus& corpus,
                         double min_seconds) {
  pass();  // warmup: faults pages, primes arena/allocator
  int repeats = 0;
  obs::Stopwatch sw;
  do {
    pass();
    ++repeats;
  } while (sw.Seconds() < min_seconds);
  return repeats * static_cast<double>(corpus.size()) / sw.Seconds();
}

// The MatMul forward kernel this repo replaced: Tensor::at() is bounds-
// checked on every access even in Release builds, which is exactly what the
// raw-pointer GEMM kernel avoids.
Tensor NaiveMatMul(const Tensor& a, const Tensor& b) {
  const int m = a.rows(), k = a.cols(), n = b.cols();
  Tensor out({m, n});
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) {
      const Float av = a.at(i, p);
      if (av == 0.0) continue;
      for (int j = 0; j < n; ++j) out.at(i, j) += av * b.at(p, j);
    }
  }
  return out;
}

struct MatMulResult {
  double naive_gflops = 0.0;
  double kernel_gflops = 0.0;
  double speedup = 0.0;
};

MatMulResult MeasureMatMul(int m, int k, int n, double min_seconds) {
  Rng rng(99);
  Tensor ta({m, k}), tb({k, n});
  for (int i = 0; i < ta.size(); ++i) ta[i] = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < tb.size(); ++i) tb[i] = rng.Uniform(-1.0, 1.0);
  const double flops_per_call = 2.0 * m * k * n;

  MatMulResult result;
  {
    volatile Float sink = 0.0;
    int repeats = 0;
    obs::Stopwatch sw;
    do {
      Tensor c = NaiveMatMul(ta, tb);
      sink = sink + c[0];
      ++repeats;
    } while (sw.Seconds() < min_seconds);
    result.naive_gflops = repeats * flops_per_call / sw.Seconds() / 1e9;
  }
  {
    NoGradGuard no_grad;
    Var va = Constant(ta);
    Var vb = Constant(tb);
    volatile Float sink = 0.0;
    int repeats = 0;
    obs::Stopwatch sw;
    do {
      Var c = MatMul(va, vb);
      sink = sink + c->value[0];
      ++repeats;
    } while (sw.Seconds() < min_seconds);
    result.kernel_gflops = repeats * flops_per_call / sw.Seconds() / 1e9;
  }
  result.speedup = result.kernel_gflops / result.naive_gflops;
  return result;
}

// Timed runs per (cell, thread count) point. The runs of one cell go round
// robin over its thread counts, so a burst of host noise lands on one run
// of several points rather than on every run of one point.
constexpr int kRepeats = 5;

struct ModelRun {
  std::string name;
  std::vector<int> threads;
  // Plan path, one entry per thread count: median of the runs, and their
  // (max - min) / median.
  std::vector<double> planned, spread;
};

// One microkernel shape: C[m,n] += A[m,k] . B[k,n].
struct KernelShape {
  int m, k, n;
};

constexpr KernelShape kKernelShapes[] = {{64, 48, 96}, {256, 96, 96},
                                         {64, 300, 48}};

// GFLOP/s of gemm::GemmAccum on one shape for one ISA (counting 2*m*k*n
// flops per call, the dense-GEMM convention also used by MeasureMatMul).
template <class Isa>
double MeasureGemmKernel(const KernelShape& s, double min_seconds) {
  Rng rng(7);
  std::vector<Float> a(static_cast<std::size_t>(s.m) * s.k);
  std::vector<Float> b(static_cast<std::size_t>(s.k) * s.n);
  std::vector<Float> c(static_cast<std::size_t>(s.m) * s.n, 0.0);
  for (Float& v : a) v = rng.Uniform(-1.0, 1.0);
  for (Float& v : b) v = rng.Uniform(-1.0, 1.0);
  volatile Float sink = 0.0;
  int repeats = 0;
  obs::Stopwatch sw;
  do {
    gemm::GemmAccum<Isa>(a.data(), b.data(), c.data(), s.m, s.k, s.n);
    sink = sink + c[0];
    ++repeats;
  } while (sw.Seconds() < min_seconds);
  return repeats * 2.0 * s.m * s.k * s.n / sw.Seconds() / 1e9;
}

// GFLOP/s of the fused batched::Affine (GEMM + bias + ReLU epilogue).
template <class Isa>
double MeasureAffineKernel(const KernelShape& s, double min_seconds) {
  Rng rng(7);
  std::vector<Float> x(static_cast<std::size_t>(s.m) * s.k);
  std::vector<Float> out(static_cast<std::size_t>(s.m) * s.n);
  Tensor w({s.k, s.n}), bias({s.n});
  for (Float& v : x) v = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < w.size(); ++i) w[i] = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < bias.size(); ++i) bias[i] = rng.Uniform(-1.0, 1.0);
  volatile Float sink = 0.0;
  int repeats = 0;
  obs::Stopwatch sw;
  do {
    batched::Affine<Isa>(x.data(), s.m, w, bias, out.data(),
                         batched::Act::kRelu);
    sink = sink + out[0];
    ++repeats;
  } while (sw.Seconds() < min_seconds);
  return repeats * 2.0 * s.m * s.k * s.n / sw.Seconds() / 1e9;
}

// Elements per call of the elementwise series: an odd length (vector
// tails), the served LSTM's hidden width (tanh of g and of c) and its three
// sigmoid gates.
constexpr int kElemLengths[] = {17, 64, 192};

// One elementwise primitive updating p[0] in place; p[1], p[2] and p[3]
// are its other operands.
using ElemFn = void (*)(double* const* p, int n);

template <class Isa>
struct ElemCalls {
  static void Sigmoid(double* const* p, int n) { Isa::Sigmoid(p[0], n); }
  static void Tanh(double* const* p, int n) { Isa::Tanh(p[0], n); }
  static void Relu(double* const* p, int n) { Isa::Relu(p[0], n); }
  static void Mul(double* const* p, int n) { Isa::Mul(p[0], p[1], p[0], n); }
  static void MulMulAdd(double* const* p, int n) {
    Isa::MulMulAdd(p[0], p[1], p[2], p[3], p[0], n);
  }
  static void Blend(double* const* p, int n) {
    Isa::Blend(p[1], p[0], p[2], p[0], n);
  }
  static void NormApply(double* const* p, int n) {
    Isa::NormApply(p[0], 0.25, 1.5, p[1], p[2], p[0], n);
  }
  static void RowMax(double* const* p, int n) { Isa::RowMax(p[1], p[0], n); }
};

// The per-element expressions Sigmoid and Tanh replaced, as a baseline.
void LibmSigmoid(double* const* p, int n) {
  double* x = p[0];
  for (int i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
}
void LibmTanh(double* const* p, int n) {
  double* x = p[0];
  for (int i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
}

// Billions of elements per second of an elementwise `fn` on n inputs per
// operand, uniform in [-6, 6] (the gates' working range). Every call first
// restores the updated operand with one memcpy, which the rate includes.
double MeasureElementwise(ElemFn fn, int n, double min_seconds) {
  Rng rng(7);
  std::vector<Float> src(n), x(n), y(n), z(n), w(n);
  for (std::vector<Float>* v : {&src, &y, &z, &w}) {
    for (Float& e : *v) e = rng.Uniform(-6.0, 6.0);
  }
  double* const p[] = {x.data(), y.data(), z.data(), w.data()};
  volatile Float sink = 0.0;
  int repeats = 0;
  obs::Stopwatch sw;
  do {
    std::memcpy(x.data(), src.data(), sizeof(Float) * n);
    fn(p, n);
    sink = sink + x[0];
    ++repeats;
  } while (sw.Seconds() < min_seconds);
  return static_cast<double>(repeats) * n / sw.Seconds() / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const core::FlagSpec spec{{"out", core::FlagKind::kValue},
                            {"min-seconds", core::FlagKind::kValue}};
  core::Args args;
  if (!args.Parse(argc, argv, 1, spec)) {
    std::fprintf(stderr, "bench_throughput: %s\n", args.error().c_str());
    return 1;
  }
  const std::string out_path = args.Get("out", "BENCH_throughput.json");
  const double min_seconds = args.GetDouble("min-seconds", 1.0);

  PrintHeader("Inference throughput (compiled plan)");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency = %u\n", hw);
  std::printf("simd_isa = %s (id %d)\n", simd::kIsaName, simd::kIsaId);
  if (hw <= 1) {
    std::printf("single-core host: multi-thread speedup unmeasurable\n");
  }
  std::printf("\n");

  const text::Corpus corpus = data::MakeDataset("conll-like", 300, 17);
  const auto types = corpus.EntityTypes();
  // Powers of two up to the host's cores, then the core count itself:
  // threads beyond it only time-share cores.
  std::vector<int> thread_counts;
  const int cores = std::max(1, static_cast<int>(hw));
  for (int t = 1; t < cores; t *= 2) thread_counts.push_back(t);
  thread_counts.push_back(cores);

  // The four survey-taxonomy cells at the toolkit's default (tiny) dims,
  // plus one serving-sized CNN cell: at width 24 the packed GEMMs are only
  // a fraction of end-to-end time (embedding fill, layout, and decode
  // bookkeeping bound the rest), so the wide cell is where kernel-level
  // SIMD wins show up at full strength in sentences/sec. The
  // charcnn+bilstm+crf cell is the survey's standard cell (§3.2.2, Fig. 3;
  // Lample et al. 2016), with the default char dims.
  struct Cell {
    const char* name;
    const char* encoder;
    const char* decoder;
    int word_dim;
    int hidden_dim;
    bool char_cnn;
  };
  const Cell cells[] = {
      {"bilstm+softmax", "bilstm", "softmax", 24, 24, false},
      {"bilstm+crf", "bilstm", "crf", 24, 24, false},
      {"cnn+softmax", "cnn", "softmax", 24, 24, false},
      {"cnn+crf", "cnn", "crf", 24, 24, false},
      {"cnn-wide+softmax", "cnn", "softmax", 64, 96, false},
      {"charcnn+bilstm+crf", "bilstm", "crf", 24, 24, true}};

  std::vector<ModelRun> runs;
  {
    for (const Cell& cell : cells) {
      core::NerConfig config;
      config.encoder = cell.encoder;
      config.decoder = cell.decoder;
      config.word_dim = cell.word_dim;
      config.hidden_dim = cell.hidden_dim;
      config.use_char_cnn = cell.char_cnn;
      config.seed = 31;
      core::NerModel model(config, corpus, types);

      ModelRun run;
      run.name = cell.name;

      const auto planned = [&] { model.Evaluate(corpus); };
      std::vector<std::vector<double>> samples(thread_counts.size());
      for (int rep = 0; rep < kRepeats; ++rep) {
        for (std::size_t i = 0; i < thread_counts.size(); ++i) {
          runtime::Runtime::Get().SetThreads(thread_counts[i]);
          samples[i].push_back(
              MeasureThroughput(planned, corpus, min_seconds));
        }
      }
      for (std::size_t i = 0; i < thread_counts.size(); ++i) {
        const RunStats stats = Summarize(samples[i]);
        run.threads.push_back(thread_counts[i]);
        run.planned.push_back(stats.median);
        run.spread.push_back(stats.spread);
      }

      std::printf("%-18s plan", run.name.c_str());
      for (std::size_t i = 0; i < run.threads.size(); ++i) {
        std::printf("  %dt: %7.1f (spread %4.1f%%)", run.threads[i],
                    run.planned[i], 100.0 * run.spread[i]);
      }
      std::printf(" sent/s\n");
      runs.push_back(std::move(run));
    }
  }
  runtime::Runtime::Get().SetThreads(1);

  std::printf("\nMatMul kernel microbenchmark (single thread)\n");
  const MatMulResult mm = MeasureMatMul(40, 48, 96, min_seconds);
  std::printf("  naive .at() kernel : %6.3f GFLOP/s\n", mm.naive_gflops);
  std::printf("  raw-pointer kernel : %6.3f GFLOP/s\n", mm.kernel_gflops);
  std::printf("  speedup            : %6.2fx\n", mm.speedup);

  // Per-kernel GFLOP/s, explicit ISA vs true-scalar reference, over the
  // microkernel shapes (x axis of each series = reduction dim k). Each
  // shape gets min_seconds/3 so the section costs about as much as one
  // model cell.
  std::printf("\nSIMD microkernels (%s vs scalar, GFLOP/s by k)\n",
              simd::kIsaName);
  const double kernel_seconds = min_seconds / 3.0;
  struct KernelSeries {
    const char* name;
    std::vector<double> simd, scalar;  // one entry per kKernelShapes
  };
  std::vector<KernelSeries> kernels = {{"gemm", {}, {}},
                                       {"affine", {}, {}}};
  for (const KernelShape& s : kKernelShapes) {
    kernels[0].simd.push_back(
        MeasureGemmKernel<simd::Active>(s, kernel_seconds));
    kernels[0].scalar.push_back(
        MeasureGemmKernel<simd::Scalar>(s, kernel_seconds));
    kernels[1].simd.push_back(
        MeasureAffineKernel<simd::Active>(s, kernel_seconds));
    kernels[1].scalar.push_back(
        MeasureAffineKernel<simd::Scalar>(s, kernel_seconds));
  }
  for (const KernelSeries& ks : kernels) {
    std::printf("  %-8s", ks.name);
    for (std::size_t i = 0; i < ks.simd.size(); ++i) {
      std::printf("  k=%-3d %6.3f vs %6.3f (%4.2fx)", kKernelShapes[i].k,
                  ks.simd[i], ks.scalar[i],
                  ks.scalar[i] > 0.0 ? ks.simd[i] / ks.scalar[i] : 0.0);
    }
    std::printf("\n");
  }

  std::printf(
      "\nElementwise primitives (%s vs scalar [vs libm], Gelem/s by n)\n",
      simd::kIsaName);
  using SimdCalls = ElemCalls<simd::Active>;
  using ScalarCalls = ElemCalls<simd::Scalar>;
  struct ElemSeries {
    const char* name;
    ElemFn simd, scalar;
    ElemFn libm = nullptr;  // Sigmoid and Tanh only
    std::vector<double> simd_rate = {}, scalar_rate = {}, libm_rate = {};
  };
  std::vector<ElemSeries> elementwise = {
      {"sigmoid", SimdCalls::Sigmoid, ScalarCalls::Sigmoid, LibmSigmoid},
      {"tanh", SimdCalls::Tanh, ScalarCalls::Tanh, LibmTanh},
      {"relu", SimdCalls::Relu, ScalarCalls::Relu},
      {"mul", SimdCalls::Mul, ScalarCalls::Mul},
      {"mul_mul_add", SimdCalls::MulMulAdd, ScalarCalls::MulMulAdd},
      {"blend", SimdCalls::Blend, ScalarCalls::Blend},
      {"norm_apply", SimdCalls::NormApply, ScalarCalls::NormApply},
      {"row_max", SimdCalls::RowMax, ScalarCalls::RowMax}};
  for (ElemSeries& es : elementwise) {
    std::printf("  %-11s", es.name);
    for (const int n : kElemLengths) {
      es.simd_rate.push_back(MeasureElementwise(es.simd, n, kernel_seconds));
      es.scalar_rate.push_back(
          MeasureElementwise(es.scalar, n, kernel_seconds));
      std::printf("  n=%-3d %5.3f vs %5.3f", n, es.simd_rate.back(),
                  es.scalar_rate.back());
      if (es.libm != nullptr) {
        es.libm_rate.push_back(
            MeasureElementwise(es.libm, n, kernel_seconds));
        std::printf(" vs %5.3f", es.libm_rate.back());
      }
    }
    std::printf("\n");
  }

  // Publish everything through the metrics registry and snapshot it.
  // Collection was off during the timing loops; flipping it on now only
  // affects bookkeeping done below.
  obs::EnableMetrics(true);
  obs::Metrics& m = obs::Metrics::Get();
  m.gauge("bench.hardware_concurrency")->Set(static_cast<double>(hw));
  m.gauge("bench.simd_isa")->Set(static_cast<double>(simd::kIsaId));
  m.gauge("bench.corpus_sentences")->Set(static_cast<double>(corpus.size()));
  if (hw <= 1) m.gauge("bench.multithread_unmeasurable")->Set(1.0);
  for (const ModelRun& run : runs) {
    obs::Series* planned =
        m.series("bench.planned." + run.name + ".sentences_per_sec");
    obs::Series* spread = m.series("bench.planned." + run.name + ".spread");
    double t1 = 0.0, t4 = 0.0;
    for (std::size_t i = 0; i < run.threads.size(); ++i) {
      planned->Append(static_cast<double>(run.threads[i]), run.planned[i]);
      spread->Append(static_cast<double>(run.threads[i]), run.spread[i]);
      if (run.threads[i] == 1) t1 = run.planned[i];
      if (run.threads[i] == 4) t4 = run.planned[i];
    }
    // Recorded only when the sweep ran 4 threads, i.e. the host has them.
    if (t4 > 0.0) {
      m.gauge("bench.throughput." + run.name + ".speedup_4t")
          ->Set(t1 > 0.0 ? t4 / t1 : 0.0);
    }
  }
  m.gauge("bench.matmul.naive_gflops")->Set(mm.naive_gflops);
  m.gauge("bench.matmul.kernel_gflops")->Set(mm.kernel_gflops);
  m.gauge("bench.matmul.speedup")->Set(mm.speedup);
  for (const KernelSeries& ks : kernels) {
    obs::Series* simd_series =
        m.series(std::string("bench.simd.") + ks.name + "_gflops");
    obs::Series* scalar_series =
        m.series(std::string("bench.scalar.") + ks.name + "_gflops");
    for (std::size_t i = 0; i < ks.simd.size(); ++i) {
      simd_series->Append(static_cast<double>(kKernelShapes[i].k),
                          ks.simd[i]);
      scalar_series->Append(static_cast<double>(kKernelShapes[i].k),
                            ks.scalar[i]);
    }
  }
  for (const ElemSeries& es : elementwise) {
    const std::string suffix = std::string(".") + es.name + "_gelems_per_s";
    obs::Series* simd_series = m.series("bench.simd" + suffix);
    obs::Series* scalar_series = m.series("bench.scalar" + suffix);
    for (std::size_t i = 0; i < std::size(kElemLengths); ++i) {
      const double n = static_cast<double>(kElemLengths[i]);
      simd_series->Append(n, es.simd_rate[i]);
      scalar_series->Append(n, es.scalar_rate[i]);
      if (es.libm != nullptr) {
        m.series("bench.libm" + suffix)->Append(n, es.libm_rate[i]);
      }
    }
  }
  // Thread-pool counters from the measured Evaluate runs.
  runtime::Runtime::Get().PublishMetrics();
  obs::MetricsJsonOptions json_options;
  json_options.skip_empty_histograms = true;  // benches never fill them
  if (!m.WriteJson(out_path, json_options)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
