// Inference throughput benchmark: compiled-plan (packed batch) corpus
// inference, the path NerModel::PredictCorpus and serving run, for the
// softmax/CRF decoders crossed with the BiLSTM/CNN encoders and the
// survey's standard char-CNN + BiLSTM + CRF cell; eager training
// throughput of two cells; plus a single-thread MatMul kernel
// microbenchmark (raw-pointer GEMM kernel vs the bounds-checked triple
// loop it replaced).
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
//   bench.train.<cell>.sentences_per_sec     eager training (Trainer::Train,
//                                            2 epochs over the 300-sentence
//                                            corpus) at 1 thread, for
//                                            charcnn+bilstm+crf and
//                                            cnn+pointer; median of
//                                            kRepeats runs
//   bench.train.<cell>.spread                (max - min) / median of them
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
//   <each of the above>.spread               per point, (max - min) /
//                                            median of its batch rates
// Each kernel point (and bench.matmul.*) is the fastest of kBatches timed
// batches of calls, and the batches of all points go round robin: a burst
// of host noise then costs one batch of several points, not a point.
//
// Timing loops run with collection disabled so the numbers measure the
// zero-overhead path; the registry is populated afterwards.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <iterator>
#include <memory>
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

struct KernelRate {
  double best = 0.0;    // work per second of the fastest batch
  double spread = 0.0;  // (max - min) / median of the batch rates
};

// One kernel point: run(calls) makes `calls` calls of the kernel, each
// doing `work` units of work (billions of flops or of elements), and
// MeasureRates stores the point's rate in *out.
struct KernelProbe {
  std::function<void(long)> run;
  double work;
  KernelRate* out;
};

// Keeps every timed result live.
volatile Float g_sink = 0.0;

constexpr int kBatches = 7;

// Times every probe as kBatches batches of calls, each batch sized once to
// last about `batch_seconds`. The batches go round robin over the probes,
// so a burst of host noise lands on one batch of many points rather than
// on every batch of one point, and each point keeps its fastest batch.
void MeasureRates(const std::vector<KernelProbe>& probes,
                  double batch_seconds) {
  std::vector<long> calls(probes.size(), 1);
  for (std::size_t i = 0; i < probes.size(); ++i) {
    probes[i].run(1);  // warmup
    for (;;) {
      obs::Stopwatch sw;
      probes[i].run(calls[i]);
      if (sw.Seconds() >= batch_seconds) break;
      calls[i] *= 2;
    }
  }
  std::vector<std::vector<double>> rates(probes.size());
  for (int b = 0; b < kBatches; ++b) {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      obs::Stopwatch sw;
      probes[i].run(calls[i]);
      rates[i].push_back(static_cast<double>(calls[i]) * probes[i].work /
                         sw.Seconds());
    }
  }
  for (std::size_t i = 0; i < probes.size(); ++i) {
    *probes[i].out = {*std::max_element(rates[i].begin(), rates[i].end()),
                      Summarize(rates[i]).spread};
  }
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

// The old `.at()` MatMul (into *naive) and the eager MatMul op (into
// *kernel) on [m,k] x [k,n], counting 2*m*k*n flops per call.
void AddMatMulProbes(int m, int k, int n, KernelRate* naive,
                     KernelRate* kernel, std::vector<KernelProbe>* probes) {
  Rng rng(99);
  Tensor ta({m, k}), tb({k, n});
  for (int i = 0; i < ta.size(); ++i) ta[i] = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < tb.size(); ++i) tb[i] = rng.Uniform(-1.0, 1.0);
  const double gflop = 2.0 * m * k * n / 1e9;
  probes->push_back({[ta, tb](long calls) {
                       for (long i = 0; i < calls; ++i) {
                         g_sink = g_sink + NaiveMatMul(ta, tb)[0];
                       }
                     },
                     gflop, naive});
  probes->push_back({[va = Constant(ta), vb = Constant(tb)](long calls) {
                       NoGradGuard no_grad;
                       for (long i = 0; i < calls; ++i) {
                         g_sink = g_sink + MatMul(va, vb)->value[0];
                       }
                     },
                     gflop, kernel});
}

// Timed runs per (cell, thread count) point, and per training cell. The
// runs of one cell go round robin over its thread counts (the training
// runs over the cells), so a burst of host noise lands on one run of
// several points rather than on every run of one point.
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
// flops per call, the dense-GEMM convention also used for MatMul).
template <class Isa>
KernelProbe GemmProbe(const KernelShape& s, KernelRate* out) {
  Rng rng(7);
  std::vector<Float> a(static_cast<std::size_t>(s.m) * s.k);
  std::vector<Float> b(static_cast<std::size_t>(s.k) * s.n);
  std::vector<Float> c(static_cast<std::size_t>(s.m) * s.n, 0.0);
  for (Float& v : a) v = rng.Uniform(-1.0, 1.0);
  for (Float& v : b) v = rng.Uniform(-1.0, 1.0);
  return {[a, b, c, s](long calls) mutable {
            for (long i = 0; i < calls; ++i) {
              gemm::GemmAccum<Isa>(a.data(), b.data(), c.data(), s.m, s.k,
                                   s.n);
              g_sink = g_sink + c[0];
            }
          },
          2.0 * s.m * s.k * s.n / 1e9, out};
}

// GFLOP/s of the fused batched::Affine (GEMM + bias + ReLU epilogue).
template <class Isa>
KernelProbe AffineProbe(const KernelShape& s, KernelRate* out) {
  Rng rng(7);
  std::vector<Float> x(static_cast<std::size_t>(s.m) * s.k);
  std::vector<Float> y(static_cast<std::size_t>(s.m) * s.n);
  Tensor w({s.k, s.n}), bias({s.n});
  for (Float& v : x) v = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < w.size(); ++i) w[i] = rng.Uniform(-1.0, 1.0);
  for (int i = 0; i < bias.size(); ++i) bias[i] = rng.Uniform(-1.0, 1.0);
  return {[x, y, w, bias, s](long calls) mutable {
            for (long i = 0; i < calls; ++i) {
              batched::Affine<Isa>(x.data(), s.m, w, bias, y.data(),
                                   batched::Act::kRelu);
              g_sink = g_sink + y[0];
            }
          },
          2.0 * s.m * s.k * s.n / 1e9, out};
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
// The five operands sit back to back, each rounded up to a cache line, in
// one 64-byte-aligned block: their relative placement, and with it any 4K
// aliasing between the store stream and the loads, is the same in every
// process rather than whatever the heap handed out.
KernelProbe ElementwiseProbe(ElemFn fn, int n, KernelRate* out) {
  const std::size_t stride = (static_cast<std::size_t>(n) + 7) / 8 * 8;
  const std::shared_ptr<Float> block(
      static_cast<Float*>(std::aligned_alloc(64, 5 * stride * sizeof(Float))),
      std::free);
  Float* const src = block.get();
  double* const p[] = {src + stride, src + 2 * stride, src + 3 * stride,
                       src + 4 * stride};  // x, then the other operands
  Rng rng(7);
  for (Float* v : {src, p[1], p[2], p[3]}) {
    for (int i = 0; i < n; ++i) v[i] = rng.Uniform(-6.0, 6.0);
  }
  return {[fn, n, block, src, p](long calls) {
            for (long i = 0; i < calls; ++i) {
              std::memcpy(p[0], src, sizeof(Float) * n);
              fn(p, n);
              g_sink = g_sink + p[0][0];
            }
          },
          n / 1e9, out};
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
  const auto config_of = [](const Cell& cell) {
    core::NerConfig config;
    config.encoder = cell.encoder;
    config.decoder = cell.decoder;
    config.word_dim = cell.word_dim;
    config.hidden_dim = cell.hidden_dim;
    config.use_char_cnn = cell.char_cnn;
    config.seed = 31;
    return config;
  };

  std::vector<ModelRun> runs;
  {
    for (const Cell& cell : cells) {
      core::NerModel model(config_of(cell), corpus, types);

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

  // Eager training, the autograd path the plan does not run: each run
  // trains a fresh model from the same seed for kTrainEpochs epochs over
  // the corpus at 1 thread, going round robin over the cells. The
  // charcnn+bilstm+crf cell's time is mostly recurrent gate steps on
  // vectors; cnn+pointer's is the pointer decoder's per-segment scoring.
  const Cell train_cells[] = {cells[5],
                              {"cnn+pointer", "cnn", "pointer", 24, 24, false}};
  constexpr int kTrainEpochs = 2;
  std::vector<std::vector<double>> train_samples(std::size(train_cells));
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (std::size_t i = 0; i < std::size(train_cells); ++i) {
      core::NerModel model(config_of(train_cells[i]), corpus, types);
      core::TrainConfig tc;
      tc.epochs = kTrainEpochs;
      tc.lr = 0.015;
      core::Trainer trainer(&model, tc);
      obs::Stopwatch sw;
      trainer.Train(corpus, nullptr);
      train_samples[i].push_back(kTrainEpochs * corpus.size() /
                                 sw.Seconds());
    }
  }
  std::printf("\nEager training (1 thread, %d epochs)\n", kTrainEpochs);
  std::vector<RunStats> train_stats;
  for (std::size_t i = 0; i < std::size(train_cells); ++i) {
    train_stats.push_back(Summarize(train_samples[i]));
    std::printf("  %-18s %7.1f sent/s (spread %4.1f%%)\n",
                train_cells[i].name, train_stats[i].median,
                100.0 * train_stats[i].spread);
  }

  // Single-thread kernel points: the MatMul op against the `.at()` loop
  // it replaced, per-kernel GFLOP/s of the explicit ISA against the
  // true-scalar reference over the microkernel shapes (x axis = reduction
  // dim k), and every elementwise primitive against the scalar reference
  // (Sigmoid and Tanh also against libm). Each point gets about
  // min_seconds/3, so the section costs about as much as one model cell.
  using SimdCalls = ElemCalls<simd::Active>;
  using ScalarCalls = ElemCalls<simd::Scalar>;
  struct KernelSeries {
    const char* name;
    // One entry per kKernelShapes.
    std::vector<KernelRate> simd =
        std::vector<KernelRate>(std::size(kKernelShapes));
    std::vector<KernelRate> scalar =
        std::vector<KernelRate>(std::size(kKernelShapes));
  };
  struct ElemSeries {
    const char* name;
    ElemFn simd, scalar;
    ElemFn libm = nullptr;  // Sigmoid and Tanh only
    // One entry per kElemLengths.
    std::vector<KernelRate> simd_rate =
        std::vector<KernelRate>(std::size(kElemLengths));
    std::vector<KernelRate> scalar_rate =
        std::vector<KernelRate>(std::size(kElemLengths));
    std::vector<KernelRate> libm_rate =
        std::vector<KernelRate>(std::size(kElemLengths));
  };
  KernelRate naive_mm, kernel_mm;
  std::vector<KernelSeries> kernels = {{"gemm"}, {"affine"}};
  std::vector<ElemSeries> elementwise = {
      {"sigmoid", SimdCalls::Sigmoid, ScalarCalls::Sigmoid, LibmSigmoid},
      {"tanh", SimdCalls::Tanh, ScalarCalls::Tanh, LibmTanh},
      {"relu", SimdCalls::Relu, ScalarCalls::Relu},
      {"mul", SimdCalls::Mul, ScalarCalls::Mul},
      {"mul_mul_add", SimdCalls::MulMulAdd, ScalarCalls::MulMulAdd},
      {"blend", SimdCalls::Blend, ScalarCalls::Blend},
      {"norm_apply", SimdCalls::NormApply, ScalarCalls::NormApply},
      {"row_max", SimdCalls::RowMax, ScalarCalls::RowMax}};
  std::vector<KernelProbe> probes;
  AddMatMulProbes(40, 48, 96, &naive_mm, &kernel_mm, &probes);
  for (std::size_t i = 0; i < std::size(kKernelShapes); ++i) {
    const KernelShape& s = kKernelShapes[i];
    probes.push_back(GemmProbe<simd::Active>(s, &kernels[0].simd[i]));
    probes.push_back(GemmProbe<simd::Scalar>(s, &kernels[0].scalar[i]));
    probes.push_back(AffineProbe<simd::Active>(s, &kernels[1].simd[i]));
    probes.push_back(AffineProbe<simd::Scalar>(s, &kernels[1].scalar[i]));
  }
  for (ElemSeries& es : elementwise) {
    for (std::size_t i = 0; i < std::size(kElemLengths); ++i) {
      const int n = kElemLengths[i];
      probes.push_back(ElementwiseProbe(es.simd, n, &es.simd_rate[i]));
      probes.push_back(ElementwiseProbe(es.scalar, n, &es.scalar_rate[i]));
      if (es.libm != nullptr) {
        probes.push_back(ElementwiseProbe(es.libm, n, &es.libm_rate[i]));
      }
    }
  }
  MeasureRates(probes, min_seconds / 3.0 / kBatches);

  std::printf("\nMatMul kernel microbenchmark (single thread)\n");
  const double mm_speedup = kernel_mm.best / naive_mm.best;
  std::printf("  naive .at() kernel : %6.3f GFLOP/s\n", naive_mm.best);
  std::printf("  raw-pointer kernel : %6.3f GFLOP/s\n", kernel_mm.best);
  std::printf("  speedup            : %6.2fx\n", mm_speedup);

  std::printf("\nSIMD microkernels (%s vs scalar, GFLOP/s by k)\n",
              simd::kIsaName);
  for (const KernelSeries& ks : kernels) {
    std::printf("  %-8s", ks.name);
    for (std::size_t i = 0; i < ks.simd.size(); ++i) {
      const double simd_rate = ks.simd[i].best;
      const double scalar_rate = ks.scalar[i].best;
      std::printf("  k=%-3d %6.3f vs %6.3f (%4.2fx)", kKernelShapes[i].k,
                  simd_rate, scalar_rate,
                  scalar_rate > 0.0 ? simd_rate / scalar_rate : 0.0);
    }
    std::printf("\n");
  }

  std::printf(
      "\nElementwise primitives (%s vs scalar [vs libm], Gelem/s by n)\n",
      simd::kIsaName);
  for (const ElemSeries& es : elementwise) {
    std::printf("  %-11s", es.name);
    for (std::size_t i = 0; i < std::size(kElemLengths); ++i) {
      std::printf("  n=%-3d %5.3f vs %5.3f", kElemLengths[i],
                  es.simd_rate[i].best, es.scalar_rate[i].best);
      if (es.libm != nullptr) std::printf(" vs %5.3f", es.libm_rate[i].best);
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
  for (std::size_t i = 0; i < std::size(train_cells); ++i) {
    const std::string prefix =
        std::string("bench.train.") + train_cells[i].name;
    m.series(prefix + ".sentences_per_sec")->Append(1.0, train_stats[i].median);
    m.series(prefix + ".spread")->Append(1.0, train_stats[i].spread);
  }
  m.gauge("bench.matmul.naive_gflops")->Set(naive_mm.best);
  m.gauge("bench.matmul.kernel_gflops")->Set(kernel_mm.best);
  m.gauge("bench.matmul.speedup")->Set(mm_speedup);
  // A kernel point goes to `name` and its spread to `name`.spread.
  const auto publish = [&m](const std::string& name, double x,
                            const KernelRate& rate) {
    m.series(name)->Append(x, rate.best);
    m.series(name + ".spread")->Append(x, rate.spread);
  };
  for (const KernelSeries& ks : kernels) {
    const std::string suffix = std::string(".") + ks.name + "_gflops";
    for (std::size_t i = 0; i < ks.simd.size(); ++i) {
      const double k = static_cast<double>(kKernelShapes[i].k);
      publish("bench.simd" + suffix, k, ks.simd[i]);
      publish("bench.scalar" + suffix, k, ks.scalar[i]);
    }
  }
  for (const ElemSeries& es : elementwise) {
    const std::string suffix = std::string(".") + es.name + "_gelems_per_s";
    for (std::size_t i = 0; i < std::size(kElemLengths); ++i) {
      const double n = static_cast<double>(kElemLengths[i]);
      publish("bench.simd" + suffix, n, es.simd_rate[i]);
      publish("bench.scalar" + suffix, n, es.scalar_rate[i]);
      if (es.libm != nullptr) {
        publish("bench.libm" + suffix, n, es.libm_rate[i]);
      }
    }
  }
  // Thread-pool counters from the measured Evaluate runs.
  runtime::Runtime::Get().PublishMetrics();
  if (!m.WriteJson(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  return 0;
}
