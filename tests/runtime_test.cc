#include <atomic>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/model.h"
#include "data/dataset.h"
#include "runtime/runtime.h"
#include "runtime/thread_pool.h"
#include "support/oracles.h"

namespace dlner::runtime {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasksAndDrainsOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 3);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destructor must finish every queued task before joining
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ZeroWorkersIsValidAndRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.workers(), 0);
  std::atomic<int> counter{0};
  pool.ParallelFor(10, 3, [&counter](std::int64_t begin, std::int64_t end) {
    counter.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndicesExactlyOnce) {
  ThreadPool pool(4);
  for (const auto& [total, grain] : std::vector<std::pair<int, int>>{
           {0, 1}, {1, 1}, {1, 8}, {7, 3}, {64, 8}, {65, 8}, {1000, 1}}) {
    std::vector<std::atomic<int>> hits(total);
    pool.ParallelFor(total, grain,
                     [&hits](std::int64_t begin, std::int64_t end) {
                       for (std::int64_t i = begin; i < end; ++i) {
                         hits[i].fetch_add(1);
                       }
                     });
    for (int i = 0; i < total; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "total=" << total << " grain=" << grain
                                   << " index=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForChunkBoundariesAreFixed) {
  // The deterministic-merge strategy in NerModel::Evaluate depends on chunk
  // c covering exactly [c*grain, min((c+1)*grain, total)).
  ThreadPool pool(4);
  const std::int64_t total = 53;
  const std::int64_t grain = 8;
  std::mutex mu;
  std::set<std::pair<std::int64_t, std::int64_t>> chunks;
  pool.ParallelFor(total, grain,
                   [&](std::int64_t begin, std::int64_t end) {
                     std::lock_guard<std::mutex> lock(mu);
                     chunks.insert({begin, end});
                   });
  std::set<std::pair<std::int64_t, std::int64_t>> expected;
  for (std::int64_t b = 0; b < total; b += grain) {
    expected.insert({b, std::min(b + grain, total)});
  }
  EXPECT_EQ(chunks, expected);
}

TEST(ThreadPoolTest, ParallelForPropagatesException) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.ParallelFor(100, 4,
                       [](std::int64_t begin, std::int64_t /*end*/) {
                         if (begin >= 48) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // The pool must stay usable after an exception.
  std::atomic<int> counter{0};
  pool.ParallelFor(10, 2, [&counter](std::int64_t begin, std::int64_t end) {
    counter.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.ParallelFor(8, 1, [&](std::int64_t /*begin*/, std::int64_t /*end*/) {
    pool.ParallelFor(8, 1,
                     [&counter](std::int64_t begin, std::int64_t end) {
                       counter.fetch_add(static_cast<int>(end - begin));
                     });
  });
  EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPoolTest, NumThreadsCountsCaller) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 4);
  ThreadPool inline_pool(0);
  EXPECT_EQ(inline_pool.num_threads(), 1);
}

TEST(ThreadPoolTest, StatsCountSubmittedJobs) {
  ThreadPool pool(2);
  for (int i = 0; i < 5; ++i) {
    pool.Submit([] {});
  }
  // Submitted jobs drain asynchronously; poll until the workers catch up.
  PoolStats stats = pool.stats();
  while (stats.jobs_executed < 5) {
    std::this_thread::yield();
    stats = pool.stats();
  }
  EXPECT_EQ(stats.jobs_executed, 5);
  EXPECT_EQ(stats.parallel_fors, 0);
}

TEST(ThreadPoolTest, StatsTrackParallelForChunks) {
  ThreadPool pool(2);
  // 10 indices at grain 3 -> chunks [0,3) [3,6) [6,9) [9,10).
  pool.ParallelFor(10, 3, [](std::int64_t, std::int64_t) {});
  pool.ParallelFor(4, 4, [](std::int64_t, std::int64_t) {});  // single chunk
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.parallel_fors, 2);
  // Every chunk ran exactly once, attributed to caller or helper.
  EXPECT_EQ(stats.chunks_total(), 4 + 1);
  EXPECT_GE(stats.chunks_caller, 1);  // the single-chunk call at minimum
}

TEST(ThreadPoolTest, ZeroWorkerStatsAttributeEverythingToCaller) {
  ThreadPool pool(0);
  pool.ParallelFor(12, 2, [](std::int64_t, std::int64_t) {});
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.chunks_caller, 6);
  EXPECT_EQ(stats.chunks_helper, 0);
  EXPECT_EQ(stats.jobs_executed, 0);
}

TEST(RuntimeTest, SetThreadsControlsPoolSize) {
  Runtime& rt = Runtime::Get();
  rt.SetThreads(3);
  EXPECT_EQ(rt.threads(), 3);
  // N logical threads = the caller plus N-1 pool workers.
  EXPECT_EQ(rt.pool().workers(), 2);
  rt.SetThreads(1);
  EXPECT_EQ(rt.threads(), 1);
  EXPECT_EQ(rt.pool().workers(), 0);
}

// --- Deterministic parallel evaluation ------------------------------------

bool SameResult(const eval::ExactResult& a, const eval::ExactResult& b) {
  if (a.micro.tp != b.micro.tp || a.micro.fp != b.micro.fp ||
      a.micro.fn != b.micro.fn) {
    return false;
  }
  if (a.macro_f1 != b.macro_f1) return false;  // bit-identical, not approx
  if (a.per_type.size() != b.per_type.size()) return false;
  for (const auto& [type, prf] : a.per_type) {
    auto it = b.per_type.find(type);
    if (it == b.per_type.end()) return false;
    if (prf.tp != it->second.tp || prf.fp != it->second.fp ||
        prf.fn != it->second.fn) {
      return false;
    }
  }
  return true;
}

TEST(ParallelEvaluateTest, BitIdenticalAcrossThreadCounts) {
  const text::Corpus corpus = data::MakeDataset("conll-like", 200, 7);
  core::NerConfig config;
  config.word_dim = 12;
  config.hidden_dim = 10;
  config.seed = 11;
  core::NerModel model(config, corpus, corpus.EntityTypes());

  // Reference: a manual serial pass over the corpus.
  eval::ExactMatchEvaluator serial;
  for (const auto& s : corpus.sentences) {
    serial.Add(s.spans, testsup::EagerPredict(model, s.tokens));
  }
  const eval::ExactResult reference = serial.Result();

  for (const int threads : {1, 2, 8}) {
    Runtime::Get().SetThreads(threads);
    const eval::ExactResult parallel = model.Evaluate(corpus);
    EXPECT_TRUE(SameResult(reference, parallel))
        << "threads=" << threads << ": micro tp/fp/fn "
        << parallel.micro.tp << "/" << parallel.micro.fp << "/"
        << parallel.micro.fn << " vs " << reference.micro.tp << "/"
        << reference.micro.fp << "/" << reference.micro.fn;
  }
  Runtime::Get().SetThreads(1);
}

TEST(ParallelEvaluateTest, PredictCorpusMatchesSequentialPredict) {
  const text::Corpus corpus = data::MakeDataset("wnut-like", 60, 3);
  core::NerConfig config;
  config.word_dim = 12;
  config.hidden_dim = 10;
  config.encoder = "cnn";
  config.decoder = "softmax";
  config.seed = 23;
  core::NerModel model(config, corpus, corpus.EntityTypes());

  Runtime::Get().SetThreads(4);
  const auto parallel = model.PredictCorpus(corpus);
  Runtime::Get().SetThreads(1);

  ASSERT_EQ(static_cast<int>(parallel.size()), corpus.size());
  for (int i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(parallel[i],
              testsup::EagerPredict(model, corpus.sentences[i].tokens))
        << "sentence " << i;
  }
}

}  // namespace
}  // namespace dlner::runtime
