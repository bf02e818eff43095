// Tests of the benchmark's own measurement code: percentiles (p in
// [0, 100]) over samples and over the server's bucket histograms, the
// Prometheus reader, seeded arrival and Zipf streams, and the load client's
// loops against a local fake server.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "perf/client.h"
#include "perf/inputs.h"
#include "perf/stats.h"

namespace perf {
namespace {

TEST(PercentileTest, NearestRankWithPInZeroToHundred) {
  std::vector<double> v;
  for (int i = 1; i <= 200; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50), 100);
  EXPECT_EQ(Percentile(v, 99), 198);
  EXPECT_EQ(Percentile(v, 100), 200);
  EXPECT_EQ(Percentile(v, 0), 1);
  EXPECT_EQ(CountAbove(v, Percentile(v, 99)), 2u);
  EXPECT_EQ(Median({3, 1, 2, 10}), 2.5);
  EXPECT_EQ(Percentile({}, 50), 0);
}

// 90 samples in [1024, 2047] and 10 in [2048, 4095], as obs::Histogram
// buckets them (bucket b >= 1 holds [2^(b-1), 2^b - 1]).
BucketHistogram HandBuilt() {
  BucketHistogram h;
  h.counts[11] = 90;
  h.counts[12] = 10;
  h.count = 100;
  h.sum = 90 * 1500.0 + 10 * 3000.0;
  return h;
}

TEST(BucketPercentileTest, InterpolatesInsideTheSelectedBucket) {
  const BucketHistogram h = HandBuilt();
  // p50: target rank 50 of 100, 50/90 of the way through [1024, 2047].
  EXPECT_NEAR(BucketPercentile(h, 50), 1024 + 1023 * (50.0 / 90.0), 1e-9);
  // p99: rank 99, 9/10 of the way through [2048, 4095].
  EXPECT_NEAR(BucketPercentile(h, 99), 2048 + 2047 * 0.9, 1e-9);
  EXPECT_NEAR(BucketPercentile(h, 100), 4095, 1e-9);
  EXPECT_EQ(BucketPercentile(BucketHistogram{}, 50), 0);
}

TEST(BucketPercentileTest, FractionArgumentIsNotTheMedian) {
  // Passing 0.5 for the median asks for p0.5: the bottom of the range.
  const BucketHistogram h = HandBuilt();
  EXPECT_LT(BucketPercentile(h, 0.5), 1030);
  EXPECT_GT(BucketPercentile(h, 50), 1500);
}

TEST(PromTest, ReadsCumulativeBucketsAndSubtracts) {
  // The shape Metrics::WritePrometheus emits: occupied buckets only,
  // cumulative counts, then +Inf, _sum and _count.
  const std::string before =
      "# TYPE serve_stage_compute_us histogram\n"
      "serve_stage_compute_us_bucket{le=\"0\"} 2\n"
      "serve_stage_compute_us_bucket{le=\"2047\"} 12\n"
      "serve_stage_compute_us_bucket{le=\"+Inf\"} 12\n"
      "serve_stage_compute_us_sum 15000\n"
      "serve_stage_compute_us_count 12\n"
      "# TYPE serve_batch_deadline_flushes gauge\n"
      "serve_batch_deadline_flushes 7\n";
  const std::string after =
      "# TYPE serve_stage_compute_us histogram\n"
      "serve_stage_compute_us_bucket{le=\"0\"} 2\n"
      "serve_stage_compute_us_bucket{le=\"2047\"} 102\n"
      "serve_stage_compute_us_bucket{le=\"4095\"} 112\n"
      "serve_stage_compute_us_bucket{le=\"+Inf\"} 112\n"
      "serve_stage_compute_us_sum 180000\n"
      "serve_stage_compute_us_count 112\n";
  BucketHistogram a, b;
  ASSERT_TRUE(ParsePromHistogram(before, "serve.stage.compute_us", &a));
  ASSERT_TRUE(ParsePromHistogram(after, "serve.stage.compute_us", &b));
  EXPECT_EQ(a.counts[0], 2);
  EXPECT_EQ(a.counts[11], 10);
  const BucketHistogram d = Subtract(b, a);
  EXPECT_EQ(d.count, 100);
  EXPECT_EQ(d.counts[0], 0);
  EXPECT_EQ(d.counts[11], 90);
  EXPECT_EQ(d.counts[12], 10);
  EXPECT_DOUBLE_EQ(d.Mean(), 1650.0);
  EXPECT_NEAR(BucketPercentile(d, 99), BucketPercentile(HandBuilt(), 99), 1e-9);
  double flushes = 0;
  EXPECT_TRUE(ParsePromValue(before, "serve.batch.deadline_flushes", &flushes));
  EXPECT_EQ(flushes, 7);
  EXPECT_FALSE(ParsePromValue(after, "serve.batch.deadline_flushes", &flushes));
  BucketHistogram absent;
  EXPECT_TRUE(ParsePromHistogram(after, "serve.stage.write_us", &absent));
  EXPECT_EQ(absent.count, 0);
}

TEST(PoissonTest, SameSeedSameScheduleAndTheRateHolds) {
  const auto a = PoissonArrivals(7, 600.0, 20'000'000);
  EXPECT_EQ(a, PoissonArrivals(7, 600.0, 20'000'000));
  EXPECT_NE(a, PoissonArrivals(8, 600.0, 20'000'000));
  ASSERT_FALSE(a.empty());
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 20'000'000);
  // 12000 expected arrivals; 5 sigma is about 550.
  EXPECT_NEAR(static_cast<double>(a.size()), 12000.0, 550.0);
}

TEST(ZipfTest, SameSeedSameDrawsAndRankFrequencies) {
  const ZipfSampler zipf(3000, 1.0);
  dlner::Rng r1(5), r2(5);
  std::vector<std::size_t> a, b;
  std::map<std::size_t, int> freq;
  for (int i = 0; i < 50000; ++i) {
    a.push_back(zipf.Sample(&r1));
    b.push_back(zipf.Sample(&r2));
    ++freq[a.back()];
  }
  EXPECT_EQ(a, b);
  for (const std::size_t rank : a) ASSERT_LT(rank, 3000u);
  // P(rank 0) / P(rank 1) = 2^s = 2.
  EXPECT_NEAR(static_cast<double>(freq[0]) / freq[1], 2.0, 0.2);
  // H(3000) is about 8.58, so rank 0 takes about 11.7% of draws.
  EXPECT_NEAR(freq[0] / 50000.0, 1.0 / 8.58, 0.01);
}

TEST(JsonTest, ReadsFieldsOfServerReplies) {
  const std::string line =
      "{\"id\":3,\"metrics\":\"# TYPE a gauge\\na 1\\n\\\"q\\\"\","
      "\"batches\":42,\"window\":{\"p50_us\":2.5}}";
  std::string text;
  ASSERT_TRUE(JsonStringField(line, "metrics", &text));
  EXPECT_EQ(text, "# TYPE a gauge\na 1\n\"q\"");
  double v = 0;
  ASSERT_TRUE(JsonNumberField(line, "batches", &v));
  EXPECT_EQ(v, 42);
  EXPECT_EQ(ResponseId(line), 3);
  EXPECT_EQ(ResponseId("{\"error\":1}"), -1);
}

// Answers each request line {"id":N,...} with {"id":N,"ok":true} after
// `delay_us`, one connection at a time per thread.
class FakeServer {
 public:
  explicit FakeServer(int delay_us) : delay_us_(delay_us) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(fd_, 16);
    socklen_t len = sizeof(addr);
    ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    acceptor_ = std::thread([this] {
      for (;;) {
        const int c = ::accept(fd_, nullptr, nullptr);
        if (c < 0) return;
        workers_.emplace_back([this, c] { Serve(c); });
      }
    });
  }
  ~FakeServer() {
    ::shutdown(fd_, SHUT_RDWR);
    acceptor_.join();
    for (std::thread& t : workers_) t.join();
    ::close(fd_);
  }
  int port() const { return port_; }

 private:
  void Serve(int c) {
    std::string buf;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(c, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buf.append(chunk, static_cast<std::size_t>(n));
      std::size_t nl;
      while ((nl = buf.find('\n')) != std::string::npos) {
        const std::int64_t id = ResponseId(buf.substr(0, nl));
        buf.erase(0, nl + 1);
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us_));
        const std::string reply =
            "{\"id\":" + std::to_string(id) + ",\"ok\":true}\n";
        ::send(c, reply.data(), reply.size(), MSG_NOSIGNAL);
      }
    }
    ::close(c);
  }

  int delay_us_;
  int fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::vector<std::thread> workers_;
};

TEST(LoadClientTest, ClosedLoopObeysLittlesLaw) {
  FakeServer server(/*delay_us=*/1000);
  constexpr int kConnsUsed = 4, kWindow = 8;
  std::vector<Call> calls;
  std::int64_t start = 0, stop = 0;
  {
    LoadClient client;
    ASSERT_TRUE(client.Connect(server.port(), kConnsUsed));
    start = NowUs();
    stop = start + 1'500'000;
    client.RunClosed(
        kWindow, stop, stop + 5'000'000,
        [](int, std::int64_t id) { return AdminLine(id, "ping"); }, &calls);
  }
  // Over the steady part of the run: throughput x mean latency = requests
  // in flight = connections x window.
  const std::int64_t from = start + 500'000;
  std::vector<double> latency_s;
  std::int64_t completed = 0;
  for (const Call& c : calls) {
    ASSERT_GE(c.done_us, 0);
    if (c.done_us >= from && c.done_us < stop) ++completed;
    if (c.due_us >= from && c.due_us < stop) {
      latency_s.push_back(static_cast<double>(c.done_us - c.due_us) / 1e6);
    }
  }
  const double throughput = static_cast<double>(completed) /
                            (static_cast<double>(stop - from) / 1e6);
  const double in_flight = throughput * Mean(latency_s);
  EXPECT_NEAR(in_flight, kConnsUsed * kWindow, 0.08 * kConnsUsed * kWindow);
}

TEST(LoadClientTest, OpenLoopTimesFromTheSchedule) {
  FakeServer server(/*delay_us=*/200);
  LoadClient client;
  ASSERT_TRUE(client.Connect(server.port(), 2));
  std::vector<Call> calls;
  const std::int64_t start = NowUs() + 5000;
  const auto arrivals = PoissonArrivals(3, 500.0, 500'000);
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    Call c;
    c.conn = static_cast<int>(i % 2);
    c.due_us = start + arrivals[i];
    c.line = AdminLine(static_cast<std::int64_t>(i), "ping");
    calls.push_back(std::move(c));
  }
  client.RunOpen(&calls, start + 5'000'000);
  std::vector<double> lag_ms;
  for (const Call& c : calls) {
    ASSERT_GE(c.done_us, c.sent_us);
    ASSERT_GE(c.sent_us, c.due_us);
    lag_ms.push_back(static_cast<double>(c.sent_us - c.due_us) / 1e3);
  }
  // The sender keeps to the schedule at this rate.
  EXPECT_LT(Percentile(lag_ms, 50), 1.0);
}

}  // namespace
}  // namespace perf
