// Unit tests for the program-independent benchmark pieces.
#include "bench_core.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace trex {
namespace perfbench {
namespace {

std::vector<int64_t> Ramp(size_t n) {
  std::vector<int64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = static_cast<int64_t>(i + 1);
  return v;
}

TEST(PercentileTest, NearestRankValueAndBeyondCount) {
  const std::vector<int64_t> v = Ramp(1000);
  Percentile p50 = PercentileOf(v, 0.5);
  EXPECT_EQ(p50.value, 500);
  EXPECT_EQ(p50.beyond, 500u);
  Percentile p99 = PercentileOf(v, 0.99);
  EXPECT_EQ(p99.value, 990);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_EQ(p99.samples, 1000u);
}

TEST(PercentileTest, TailIsHighestLadderStepWithTenBeyond) {
  // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
  Percentile t = TailPercentile(Ramp(1000));
  EXPECT_DOUBLE_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.samples, 1000u);
  // 999 samples: p99 leaves 9, so the tail falls back to p95.
  t = TailPercentile(Ramp(999));
  EXPECT_DOUBLE_EQ(t.q, 0.95);
  EXPECT_GE(t.beyond, 10u);
  // 10000 samples support p99.9 (10 beyond) but not p99.99.
  t = TailPercentile(Ramp(10000));
  EXPECT_DOUBLE_EQ(t.q, 0.999);
  EXPECT_EQ(t.beyond, 10u);
}

TEST(PercentileTest, TooFewSamplesReportNoPercentile) {
  EXPECT_EQ(TailPercentile(Ramp(15)).q, 0.0);
  EXPECT_EQ(TailPercentile(Ramp(15)).samples, 15u);
  EXPECT_EQ(TailPercentile({}).q, 0.0);
  EXPECT_DOUBLE_EQ(TailPercentile(Ramp(20)).q, 0.5);
}

TEST(PercentileTest, SlicedIgnoresABurstInOneSlice) {
  // Three slices of 1000: the middle one is ten times slower.
  std::vector<int64_t> v;
  for (int s = 0; s < 3; ++s) {
    for (int64_t x : Ramp(1000)) v.push_back(s == 1 ? 10 * x : x);
  }
  EXPECT_DOUBLE_EQ(SlicedPercentile(v, 0.99, 1000), 990.0);
  std::vector<int64_t> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_GT(PercentileOf(sorted, 0.99).value, 990);
  // The last slice takes the remainder; one slice is the plain percentile.
  v.resize(2500);
  EXPECT_DOUBLE_EQ(SlicedPercentile(v, 0.5, 1000), 0.5 * (500 + 2500));
  EXPECT_DOUBLE_EQ(SlicedPercentile(Ramp(1999), 0.99, 1000),
                   static_cast<double>(PercentileOf(Ramp(1999), 0.99).value));
}

TEST(ClosedLoopTest, EveryFutureResolvesAndFailuresAreCounted) {
  TaskPool pool(2);
  std::atomic<uint64_t> judged{0};
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  LoopTotals totals = RunClosedLoop<int>(
      3, 50'000'000,
      [&](uint64_t i) {
        const int now = in_flight.fetch_add(1) + 1;
        int seen = max_in_flight.load();
        while (now > seen && !max_in_flight.compare_exchange_weak(seen, now)) {
        }
        return pool.Submit([i, &in_flight] {
          in_flight.fetch_sub(1);
          if (i % 7 == 3) throw std::runtime_error("boom");
          return static_cast<int>(i % 5);
        });
      },
      [&](size_t, uint64_t, int& v, int64_t start, int64_t end) {
        judged.fetch_add(1);
        EXPECT_LE(start, end);
        return v != 0;  // Outcome 0 counts as a failure.
      });
  EXPECT_GT(totals.attempted, 20u);
  EXPECT_EQ(totals.latencies_ns.size(), totals.attempted);
  EXPECT_TRUE(std::is_sorted(totals.latencies_ns.begin(),
                             totals.latencies_ns.end()));
  // by_request holds the same latencies, one per request index.
  std::vector<int64_t> by_request = totals.by_request;
  std::sort(by_request.begin(), by_request.end());
  EXPECT_EQ(by_request, totals.latencies_ns);
  // Thrown outcomes never reach judge but still count as failed.
  EXPECT_LT(judged.load(), totals.attempted);
  EXPECT_GT(totals.failed, totals.attempted - judged.load());
  // Closed loop: at most one outstanding request per client.
  EXPECT_LE(max_in_flight.load(), 3);
}

TEST(ClosedLoopTest, SubmitThatThrowsCountsAsFailure) {
  LoopTotals totals = RunClosedLoop<int>(
      1, 5'000'000,
      [](uint64_t) -> std::future<int> { throw std::runtime_error("x"); },
      [](size_t, uint64_t, int&, int64_t, int64_t) { return true; });
  EXPECT_GT(totals.attempted, 0u);
  EXPECT_EQ(totals.failed, totals.attempted);
}

TEST(TaskPoolTest, DestructorRunsQueuedTasks) {
  std::vector<std::future<int>> futures;
  {
    TaskPool pool(1);
    for (int i = 0; i < 100; ++i) {
      futures.push_back(pool.Submit([i] { return i * 2; }));
    }
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * 2);
}

TEST(SpanTest, SelfTimeSubtractsDirectChildren) {
  RequestSpans r(7);
  r.Open("facade", 100);
  r.Open("parse", 110);
  r.Close(130);
  r.Open("eval", 140);
  r.Open("inner", 150);
  r.Close(160);
  r.Close(190);
  r.Close(200);
  r.WrapInRoot("client", 50, 260);
  ASSERT_EQ(r.spans().size(), 5u);
  EXPECT_EQ(r.spans()[0].parent, -1);
  EXPECT_EQ(r.spans()[1].parent, 0);
  EXPECT_EQ(r.spans()[2].parent, 1);
  EXPECT_EQ(r.spans()[4].parent, 3);
  for (const Span& s : r.spans()) EXPECT_EQ(s.query, 7u);
  SelfTimes t;
  AddSelfTimes(r.spans(), &t);
  EXPECT_EQ(t.self_ns["client"], 210 - 100);
  EXPECT_EQ(t.self_ns["facade"], 100 - 20 - 50);
  EXPECT_EQ(t.self_ns["parse"], 20);
  EXPECT_EQ(t.self_ns["eval"], 50 - 10);
  EXPECT_EQ(t.self_ns["inner"], 10);
  EXPECT_EQ(t.count["eval"], 1u);
}

TEST(JsonObjectTest, KeepsAllDigits) {
  JsonObject o;
  o.Num("x", 0.1).Int("n", 3).Str("s", "a").Bool("b", true);
  EXPECT_EQ(o.str(),
            "{\"x\":0.10000000000000001,\"n\":3,\"s\":\"a\",\"b\":true}");
}

}  // namespace
}  // namespace perfbench
}  // namespace trex
