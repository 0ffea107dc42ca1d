// Tests of the benchmark's own metric code (perfbench/metrics.h).

#include "metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

namespace perfbench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(PercentileWithTailTest, MedianNeedsTenSamplesBeyond) {
  // Nearest-rank median of 19 samples is the 10th: only 9 lie beyond it.
  const TailPercentile short_sample = PercentileWithTail(Iota(19), 50.0);
  EXPECT_FALSE(short_sample.ok);
  EXPECT_EQ(short_sample.beyond, 9u);
  EXPECT_EQ(short_sample.needed, 20u);
  EXPECT_EQ(short_sample.value, 0.0);

  const TailPercentile enough = PercentileWithTail(Iota(20), 50.0);
  ASSERT_TRUE(enough.ok);
  EXPECT_EQ(enough.beyond, 10u);
  EXPECT_EQ(enough.value, 10.0);
  EXPECT_EQ(enough.samples, 20u);
}

TEST(PercentileWithTailTest, P95NeedsTwoHundredSamples) {
  EXPECT_FALSE(PercentileWithTail(Iota(199), 95.0).ok);
  const TailPercentile p95 = PercentileWithTail(Iota(200), 95.0);
  ASSERT_TRUE(p95.ok);
  EXPECT_EQ(p95.value, 190.0);
  EXPECT_EQ(p95.beyond, 10u);
  EXPECT_EQ(p95.needed, 200u);
}

TEST(PercentileWithTailTest, UnsortedInputAndEmptySample) {
  std::vector<double> v = Iota(40);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(PercentileWithTail(v, 50.0).value, 20.0);
  const TailPercentile empty = PercentileWithTail({}, 50.0);
  EXPECT_FALSE(empty.ok);
  EXPECT_EQ(empty.samples, 0u);
}

Rung MakeRung(double rate, uint64_t issued, uint64_t on_time) {
  Rung r;
  r.rate_qps = rate;
  r.counts.issued = issued;
  r.counts.completed = on_time;
  r.counts.timed_out = issued - on_time;
  return r;
}

TEST(KneeQpsTest, HighestPassingRung) {
  const std::vector<Rung> ladder = {MakeRung(1, 100, 99), MakeRung(2, 100, 95),
                                    MakeRung(4, 100, 90), MakeRung(8, 100, 89),
                                    MakeRung(16, 100, 40)};
  const Knee knee = KneeQps(ladder);
  EXPECT_TRUE(knee.passed_any);
  EXPECT_FALSE(knee.censored);
  EXPECT_EQ(knee.qps, 4.0);
}

TEST(KneeQpsTest, NoRungPasses) {
  const Knee knee = KneeQps({MakeRung(1, 10, 8), MakeRung(2, 20, 10)});
  EXPECT_FALSE(knee.passed_any);
  EXPECT_FALSE(knee.censored);
  EXPECT_EQ(knee.qps, 0.0);
}

TEST(KneeQpsTest, EveryRungPassesIsCensoredAtTheTop) {
  const Knee knee = KneeQps({MakeRung(1, 10, 10), MakeRung(32, 320, 300)});
  EXPECT_TRUE(knee.passed_any);
  EXPECT_TRUE(knee.censored);
  EXPECT_EQ(knee.qps, 32.0);
}

TEST(KneeQpsTest, RejectedAndShedQueriesAreMisses) {
  Rung rung;
  rung.rate_qps = 8;
  rung.counts.issued = 100;
  rung.counts.completed = 85;
  rung.counts.rejected = 15;  // Shed queries are scored kRejected.
  rung.counts.shed = 10;
  EXPECT_FALSE(KneeQps({rung}).passed_any);
  // A rung that issued nothing never passes.
  EXPECT_FALSE(KneeQps({MakeRung(1, 0, 0)}).passed_any);
}

TEST(FailRatioTest, CountsShedRejectedLateAndTimedOut) {
  using diknn::QueryOutcome;
  using diknn::ServingPath;
  std::vector<diknn::WorkloadQueryRecord> records(10);
  records[0].outcome = QueryOutcome::kRejected;
  records[0].path = ServingPath::kShed;
  records[1].outcome = QueryOutcome::kRejected;  // Admission queue full.
  records[2].outcome = QueryOutcome::kDeadlineMissed;
  records[3].outcome = QueryOutcome::kTimedOut;
  records[4].path = ServingPath::kCacheHit;  // Completed from the cache.
  const OutcomeCounts counts = Tally(records);
  EXPECT_TRUE(counts.Consistent());
  EXPECT_EQ(counts.issued, 10u);
  EXPECT_EQ(counts.rejected, 2u);
  EXPECT_EQ(counts.shed, 1u);
  const Ratio fail = FailRatio(counts);
  EXPECT_EQ(fail.num, 4.0);
  EXPECT_EQ(fail.base, 10.0);
  EXPECT_DOUBLE_EQ(fail.value(), 0.4);
}

TEST(RatioTest, ZeroBasePrintsTheBase) {
  const Ratio empty{5.0, 0.0};
  EXPECT_EQ(empty.value(), 0.0);
  EXPECT_EQ(FailRatio(OutcomeCounts{}).value(), 0.0);
  EXPECT_EQ((Ratio{1.0, 4.0}).value(), 0.25);
}

TEST(MedianTest, OddEvenEmpty) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(SpanLogTest, SelfTimeSubtractsChildren) {
  SpanLog log(true, 7);
  {
    ScopedSpan rep(&log, "rep", "harness");
    { ScopedSpan build(&log, "build", "harness"); }
    { ScopedSpan slice(&log, "slice", "sim"); }
  }
  ASSERT_EQ(log.spans().size(), 3u);
  EXPECT_EQ(log.spans()[0].parent, -1);
  EXPECT_EQ(log.spans()[1].parent, 0);
  EXPECT_EQ(log.spans()[2].parent, 0);
  const auto self = log.SelfSeconds();
  const Span& root = log.spans()[0];
  const Span& slice = log.spans()[2];
  EXPECT_NEAR(self.at("sim"), 1e-9 * (slice.end_ns - slice.start_ns), 1e-12);
  EXPECT_NEAR(self.at("harness") + self.at("sim"),
              1e-9 * (root.end_ns - root.start_ns), 1e-12);
  EXPECT_NE(log.ToJson("nproc=4").find("\"run_id\":7"), std::string::npos);
}

TEST(SpanLogTest, DisabledLogRecordsNothing) {
  SpanLog log(false);
  { ScopedSpan span(&log, "rep", "harness"); }
  EXPECT_TRUE(log.spans().empty());
  EXPECT_TRUE(log.SelfSeconds().empty());
}

}  // namespace
}  // namespace perfbench
