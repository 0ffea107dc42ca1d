// Scheduler determinism: the timer wheel must fire events in exactly the
// order of the reference binary heap (tests/reference_event_heap.h), FIFO
// sequence-number tie-breaks at equal timestamps included. End to end, a
// paper run and a workload run are pinned to golden probes taken when the
// heap was still a production scheduler and both engines agreed on them,
// and the workload run must be bit-identical at any jobs count.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/rng.h"
#include "harness/experiment.h"
#include "reference_event_heap.h"
#include "run_probe.h"
#include "sim/event_queue.h"
#include "workload/workload_spec.h"

namespace diknn {
namespace {

// --- Unit fixture: a same-timestamp storm with cancels, reschedules,
// --- and times straddling the wheel horizon (forcing rollover and
// --- overflow migration). Returns the exact firing sequence. `now`
// --- plays the simulator clock.
template <typename Queue>
std::vector<int> RunStorm() {
  Queue q;
  SimTime now = 0.0;
  Rng rng(2024);
  std::vector<int> order;
  std::vector<EventId> cancelable;

  // Bursts of events sharing one exact timestamp (FIFO tie-breaks), at
  // times from sub-millisecond to far beyond the ~1 s wheel horizon.
  int label = 0;
  for (int burst = 0; burst < 40; ++burst) {
    const SimTime t = rng.Uniform(0.0, 5.0);
    for (int i = 0; i < 5; ++i) {
      const int id = label++;
      const EventId ev = q.Push(t, [&order, id] { order.push_back(id); });
      if (i % 3 == 1) cancelable.push_back(ev);
    }
  }
  // Far-future overflow events, some of which are cancelled.
  for (int i = 0; i < 20; ++i) {
    const int id = label++;
    const EventId ev = q.Push(rng.Uniform(30.0, 400.0),
                              [&order, id] { order.push_back(id); });
    if (i % 2 == 0) cancelable.push_back(ev);
  }
  // One bucket of more than 16 entries, half of them at one exact
  // timestamp: std::sort is no longer a stable insertion sort at that
  // size, so their FIFO order rests on the sequence tie-break.
  for (int i = 0; i < 64; ++i) {
    const int id = label++;
    const SimTime t = i % 2 == 0 ? 2.0005 : 2.0001 + 1e-6 * i;
    q.Push(t, [&order, id] { order.push_back(id); });
  }
  // An overflow entry and a later wheel entry at one timestamp: the
  // overflow entry, pushed first, must fire first although it joins the
  // bucket after the wheel's entries.
  {
    const int first = label++;
    const int second = label++;
    q.Push(50.0, [&order, first] { order.push_back(first); });
    q.Push(49.5, [&q, &order, second] {
      q.Push(50.0, [&order, second] { order.push_back(second); });
    });
  }
  // Events that schedule at their own timestamp (sorted-run insert) and
  // one wheel-horizon hop ahead (wheel re-entry after rollover).
  for (int i = 0; i < 10; ++i) {
    const int id = label++;
    q.Push(0.25 * i, [&q, &now, &order, id] {
      order.push_back(id);
      q.Push(now, [&order, id] { order.push_back(10000 + id); });
      q.Push(now + 1.5, [&order, id] { order.push_back(20000 + id); });
    });
  }
  for (const EventId ev : cancelable) q.Cancel(ev);

  while (!q.Empty()) {
    auto fn = q.Pop(&now);
    fn();
  }
  return order;
}

TEST(EngineDeterminismTest, StormFiringOrderIdenticalAcrossEngines) {
  const std::vector<int> wheel = RunStorm<EventQueue>();
  const std::vector<int> heap = RunStorm<ReferenceEventHeap>();
  ASSERT_FALSE(wheel.empty());
  EXPECT_EQ(wheel, heap);
}

// --- End-to-end: a full DIKNN run (paper generator) and a full workload
// --- run must reproduce their golden probes, at any jobs count.

void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  // EXPECT_EQ on doubles is exact equality — bit-identity, not tolerance.
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p50_latency, b.p50_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
  EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy);
  EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.beacon_energy_joules, b.beacon_energy_joules);
  EXPECT_EQ(a.average_degree, b.average_degree);
  // SloReport compared as serialized bytes.
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
}

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.network.node_count = 70;
  config.network.field = Rect::Field(68.0, 68.0);
  config.k = 8;
  config.duration = 6.0;
  config.drain = 4.0;
  config.runs = 2;
  return config;
}

TEST(EngineDeterminismTest, PaperRunMatchesGoldenProbe) {
  const RunProbe golden[] = {
      {.queries = 1,
       .timeouts = 0,
       .avg_latency = 0x1.4dd50a88f003p-1,
       .p50_latency = 0x1.4dd50a88f003p-1,
       .p95_latency = 0x1.4dd50a88f003p-1,
       .p99_latency = 0x1.4dd50a88f003p-1,
       .avg_pre_accuracy = 0x1p+0,
       .avg_post_accuracy = 0x1p+0,
       .energy_joules = 0x1.19b65f780aa89p-4,
       .beacon_energy_joules = 0x1.41254965a49f6p-2,
       .average_degree = 0x1.9b33333333333p+4,
       .events_fired = 7518u,
       .slo_digest = 0x152a04b188ed54aeull},
      {.queries = 3,
       .timeouts = 0,
       .avg_latency = 0x1.9b3ba1de5350bp-1,
       .p50_latency = 0x1.9e529bae46d4p-1,
       .p95_latency = 0x1.be10060780fd8p-1,
       .p99_latency = 0x1.c0e2485f1461ep-1,
       .avg_pre_accuracy = 0x1.eaaaaaaaaaaabp-1,
       .avg_post_accuracy = 0x1.cp-1,
       .energy_joules = 0x1.eaec275b0dc21p-3,
       .beacon_energy_joules = 0x1.2deaf4d600528p-2,
       .average_degree = 0x1.919999999999ap+4,
       .events_fired = 8993u,
       .slo_digest = 0x152a04b188ed54aeull},
  };
  const uint64_t seeds[] = {42, 43};
  for (size_t i = 0; i < 2; ++i) {
    const RunMetrics m = RunOnce(SmallConfig(), seeds[i]);
    ASSERT_GT(m.queries, 0);
    ExpectRunProbe(m, golden[i]);
  }
}

TEST(EngineDeterminismTest, WorkloadSloMatchesGoldenProbeAtAnyJobs) {
  ExperimentConfig config = SmallConfig();
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=60,window=20,aggregate=20;"
      "k@lo=4,hi=10;deadline@s=1.5;admit@inflight=8,queue=4",
      &error);
  ASSERT_TRUE(config.workload.has_value()) << error;

  config.jobs = 1;
  const std::vector<RunMetrics> seq = RunExperimentRuns(config);
  config.jobs = 4;
  const std::vector<RunMetrics> par = RunExperimentRuns(config);

  const RunProbe golden[] = {
      {.queries = 27,
       .timeouts = 6,
       .avg_latency = 0x1.be9934a24af55p+1,
       .p50_latency = 0x1.63028d23595abp+1,
       .p95_latency = 0x1.caaf6a652a83ap+2,
       .p99_latency = 0x1.caaf6a652a83ap+2,
       .avg_pre_accuracy = 0x1.8ce19ae67b347p-1,
       .avg_post_accuracy = 0x1.1ea383d1d6b72p-1,
       .energy_joules = 0x1.09845ac31a1e9p+2,
       .beacon_energy_joules = 0x1.396d9a0c5b2d4p-2,
       .average_degree = 0x1.9492492492492p+4,
       .events_fired = 38589u,
       .slo_digest = 0x7d78ca73dd3e9edfull},
      {.queries = 24,
       .timeouts = 0,
       .avg_latency = 0x1.efa66c9483ad5p-1,
       .p50_latency = 0x1.cc64165e8c748p-1,
       .p95_latency = 0x1.83241ffea808ap+0,
       .p99_latency = 0x1.9ce7cd035371cp+0,
       .avg_pre_accuracy = 0x1.e5f15f15f15fp-1,
       .avg_post_accuracy = 0x1.c111111111111p-1,
       .energy_joules = 0x1.6ad435a1cd71ap+0,
       .beacon_energy_joules = 0x1.2df2310a64075p-2,
       .average_degree = 0x1.920ea0ea0ea0fp+4,
       .events_fired = 18393u,
       .slo_digest = 0x66f0e10a86b67b52ull},
  };
  ASSERT_EQ(seq.size(), 2u);
  ASSERT_EQ(par.size(), 2u);
  for (size_t i = 0; i < seq.size(); ++i) {
    ASSERT_GT(seq[i].slo.issued, 0u);
    ExpectRunProbe(seq[i], golden[i]);
    ExpectBitIdentical(seq[i], par[i]);
  }
}

// The wheel must actually be exercising both tiers in an end-to-end run
// (otherwise the probes above prove less than they claim).
TEST(EngineDeterminismTest, EndToEndRunUsesWheelAndOverflowTiers) {
  ExperimentConfig config = SmallConfig();
  config.runs = 1;
  const RunMetrics m = RunOnce(config, 42);
  EXPECT_GT(m.engine.wheel_scheduled, 0u);
  EXPECT_GT(m.engine.overflow_scheduled, 0u);  // Query timeouts et al.
  EXPECT_GT(m.engine.inline_callbacks, 0u);
  EXPECT_GT(m.engine.events_cancelled, 0u);
  // Resident footprint must stay within live + bounded cancelled refs.
  EXPECT_LE(m.engine.peak_resident,
            m.engine.peak_live + m.engine.events_cancelled);
}

}  // namespace
}  // namespace diknn
