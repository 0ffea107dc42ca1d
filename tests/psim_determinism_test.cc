// The parallel engine's determinism contract (docs/ENGINE.md):
//
//   1. `--shards 1` in the harness IS the serial engine — bit-identical
//      RunMetrics and SloReport, because it is the same code path. The
//      serial stack stays the determinism anchor.
//   2. Within psim, every partition-invariant traffic counter (frames,
//      CSMA outcomes, receptions, collisions, losses, neighbor updates)
//      is byte-equal across shard counts: the window-quantized PHY makes
//      the traffic a pure function of (seed, config).
//   3. Repeating a sharded run reproduces it exactly, and the
//      steady-state allocation gate (net.allocs == 0) holds on every
//      worker thread.
//   4. The flight recorder's deterministic net.* series and the filtered
//      obs snapshot (InvariantObsJson) are byte-equal across shard counts.
//
// psim runs the beacon substrate only; a query workload on it is a
// precondition failure of RunOnce. The mobile substrate soak of
// contract 4 is the designated TSan workload: run this binary under the
// tsan preset to sweep the barrier/mailbox protocol, node migrations
// included.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "obs/timeseries.h"
#include "psim/engine.h"
#include "workload/workload_spec.h"

namespace diknn {
namespace {

// A field wide enough for 8 genuine strips: 560 m / 22.5 m cells ->
// nx = 25 columns >= 8 * kMinTileSpan.
PsimConfig WideConfig() {
  PsimConfig config;
  config.node_count = 1024;
  config.field = Rect::Field(560.0, 115.0);
  config.beacon_interval = 0.1;  // Dense traffic: real collisions.
  config.loss_rate = 0.05;       // Exercise the stateless loss draw.
  config.duration = 1.2;
  config.seed = 42;
  return config;
}

// --- Contract 2: partition-invariant counters across shard counts. ----

TEST(PsimDeterminismTest, TrafficCountersInvariantAcrossShardCounts) {
  PsimConfig config = WideConfig();
  config.shards = 1;
  const PsimResult anchor = RunPsim(config);

  // The run must actually exercise every counter the contract covers.
  ASSERT_GT(anchor.totals.frames_sent, 0u);
  ASSERT_GT(anchor.totals.csma_busy, 0u);
  ASSERT_GT(anchor.totals.receptions_delivered, 0u);
  ASSERT_GT(anchor.totals.receptions_collided, 0u);
  ASSERT_GT(anchor.totals.receptions_lost, 0u);
  ASSERT_GT(anchor.totals.neighbor_updates, 0u);
  EXPECT_GT(anchor.average_degree, 1.0);

  for (int shards : {2, 4, 8}) {
    config.shards = shards;
    PsimEngine engine(config);
    ASSERT_EQ(engine.shards(), shards) << "field too narrow for test";
    const PsimResult result = engine.Run();
    EXPECT_EQ(result.totals.InvariantCounters(),
              anchor.totals.InvariantCounters())
        << "traffic drifted at shards=" << shards;
    EXPECT_EQ(result.windows, anchor.windows);
    EXPECT_EQ(result.average_degree, anchor.average_degree);
    // Sharded runs exchange real traffic; the exchange is symmetric.
    EXPECT_GT(result.totals.boundary_frames, 0u);
    EXPECT_EQ(result.totals.boundary_frames, result.totals.foreign_frames);
    EXPECT_EQ(result.totals.migrations_out, result.totals.migrations_in);
    EXPECT_EQ(result.totals.audit_mismatches, 0u);
    EXPECT_TRUE(engine.OwnershipInvariantHolds());
  }
}

// --- Contract 3: exact repeatability and the allocation gate. ---------

TEST(PsimDeterminismTest, ShardedRunRepeatsExactly) {
  PsimConfig config = WideConfig();
  config.shards = 4;
  const PsimResult a = RunPsim(config);
  const PsimResult b = RunPsim(config);
  ASSERT_EQ(a.shard_stats.size(), b.shard_stats.size());
  for (size_t s = 0; s < a.shard_stats.size(); ++s) {
    // Per-shard, not just in aggregate: the full stats block including
    // the partition-dependent exchange counters must reproduce.
    EXPECT_EQ(a.shard_stats[s].InvariantCounters(),
              b.shard_stats[s].InvariantCounters());
    EXPECT_EQ(a.shard_stats[s].boundary_frames,
              b.shard_stats[s].boundary_frames);
    EXPECT_EQ(a.shard_stats[s].foreign_frames,
              b.shard_stats[s].foreign_frames);
    EXPECT_EQ(a.shard_stats[s].migrations_out,
              b.shard_stats[s].migrations_out);
    EXPECT_EQ(a.shard_stats[s].migrations_in,
              b.shard_stats[s].migrations_in);
  }
  EXPECT_EQ(a.engine.events_fired, b.engine.events_fired);
}

TEST(PsimDeterminismTest, SteadyStateAllocationFreeOnEveryShard) {
  PsimConfig config = WideConfig();
  config.shards = 4;
  const PsimResult result = RunPsim(config);
  for (size_t s = 0; s < result.shard_stats.size(); ++s) {
    EXPECT_EQ(result.shard_stats[s].steady_allocs, 0u)
        << "shard " << s << " allocated "
        << result.shard_stats[s].steady_alloc_bytes
        << " bytes in steady state";
  }
  // The gate lands on the same obs name scripts/check_all.sh asserts.
  EXPECT_EQ(result.obs.CounterValue("net.allocs"), 0u);
  EXPECT_EQ(result.obs.GaugeValue("psim.shards"), 4.0);
  EXPECT_EQ(result.obs.CounterValue("channel.frames_sent"),
            result.totals.frames_sent);
}

// The paper's node density over a long mobile run: random waypoint
// drifts nodes toward the field centre until the centre's cell buckets
// outgrow their uniform start. No bucket may regrow in steady state.
TEST(PsimDeterminismTest, LongMobileRunAllocationFree) {
  PsimConfig config;
  config.node_count = 512;
  config.field = Rect::Field(184.0, 184.0);
  config.duration = 40.0;
  config.shards = 2;
  config.ts = TimeSeriesOptions{1.0, 64};  // Ring wraps in steady state.
  const PsimResult result = RunPsim(config);
  ASSERT_EQ(result.shards, 2);
  EXPECT_GT(result.totals.migrations_out, 0u);
  EXPECT_EQ(result.obs.CounterValue("net.allocs"), 0u);
}

// --- Contract 1: the harness's --shards 1 is byte-equal to the serial
// --- path, SloReport and obs snapshot included. ----------------------

ExperimentConfig SerialAnchorConfig() {
  ExperimentConfig config;
  config.network.node_count = 70;
  config.network.field = Rect::Field(68.0, 68.0);
  config.k = 8;
  config.duration = 6.0;
  config.drain = 4.0;
  config.runs = 1;
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=4;mix@knn=70,window=30;"
      "k@lo=4,hi=10;deadline@s=1.5;admit@inflight=8,queue=4",
      &error);
  EXPECT_TRUE(config.workload.has_value()) << error;
  return config;
}

TEST(PsimDeterminismTest, ShardsOneIsTheSerialEngineBitForBit) {
  const ExperimentConfig serial = SerialAnchorConfig();
  ExperimentConfig one = SerialAnchorConfig();
  one.shards = 1;
  const RunMetrics a = RunOnce(serial, 42);
  const RunMetrics b = RunOnce(one, 42);
  ASSERT_GT(a.queries, 0);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p95_latency, b.p95_latency);
  EXPECT_EQ(a.avg_pre_accuracy, b.avg_pre_accuracy);
  EXPECT_EQ(a.avg_post_accuracy, b.avg_post_accuracy);
  EXPECT_EQ(a.energy_joules, b.energy_joules);
  EXPECT_EQ(a.average_degree, b.average_degree);
  EXPECT_EQ(a.slo.ToJson(), b.slo.ToJson());
  EXPECT_EQ(a.obs.ToJson(), b.obs.ToJson());
}

// --- Contract 4: a longer mobile substrate soak with the flight
// --- recorder on. Deterministic series sampled at window boundaries and
// --- the invariant obs subset are byte-equal across shard counts.

PsimConfig SubstrateSoakConfig() {
  PsimConfig config = WideConfig();
  config.loss_rate = 0.03;
  config.duration = 2.5;  // Ten sweeps: nodes migrate between tiles.
  config.ts = TimeSeriesOptions{0.25, 256};
  return config;
}

TEST(PsimDeterminismTest, FlightRecordingInvariantAcrossShardCounts) {
  PsimConfig config = SubstrateSoakConfig();
  config.shards = 1;
  const PsimResult anchor = RunPsim(config);

  // The recording must carry real data, not just empty series.
  for (const char* name : {"net.frames_per_s", "net.airtime_share",
                           "net.collision_rate", "net.loss_rate"}) {
    const TimeSeries* series = anchor.ts.Find(name);
    ASSERT_NE(series, nullptr) << name;
    ASSERT_GT(series->size(), 2u) << name;
    EXPECT_GT(series->Max(), 0.0) << name;
  }
  const std::string anchor_json = anchor.ts.DeterministicJson();
  const std::string anchor_obs = InvariantObsJson(anchor.obs);

  for (int shards : {2, 4, 8}) {
    config.shards = shards;
    PsimEngine engine(config);
    ASSERT_EQ(engine.shards(), shards) << "field too narrow for test";
    const PsimResult result = engine.Run();
    EXPECT_EQ(result.ts.DeterministicJson(), anchor_json)
        << "recording drifted at shards=" << shards;
    EXPECT_EQ(InvariantObsJson(result.obs), anchor_obs)
        << "shards=" << shards;
    EXPECT_GT(result.totals.migrations_out, 0u) << "shards=" << shards;
    EXPECT_EQ(result.totals.migrations_out, result.totals.migrations_in);
    for (size_t s = 0; s < result.shard_stats.size(); ++s) {
      EXPECT_EQ(result.shard_stats[s].steady_allocs, 0u)
          << "shard " << s << " at shards=" << shards;
    }
    EXPECT_TRUE(engine.OwnershipInvariantHolds());
    // Each shard contributes its own diagnostic occupancy series; those
    // are partition-dependent by design and live outside the contract.
    size_t shard_series = 0;
    for (const TimeSeries& s : result.ts.series()) {
      if (s.diagnostic() && s.name().rfind("psim.shard", 0) == 0) {
        ++shard_series;
      }
    }
    EXPECT_GT(shard_series, 0u) << "shards=" << shards;
  }
}

// --- Harness integration: --shards > 1 runs the substrate and reports
// --- through the standard RunMetrics/obs plumbing. -------------------

TEST(PsimDeterminismTest, HarnessShardedRunReportsSubstrateMetrics) {
  ExperimentConfig config;
  config.network.node_count = 512;
  config.network.field = Rect::Field(560.0, 115.0);
  config.duration = 0.8;
  config.warmup = 0.0;
  config.runs = 1;
  config.shards = 4;
  const RunMetrics m = RunOnce(config, 42);
  EXPECT_EQ(m.queries, 0);  // Substrate-only: no query workload.
  EXPECT_EQ(m.shards_requested, 4);
  EXPECT_EQ(m.shards_effective, 4);
  EXPECT_GT(m.average_degree, 0.0);
  EXPECT_GT(m.obs.CounterValue("channel.frames_sent"), 0u);
  EXPECT_GT(m.obs.CounterValue("psim.boundary_frames"), 0u);
  EXPECT_EQ(m.obs.CounterValue("psim.audit_mismatches"), 0u);
  EXPECT_EQ(m.obs.CounterValue("net.allocs"), 0u);
  EXPECT_EQ(m.obs.GaugeValue("psim.shards"), 4.0);
  EXPECT_GT(m.engine.events_fired, 0u);
  // Identical harness runs reproduce bit-for-bit, obs included.
  const RunMetrics again = RunOnce(config, 42);
  EXPECT_EQ(m.obs.ToJson(), again.obs.ToJson());
  EXPECT_EQ(m.average_degree, again.average_degree);
}

// One vocabulary: a quantity both engines count has one name, so a
// serial and a sharded snapshot of the same config diff key by key.
TEST(PsimDeterminismTest, SerialAndShardedSnapshotsShareCounterNames) {
  ExperimentConfig config;
  config.network.node_count = 512;
  config.network.field = Rect::Field(560.0, 115.0);
  config.duration = 0.8;
  config.warmup = 0.0;
  config.runs = 1;
  const RunMetrics serial = RunOnce(config, 42);
  config.shards = 2;
  const RunMetrics sharded = RunOnce(config, 42);
  ASSERT_EQ(sharded.shards_effective, 2);

  const std::vector<std::string> shared = {
      "channel.frames_sent",          "channel.receptions_attempted",
      "channel.receptions_delivered", "channel.receptions_collided",
      "channel.receptions_lost",      "mac.csma_failures",
      "net.allocs",                   "engine.events_fired"};
  const auto has_counter = [](const MetricsSnapshot& snap,
                              const std::string& name) {
    for (const MetricsSnapshot::Counter& c : snap.counters) {
      if (c.name == name) return true;
    }
    return false;
  };
  for (const std::string& name : shared) {
    EXPECT_TRUE(has_counter(serial.obs, name)) << "serial lacks " << name;
    EXPECT_TRUE(has_counter(sharded.obs, name)) << "sharded lacks " << name;
  }
  EXPECT_GT(sharded.obs.CounterValue("channel.frames_sent"), 0u);
  // No psim.* alias of a shared quantity (psim.frames_sent,
  // psim.csma_failures, ...); per-shard rows such as
  // psim.shard0.frames_sent attribute work and stay.
  for (const MetricsSnapshot::Counter& c : sharded.obs.counters) {
    if (c.name.rfind("psim.", 0) != 0) continue;
    const std::string suffix = c.name.substr(5);
    for (const std::string& name : shared) {
      EXPECT_NE(suffix, name.substr(name.find('.') + 1))
          << c.name << " duplicates " << name;
    }
  }
}

// psim carries no query traffic, so RunOnce refuses a workload on it
// rather than quietly reporting the substrate in its place.
TEST(PsimDeterminismDeathTest, RunOnceRejectsWorkloadOnWindowedEngine) {
  ExperimentConfig sharded = SerialAnchorConfig();
  sharded.shards = 2;
  EXPECT_DEATH(RunOnce(sharded, 42), "serial engine only");
  ExperimentConfig windowed = SerialAnchorConfig();
  windowed.force_windowed = true;
  EXPECT_DEATH(RunOnce(windowed, 42), "serial engine only");
}

}  // namespace
}  // namespace diknn
