// Equivalence of the channel's spatial-grid fast path with the brute-force
// O(N) scan: same seeds must produce bit-identical traffic counters,
// energy totals, and experiment metrics, across static, mobile (fast RWP),
// group-mobility, lossy, and churn-heavy scenarios.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "net/channel.h"
#include "net/churn.h"
#include "net/network.h"
#include "net/node.h"

namespace diknn {
namespace {

void ExpectSameStats(const ChannelStats& grid, const ChannelStats& brute) {
  EXPECT_EQ(grid.frames_sent, brute.frames_sent);
  EXPECT_EQ(grid.receptions_attempted, brute.receptions_attempted);
  EXPECT_EQ(grid.receptions_delivered, brute.receptions_delivered);
  EXPECT_EQ(grid.receptions_collided, brute.receptions_collided);
  EXPECT_EQ(grid.receptions_lost, brute.receptions_lost);
  // candidates_scanned intentionally differs: that is the optimization.
}

void ExpectSameMetrics(const RunMetrics& grid, const RunMetrics& brute) {
  EXPECT_EQ(grid.queries, brute.queries);
  EXPECT_EQ(grid.timeouts, brute.timeouts);
  EXPECT_EQ(grid.avg_latency, brute.avg_latency);
  EXPECT_EQ(grid.p95_latency, brute.p95_latency);
  EXPECT_EQ(grid.avg_pre_accuracy, brute.avg_pre_accuracy);
  EXPECT_EQ(grid.avg_post_accuracy, brute.avg_post_accuracy);
  EXPECT_EQ(grid.energy_joules, brute.energy_joules);
  EXPECT_EQ(grid.beacon_energy_joules, brute.beacon_energy_joules);
  EXPECT_EQ(grid.average_degree, brute.average_degree);
}

// Beacon-driven traffic over a full Network, optionally with churn,
// returning the channel counters plus the total energy spent.
struct SubstrateOutcome {
  ChannelStats stats;
  double energy = 0.0;
  double degree = 0.0;
};

SubstrateOutcome RunSubstrate(NetworkConfig config, bool grid,
                              bool with_churn) {
  config.use_spatial_grid = grid;
  Network net(config);
  std::unique_ptr<NodeChurn> churn;
  if (with_churn) {
    ChurnParams churn_params;
    churn_params.mean_up_time = 6.0;
    churn_params.mean_down_time = 2.0;
    churn_params.initial_dead_fraction = 0.1;
    churn = std::make_unique<NodeChurn>(&net.sim(), net.AllNodes(),
                                        churn_params,
                                        Rng(config.seed * 31 + 7));
    churn->Start();
  }
  net.Warmup(15.0);  // Beacon storms across many refresh intervals.
  SubstrateOutcome out;
  out.stats = net.channel().stats();
  out.energy = net.TotalEnergy();
  out.degree = net.AverageDegree();
  return out;
}

TEST(ChannelGridEquivalence, BeaconTrafficStaticField) {
  for (uint64_t seed : {1u, 7u}) {
    NetworkConfig config;
    config.node_count = 150;
    config.mobility = MobilityKind::kStatic;
    config.seed = seed;
    const auto grid = RunSubstrate(config, true, false);
    const auto brute = RunSubstrate(config, false, false);
    ExpectSameStats(grid.stats, brute.stats);
    EXPECT_EQ(grid.energy, brute.energy);
    EXPECT_EQ(grid.degree, brute.degree);
  }
}

TEST(ChannelGridEquivalence, BeaconTrafficFastMobileLossy) {
  for (uint64_t seed : {2u, 9u}) {
    NetworkConfig config;
    config.node_count = 150;
    config.mobility = MobilityKind::kRandomWaypoint;
    config.max_speed = 40.0;  // Far beyond the paper's mu_max: max drift.
    config.loss_rate = 0.05;  // Exercises per-receiver RNG draw ordering.
    config.seed = seed;
    const auto grid = RunSubstrate(config, true, false);
    const auto brute = RunSubstrate(config, false, false);
    ExpectSameStats(grid.stats, brute.stats);
    EXPECT_EQ(grid.energy, brute.energy);
    EXPECT_EQ(grid.degree, brute.degree);
  }
}

TEST(ChannelGridEquivalence, BeaconTrafficGroupMobilityWithChurn) {
  for (uint64_t seed : {3u, 11u}) {
    NetworkConfig config;
    config.node_count = 120;
    config.mobility = MobilityKind::kGroup;
    config.seed = seed;
    const auto grid = RunSubstrate(config, true, true);
    const auto brute = RunSubstrate(config, false, true);
    ExpectSameStats(grid.stats, brute.stats);
    EXPECT_EQ(grid.energy, brute.energy);
    EXPECT_EQ(grid.degree, brute.degree);
  }
}

TEST(ChannelGridEquivalence, FullExperimentMetricsBitIdentical) {
  for (uint64_t seed : {42u, 43u, 44u}) {
    ExperimentConfig config;
    config.network.node_count = 120;
    config.network.field = Rect::Field(90.0, 90.0);
    config.k = 15;
    config.duration = 6.0;
    config.drain = 4.0;

    config.network.use_spatial_grid = true;
    const RunMetrics grid = RunOnce(config, seed);
    config.network.use_spatial_grid = false;
    const RunMetrics brute = RunOnce(config, seed);
    ExpectSameMetrics(grid, brute);
  }
}

// The channel drops out-of-range candidates before it sorts them by id.
// That changes no count: candidates_scanned still counts every node
// gathered, and the traffic is the same. The literals predate the filter.
TEST(ChannelGridEquivalence, GridScansFarFewerCandidates) {
  NetworkConfig config;
  config.node_count = 300;
  config.field = Rect::Field(140.0, 140.0);
  config.loss_rate = 0.05;
  config.seed = 5;
  const auto grid = RunSubstrate(config, true, false);
  const auto brute = RunSubstrate(config, false, false);
  ExpectSameStats(grid.stats, brute.stats);
  // The brute path examines every node per frame; the grid only a 3x3
  // neighborhood. On this field that is at least a 2x reduction (and
  // grows with N at constant density).
  EXPECT_LT(grid.stats.candidates_scanned,
            brute.stats.candidates_scanned / 2);
  EXPECT_EQ(grid.stats.candidates_scanned, 714641u);
  EXPECT_EQ(brute.stats.candidates_scanned, 2699100u);
  EXPECT_EQ(grid.stats.receptions_attempted, 226260u);
  EXPECT_EQ(grid.stats.receptions_delivered, 207221u);
  EXPECT_EQ(grid.stats.receptions_collided, 8010u);
  EXPECT_EQ(grid.stats.receptions_lost, 11000u);
}

TEST(ChannelGrid, CellSizeCoversRadioRangePlusDrift) {
  NetworkConfig config;
  config.node_count = 30;
  config.max_speed = 10.0;
  Network net(config);
  net.Warmup(1.0);  // Forces the first grid build.
  const Channel& chan = net.channel();
  // radio range 20 m + 10 m/s * refresh interval drift margin.
  EXPECT_GE(chan.grid_cell_size(), chan.params().radio_range_m);
  EXPECT_NEAR(chan.grid_cell_size(),
              chan.params().radio_range_m +
                  10.0 * chan.params().grid_refresh_interval_s,
              1e-9);
}

}  // namespace
}  // namespace diknn
