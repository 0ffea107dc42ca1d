// The channel's spatial grid against a brute-force oracle. The grid is
// the only receiver scan; the oracle is a TransmitObserver that, for every
// frame, counts the live nodes other than the sender within radio range
// of the frame's origin by scanning every node. A faulty grid could only
// miss a receiver, never add one (every candidate passes the same exact
// range test), so when the oracle's sum equals
// ChannelStats::receptions_attempted every frame reached exactly the
// right receiver set. Scenarios: static, fast RWP with loss, group
// mobility with churn. Full experiment runs are pinned to golden probes
// taken when the brute-force scan was still a production path and agreed
// with the grid on them.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "net/channel.h"
#include "net/churn.h"
#include "net/network.h"
#include "net/node.h"
#include "run_probe.h"

namespace diknn {
namespace {

void ExpectSameTraffic(const ChannelStats& a, const ChannelStats& b) {
  EXPECT_EQ(a.frames_sent, b.frames_sent);
  EXPECT_EQ(a.receptions_attempted, b.receptions_attempted);
  EXPECT_EQ(a.receptions_delivered, b.receptions_delivered);
  EXPECT_EQ(a.receptions_collided, b.receptions_collided);
  EXPECT_EQ(a.receptions_lost, b.receptions_lost);
  // candidates_scanned may differ: the oracle's Position() reads fire
  // leg changes, and so re-buckets, earlier than the channel alone would.
  // That moves nodes between cells, never in or out of radio range.
}

// Beacon-driven traffic over a full Network, optionally with churn,
// returning the channel counters plus the total energy spent. With
// `observe`, the brute-force oracle rides along and sums its receiver
// counts into `oracle_receptions`.
struct SubstrateOutcome {
  ChannelStats stats;
  double energy = 0.0;
  double degree = 0.0;
  uint64_t oracle_receptions = 0;
};

SubstrateOutcome RunSubstrate(const NetworkConfig& config, bool with_churn,
                              bool observe) {
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
  SubstrateOutcome out;
  if (observe) {
    const std::vector<Node*> nodes = net.AllNodes();
    const double range = net.channel().params().radio_range_m;
    net.channel().AddTransmitObserver(
        [&out, nodes, range](const Packet&, NodeId sender, Point origin) {
          for (const Node* n : nodes) {
            if (n->id() != sender && n->alive() &&
                SquaredDistance(n->Position(), origin) <= range * range) {
              ++out.oracle_receptions;
            }
          }
        });
  }
  net.Warmup(15.0);  // Beacon storms across many refresh intervals.
  out.stats = net.channel().stats();
  out.energy = net.TotalEnergy();
  out.degree = net.AverageDegree();
  return out;
}

// The oracle must agree with the grid on every frame, and observing must
// not perturb the run.
void ExpectGridMatchesOracle(const NetworkConfig& config, bool with_churn) {
  const SubstrateOutcome observed = RunSubstrate(config, with_churn, true);
  const SubstrateOutcome plain = RunSubstrate(config, with_churn, false);
  ASSERT_GT(observed.stats.receptions_attempted, 0u);
  EXPECT_EQ(observed.oracle_receptions, observed.stats.receptions_attempted);
  ExpectSameTraffic(observed.stats, plain.stats);
  EXPECT_EQ(observed.energy, plain.energy);
  EXPECT_EQ(observed.degree, plain.degree);
}

TEST(ChannelGridEquivalence, BeaconTrafficStaticField) {
  for (uint64_t seed : {1u, 7u}) {
    NetworkConfig config;
    config.node_count = 150;
    config.mobility = MobilityKind::kStatic;
    config.seed = seed;
    ExpectGridMatchesOracle(config, false);
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
    ExpectGridMatchesOracle(config, false);
  }
}

TEST(ChannelGridEquivalence, BeaconTrafficGroupMobilityWithChurn) {
  for (uint64_t seed : {3u, 11u}) {
    NetworkConfig config;
    config.node_count = 120;
    config.mobility = MobilityKind::kGroup;
    config.seed = seed;
    ExpectGridMatchesOracle(config, true);
  }
}

TEST(ChannelGridEquivalence, FullExperimentMetricsMatchGoldenProbe) {
  const RunProbe golden[] = {
      {.queries = 1,
       .timeouts = 0,
       .avg_latency = 0x1.11cac08312772p+1,
       .p50_latency = 0x1.11cac08312772p+1,
       .p95_latency = 0x1.11cac08312772p+1,
       .p99_latency = 0x1.11cac08312772p+1,
       .avg_pre_accuracy = 0x1.7777777777777p-1,
       .avg_post_accuracy = 0x1.5555555555555p-1,
       .energy_joules = 0x1.011aaf83bbb6cp-1,
       .beacon_energy_joules = 0x1.1bcea8193936ep-1,
       .average_degree = 0x1.8f11111111111p+4,
       .events_fired = 14354u,
       .slo_digest = 0x152a04b188ed54aeull},
      {.queries = 3,
       .timeouts = 0,
       .avg_latency = 0x1.3de886f5e1511p+0,
       .p50_latency = 0x1.4c215b9a5a898p+0,
       .p95_latency = 0x1.4ed9d26ecd3c6p+0,
       .p99_latency = 0x1.4f17badcb54c4p+0,
       .avg_pre_accuracy = 0x1.e93e93e93e93fp-1,
       .avg_post_accuracy = 0x1.c71c71c71c71dp-1,
       .energy_joules = 0x1.fc35f65c124fep-2,
       .beacon_energy_joules = 0x1.107b85b25c086p-1,
       .average_degree = 0x1.9c88888888889p+4,
       .events_fired = 14971u,
       .slo_digest = 0x152a04b188ed54aeull},
      {.queries = 1,
       .timeouts = 0,
       .avg_latency = 0x1.2806290eed038p+0,
       .p50_latency = 0x1.2806290eed038p+0,
       .p95_latency = 0x1.2806290eed038p+0,
       .p99_latency = 0x1.2806290eed038p+0,
       .avg_pre_accuracy = 0x1.bbbbbbbbbbbbcp-1,
       .avg_post_accuracy = 0x1.ddddddddddddep-1,
       .energy_joules = 0x1.673822dc2300cp-2,
       .beacon_energy_joules = 0x1.2e1ce10c49e54p-1,
       .average_degree = 0x1.c59999999999ap+4,
       .events_fired = 13695u,
       .slo_digest = 0x152a04b188ed54aeull},
  };
  const uint64_t seeds[] = {42, 43, 44};
  for (size_t i = 0; i < 3; ++i) {
    ExperimentConfig config;
    config.network.node_count = 120;
    config.network.field = Rect::Field(90.0, 90.0);
    config.k = 15;
    config.duration = 6.0;
    config.drain = 4.0;
    ExpectRunProbe(RunOnce(config, seeds[i]), golden[i]);
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
  const auto grid = RunSubstrate(config, false, false);
  const auto observed = RunSubstrate(config, false, true);
  EXPECT_EQ(observed.oracle_receptions, grid.stats.receptions_attempted);
  // A full scan examines every node per frame (300 x 8997 = 2699100
  // candidates); the grid only a 3x3 neighborhood. On this field that is
  // at least a 2x reduction (and grows with N at constant density).
  EXPECT_EQ(grid.stats.frames_sent, 8997u);
  EXPECT_LT(grid.stats.candidates_scanned,
            grid.stats.frames_sent * config.node_count / 2);
  EXPECT_EQ(grid.stats.candidates_scanned, 714641u);
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
