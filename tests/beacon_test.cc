#include "net/beacon.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "net/network.h"

namespace diknn {
namespace {

TEST(BeaconTest, NeighborTablesMatchTrueTopology) {
  NetworkConfig config;
  config.node_count = 60;
  config.field = Rect::Field(90, 90);
  config.mobility = MobilityKind::kStatic;
  config.seed = 4;
  Network net(config);
  net.Warmup(1.6);  // Three beacon rounds.

  // Every true in-range pair should know each other (static network, no
  // contention to speak of).
  const SimTime now = net.sim().Now();
  int in_range = 0, known = 0;
  for (int u = 0; u < net.size(); ++u) {
    for (int v = 0; v < net.size(); ++v) {
      if (u == v) continue;
      if (Distance(net.node(u)->Position(), net.node(v)->Position()) <=
          config.radio_range_m) {
        ++in_range;
        if (net.node(u)->neighbors().Lookup(v, now).has_value()) ++known;
      }
    }
  }
  ASSERT_GT(in_range, 50);
  EXPECT_GE(static_cast<double>(known) / in_range, 0.9);
}

TEST(BeaconTest, BeaconsCarryPositionAndSpeed) {
  NetworkConfig config;
  config.node_count = 10;
  config.field = Rect::Field(30, 30);
  config.max_speed = 10.0;
  config.seed = 8;
  Network net(config);
  net.Warmup(1.6);
  const SimTime now = net.sim().Now();
  int checked = 0;
  for (int u = 0; u < net.size(); ++u) {
    net.node(u)->neighbors().ForEachFresh(now, [&](const NeighborEntry& e) {
      // The advertised position is at most (staleness * max speed) off.
      const double staleness = now - e.last_heard;
      const double error =
          Distance(e.position, net.node(e.id)->Position());
      EXPECT_LE(error, staleness * config.max_speed + 1e-6);
      EXPECT_GE(e.speed, 0.0);
      EXPECT_LE(e.speed, config.max_speed);
      ++checked;
    });
  }
  EXPECT_GT(checked, 10);
}

TEST(BeaconTest, DeadNodesStopBeaconing) {
  NetworkConfig config;
  config.node_count = 10;
  config.field = Rect::Field(30, 30);
  config.mobility = MobilityKind::kStatic;
  config.seed = 9;
  Network net(config);
  net.Warmup(1.6);
  net.node(3)->set_alive(false);
  // After the staleness timeout the dead node disappears from tables.
  net.sim().RunUntil(net.sim().Now() + 2.0);
  const SimTime now = net.sim().Now();
  for (int u = 0; u < net.size(); ++u) {
    if (u == 3) continue;
    EXPECT_FALSE(net.node(u)->neighbors().Lookup(3, now).has_value());
  }
}

TEST(BeaconTest, MobileNeighborhoodsTrackMovement) {
  NetworkConfig config;
  config.node_count = 80;
  config.field = Rect::Field(115, 115);
  config.max_speed = 10.0;
  config.seed = 10;
  Network net(config);
  net.Warmup(1.6);
  const double degree_before = net.AverageDegree();
  net.sim().RunUntil(net.sim().Now() + 20.0);
  const double degree_after = net.AverageDegree();
  // Tables keep tracking: degree stays in a sane band instead of decaying
  // to zero as nodes move away from their original neighbors.
  EXPECT_GT(degree_after, 0.5 * degree_before);
}

TEST(BeaconTest, TablesHoldOneRadioNeighborhood) {
  // Section 3.1: a table enrolls the neighbors within radio range. In a
  // mobile field a node hears hundreds of distinct ids over a minute; a
  // node that compacts its table when it beacons holds only its fresh
  // set plus what went stale during the last beacon interval.
  NetworkConfig config;
  config.node_count = 400;
  config.field = Rect::Field(162.6, 162.6);  // Paper density (200/115^2).
  config.max_speed = 10.0;
  config.seed = 11;
  Network net(config);
  net.Warmup(2.0);
  double lanes_sum = 0.0, fresh_sum = 0.0;
  size_t max_lanes = 0;
  int max_fresh = 0, max_heard = 0;
  for (SimTime t = 3.0; t <= 60.0; t += 1.0) {
    net.sim().RunUntil(t);
    const SimTime now = net.sim().Now();
    for (int u = 0; u < net.size(); ++u) {
      const NeighborTable& table = net.node(u)->neighbors();
      const int fresh = table.CountFresh(now);
      int heard = 0;  // Distinct neighbors heard in one beacon interval.
      table.ForEachFresh(now, [&](const NeighborEntry& e) {
        if (now - e.last_heard <= config.beacon_interval) ++heard;
      });
      lanes_sum += static_cast<double>(table.size());
      fresh_sum += fresh;
      max_lanes = std::max(max_lanes, table.size());
      max_fresh = std::max(max_fresh, fresh);
      max_heard = std::max(max_heard, heard);
    }
  }
  ASSERT_GT(fresh_sum, 0.0);
  EXPECT_LE(lanes_sum, 1.25 * fresh_sum)
      << "mean lanes " << lanes_sum / fresh_sum << "x mean fresh";
  EXPECT_LE(max_lanes, static_cast<size_t>(max_fresh + max_heard))
      << "max fresh " << max_fresh << ", max heard per interval "
      << max_heard;
}

}  // namespace
}  // namespace diknn
