// Golden traffic probes for the packet plane. Two seeded end-to-end runs
// pin every published channel.* and mac.* counter and the total energy to
// literal values. The grid-vs-brute equivalence tests run both sides
// through the same MAC, so they cannot see a change in duplicate
// suppression or reception order; these probes can. A deliberate model
// change updates the literals (a mismatch prints the replacement table).

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_plan.h"
#include "harness/experiment.h"
#include "workload/workload_spec.h"

namespace diknn {
namespace {

using Counters = std::vector<std::pair<std::string, uint64_t>>;

// Every counter published under the channel. and mac. prefixes, in the
// snapshot's (name-sorted) order.
Counters NetCounters(const RunMetrics& m) {
  Counters out;
  for (const auto& c : m.obs.counters) {
    if (c.name.starts_with("channel.") || c.name.starts_with("mac.")) {
      out.emplace_back(c.name, c.value);
    }
  }
  return out;
}

// The run's probes formatted as the literals below, for updating them.
std::string Literals(const Counters& counters, double energy) {
  std::string out = "\n";
  for (const auto& [name, value] : counters) {
    out += "      {\"" + name + "\", " + std::to_string(value) + "u},\n";
  }
  char hex[64];
  std::snprintf(hex, sizeof(hex), "%a", energy);
  out += "  energy_joules: " + std::string(hex) + "\n";
  return out;
}

void ExpectGolden(const RunMetrics& m, const Counters& counters,
                  double energy) {
  const Counters actual = NetCounters(m);
  EXPECT_EQ(actual, counters) << Literals(actual, m.energy_joules);
  EXPECT_EQ(m.energy_joules, energy) << Literals(actual, m.energy_joules);
}

// A 60 s DIKNN run with the paper's generator at the Section 5.1 density
// (200 nodes per 115 m square), scaled to N = 400.
TEST(NetGoldenTest, DiknnFieldN400) {
  ExperimentConfig config;
  config.network.node_count = 400;
  config.network.field = Rect::Field(162.6, 162.6);
  config.duration = 60.0;
  config.runs = 1;
  const RunMetrics m = RunOnce(config, 7);
  ASSERT_GT(m.queries, 0);
  ExpectGolden(m,
               {
                   {"channel.frames_sent", 62224u},
                   {"channel.receptions_attempted", 1482312u},
                   {"channel.receptions_collided", 83245u},
                   {"channel.receptions_delivered", 1399002u},
                   {"channel.receptions_lost", 0u},
                   {"mac.csma_failures", 392u},
                   {"mac.duplicates_dropped", 177u},
                   {"mac.frames_queued", 59081u},
                   {"mac.retries", 2139u},
                   {"mac.send_failures", 471u},
                   {"mac.tx_attempts", 60827u},
               },
               0x1.69e3d983bf67ep+2);
}

// A 30 s served run at N = 200 through frame-duplication and ACK-loss
// windows: unicast retries, dup replays of beacons and query frames, and
// the MAC's duplicate suppression all engage.
TEST(NetGoldenTest, ServedN200WithDupAndAckLoss) {
  ExperimentConfig config;
  config.duration = 30.0;
  config.runs = 1;
  config.audit_lifecycle = true;
  std::string error;
  config.workload = WorkloadSpec::Parse(
      "arrival@kind=poisson,rate=6;mix@knn=0.8,window=0.1,aggregate=0.1;"
      "k@lo=20,hi=40;deadline@s=4;admit@inflight=64,queue=32,shed=1;"
      "cache@ttl=8,cells=4;coalesce@window=2.5,kslack=10",
      &error);
  ASSERT_TRUE(config.workload.has_value()) << error;
  auto faults = FaultPlan::Parse(
      "dup@t=4,dur=8,prob=0.3;ackloss@t=10,dur=6,prob=0.5;"
      "dup@t=20,dur=4,prob=1",
      &error);
  ASSERT_TRUE(faults.has_value()) << error;
  config.faults = *faults;
  const RunMetrics m = RunOnce(config, 11);
  ASSERT_GT(m.slo.issued, 0u);
  EXPECT_GT(m.faults_injected, 0u);
  ExpectGolden(m,
               {
                   {"channel.frames_sent", 63685u},
                   {"channel.receptions_attempted", 1387253u},
                   {"channel.receptions_collided", 692104u},
                   {"channel.receptions_delivered", 695149u},
                   {"channel.receptions_lost", 0u},
                   {"mac.csma_failures", 19370u},
                   {"mac.duplicates_dropped", 41173u},
                   {"mac.frames_queued", 31665u},
                   {"mac.retries", 34453u},
                   {"mac.send_failures", 8870u},
                   {"mac.tx_attempts", 46748u},
               },
               0x1.5aa80d7000104p+5);
}

}  // namespace
}  // namespace diknn
