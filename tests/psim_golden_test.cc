// Golden traffic probes for the windowed parallel engine. Three seeded
// 2-shard substrate runs pin every partition-invariant traffic counter,
// the invariant obs JSON and the end-of-run mean degree to literal
// values. psim_determinism_test compares shard counts against each
// other, so it cannot see a change that moves every shard count alike
// (a reordered receive loop, a wrong range shortcut); these probes can.
// A deliberate model change updates the literals (a mismatch prints the
// replacement block).

#include <cstdint>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "psim/engine.h"

namespace diknn {
namespace {

// The run's probes formatted as the literals below, for updating them.
std::string Literals(const PsimResult& r) {
  const PsimStats::Invariants c = r.totals.InvariantCounters();
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\n      {%lluu, %lluu, %lluu, %lluu,\n"
                "       %lluu, %lluu,\n"
                "       %lluu, %lluu,\n"
                "       %lluu, %lluu},\n"
                "      %a,\n",
                static_cast<unsigned long long>(c.frames_sent),
                static_cast<unsigned long long>(c.csma_attempts),
                static_cast<unsigned long long>(c.csma_busy),
                static_cast<unsigned long long>(c.csma_failures),
                static_cast<unsigned long long>(c.receptions_attempted),
                static_cast<unsigned long long>(c.receptions_delivered),
                static_cast<unsigned long long>(c.receptions_collided),
                static_cast<unsigned long long>(c.receptions_lost),
                static_cast<unsigned long long>(c.candidates_scanned),
                static_cast<unsigned long long>(c.neighbor_updates),
                r.average_degree);
  // The JSON as adjacent raw literals, one per ", "-separated field.
  std::string out = buf;
  const std::string json = InvariantObsJson(r.obs);
  size_t begin = 0;
  while (begin < json.size()) {
    size_t end = json.find(", ", begin);
    end = end == std::string::npos ? json.size() : end + 2;
    out += "      R\"(" + json.substr(begin, end - begin) + ")\"\n";
    begin = end;
  }
  return out;
}

PsimResult RunTwoShards(PsimConfig config) {
  config.shards = 2;
  PsimEngine engine(config);
  EXPECT_EQ(engine.shards(), 2) << "field too narrow for two strips";
  PsimResult result = engine.Run();
  EXPECT_TRUE(engine.OwnershipInvariantHolds());
  EXPECT_GT(result.totals.boundary_frames, 0u);
  EXPECT_EQ(result.totals.audit_mismatches, 0u);
  return result;
}

void ExpectGolden(const PsimResult& r, const PsimStats::Invariants& counters,
                  double average_degree, const std::string& obs_json) {
  EXPECT_EQ(r.totals.InvariantCounters(), counters);
  EXPECT_EQ(r.average_degree, average_degree);
  EXPECT_EQ(InvariantObsJson(r.obs), obs_json);
  if (testing::Test::HasFailure()) {
    std::printf("Replacement literals:%s", Literals(r).c_str());
  }
}

// The paper's Section 5.1 density (200 nodes per 115 m square) scaled to
// N = 800, at mu_max = 10 m/s with 5% stateless frame loss: most
// receivers sit inside or outside the drift-bounded range, a few in the
// annulus between.
TEST(PsimGoldenTest, PaperDensityLossy) {
  PsimConfig config;
  config.node_count = 800;
  config.field = Rect::Field(230.0, 230.0);
  config.max_speed = 10.0;
  config.loss_rate = 0.05;
  config.duration = 3.0;
  config.seed = 5;
  const PsimResult r = RunTwoShards(config);
  ASSERT_GT(r.totals.receptions_lost, 0u);
  ASSERT_GT(r.totals.migrations_out, 0u);
  ExpectGolden(r,
      {4799u, 4879u, 80u, 0u,
       93776u, 85480u,
       3760u, 4536u,
       320388u, 85480u},
      0x1.8033333333333p+4,
      R"({"counters": {"channel.frames_sent": 4799, )"
      R"("channel.receptions_attempted": 93776, )"
      R"("channel.receptions_collided": 3760, )"
      R"("channel.receptions_delivered": 85480, )"
      R"("channel.receptions_lost": 4536, )"
      R"("mac.csma_failures": 0, )"
      R"("psim.candidates_scanned": 320388, )"
      R"("psim.csma_attempts": 4879, )"
      R"("psim.csma_busy": 80, )"
      R"("psim.neighbor_updates": 85480}, )"
      R"("gauges": {"psim.lookahead_s": 0.000736}, )"
      R"("histograms": {}})");
}

// A dense, fast field (mu_max = 30 m/s, 10 beacons/s): frames overlap,
// so receptions collide and receivers with interferers need their exact
// positions.
TEST(PsimGoldenTest, DenseFastCollisions) {
  PsimConfig config;
  config.node_count = 1200;
  config.field = Rect::Field(250.0, 115.0);
  config.max_speed = 30.0;
  config.beacon_interval = 0.1;
  config.duration = 2.0;
  config.seed = 9;
  const PsimResult r = RunTwoShards(config);
  ASSERT_GT(r.totals.receptions_collided, 0u);
  ASSERT_GT(r.totals.csma_busy, 0u);
  ExpectGolden(r,
      {23970u, 29981u, 6011u, 14u,
       1375893u, 694743u,
       681150u, 0u,
       6139049u, 694743u},
      0x1.84e3d70a3d70ap+6,
      R"({"counters": {"channel.frames_sent": 23970, )"
      R"("channel.receptions_attempted": 1375893, )"
      R"("channel.receptions_collided": 681150, )"
      R"("channel.receptions_delivered": 694743, )"
      R"("channel.receptions_lost": 0, )"
      R"("mac.csma_failures": 14, )"
      R"("psim.candidates_scanned": 6139049, )"
      R"("psim.csma_attempts": 29981, )"
      R"("psim.csma_busy": 6011, )"
      R"("psim.neighbor_updates": 694743}, )"
      R"("gauges": {"psim.lookahead_s": 0.000736}, )"
      R"("histograms": {}})");
}

// Static nodes (mu_max = 0): no drift between sweeps, no migrations.
TEST(PsimGoldenTest, StaticField) {
  PsimConfig config;
  config.node_count = 600;
  config.field = Rect::Field(200.0, 115.0);
  config.max_speed = 0.0;
  config.duration = 2.0;
  config.seed = 3;
  const PsimResult r = RunTwoShards(config);
  ASSERT_EQ(r.totals.migrations_out, 0u);
  ExpectGolden(r,
      {2400u, 2447u, 47u, 0u,
       72059u, 66995u,
       5064u, 0u,
       188601u, 66995u},
      0x1.da7ae147ae148p+4,
      R"({"counters": {"channel.frames_sent": 2400, )"
      R"("channel.receptions_attempted": 72059, )"
      R"("channel.receptions_collided": 5064, )"
      R"("channel.receptions_delivered": 66995, )"
      R"("channel.receptions_lost": 0, )"
      R"("mac.csma_failures": 0, )"
      R"("psim.candidates_scanned": 188601, )"
      R"("psim.csma_attempts": 2447, )"
      R"("psim.csma_busy": 47, )"
      R"("psim.neighbor_updates": 66995}, )"
      R"("gauges": {"psim.lookahead_s": 0.000736}, )"
      R"("histograms": {}})");
}

}  // namespace
}  // namespace diknn
