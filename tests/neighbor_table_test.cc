#include "net/neighbor_table.h"

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "core/alloc_probe.h"

namespace diknn {
namespace {

TEST(NeighborTableTest, InsertAndLookup) {
  NeighborTable table(1.5);
  table.Update(7, {1, 2}, 3.0, /*now=*/10.0);
  const auto e = table.Lookup(7, 10.5);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, 7);
  EXPECT_EQ(e->position, Point(1, 2));
  EXPECT_DOUBLE_EQ(e->speed, 3.0);
  EXPECT_DOUBLE_EQ(e->last_heard, 10.0);
}

TEST(NeighborTableTest, UpdateRefreshesEntry) {
  NeighborTable table(1.5);
  table.Update(7, {1, 2}, 3.0, 10.0);
  table.Update(7, {5, 6}, 1.0, 11.0);
  const auto e = table.Lookup(7, 11.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->position, Point(5, 6));
  EXPECT_EQ(table.CountFresh(11.0), 1);
}

TEST(NeighborTableTest, StaleEntriesInvisible) {
  NeighborTable table(1.5);
  table.Update(7, {1, 2}, 0.0, 10.0);
  EXPECT_TRUE(table.Lookup(7, 11.5).has_value());   // Exactly at timeout.
  EXPECT_FALSE(table.Lookup(7, 11.51).has_value());
  EXPECT_EQ(table.CountFresh(12.0), 0);
  std::vector<NeighborEntry> snap;
  table.SnapshotInto(12.0, &snap);
  EXPECT_TRUE(snap.empty());
}

TEST(NeighborTableTest, ExpirePurgesOldEntries) {
  NeighborTable table(1.0);
  table.Update(1, {0, 0}, 0.0, 0.0);
  table.Update(2, {0, 0}, 0.0, 5.0);
  table.Expire(5.5);
  EXPECT_FALSE(table.Lookup(1, 5.5).has_value());
  EXPECT_TRUE(table.Lookup(2, 5.5).has_value());
}

TEST(NeighborTableTest, RemoveDeletesImmediately) {
  NeighborTable table(10.0);
  table.Update(3, {0, 0}, 0.0, 0.0);
  table.Remove(3);
  EXPECT_FALSE(table.Lookup(3, 0.0).has_value());
}

TEST(NeighborTableTest, SnapshotReturnsFreshOnly) {
  NeighborTable table(1.0);
  table.Update(1, {0, 0}, 0.0, 0.0);
  table.Update(2, {1, 1}, 0.0, 2.0);
  table.Update(3, {2, 2}, 0.0, 2.5);
  std::vector<NeighborEntry> snap;
  table.SnapshotInto(2.6, &snap);
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].id, 2);
  EXPECT_EQ(snap[1].id, 3);
}

TEST(NeighborTableTest, ClosestToPicksMinimum) {
  NeighborTable table(10.0);
  table.Update(1, {0, 0}, 0.0, 0.0);
  table.Update(2, {5, 0}, 0.0, 0.0);
  table.Update(3, {9, 0}, 0.0, 0.0);
  const auto e = table.ClosestTo({6, 0}, 0.0);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->id, 2);
}

TEST(NeighborTableTest, ClosestToEmptyIsNullopt) {
  NeighborTable table(1.0);
  EXPECT_FALSE(table.ClosestTo({0, 0}, 0.0).has_value());
}

TEST(NeighborTableTest, CountFartherThanMatchesEncSemantics) {
  NeighborTable table(10.0);
  // Previous hop at origin, radio range 5: "newly encountered" neighbors
  // are those farther than 5 from the origin.
  table.Update(1, {3, 0}, 0.0, 0.0);   // Inside old disk.
  table.Update(2, {6, 0}, 0.0, 0.0);   // New.
  table.Update(3, {0, 8}, 0.0, 0.0);   // New.
  table.Update(4, {5, 0}, 0.0, 0.0);   // Exactly on the edge: not counted.
  EXPECT_EQ(table.CountFartherThan({0, 0}, 5.0, 0.0), 2);
}

// Ids of the fresh entries at `now`, in table order.
std::vector<NodeId> Order(const NeighborTable& table, SimTime now) {
  std::vector<NodeId> ids;
  table.ForEachFresh(now,
                     [&ids](const NeighborEntry& e) { ids.push_back(e.id); });
  return ids;
}

TEST(NeighborTableTest, InsertionOrderSurvivesRemoveExpireAndReinsert) {
  NeighborTable table(1.0);
  for (NodeId id : {5, 3, 9, 1, 7}) table.Update(id, {0, 0}, 0.0, 0.0);
  table.Update(9, {1, 1}, 0.0, 0.5);  // A refresh keeps its lane.
  EXPECT_EQ(Order(table, 0.5), (std::vector<NodeId>{5, 3, 9, 1, 7}));

  table.Remove(3);
  EXPECT_EQ(Order(table, 0.5), (std::vector<NodeId>{5, 9, 1, 7}));

  table.Update(1, {0, 0}, 0.0, 1.2);
  table.Expire(1.2);  // 5 and 7 (heard at 0.0) go; 9 and 1 stay.
  EXPECT_EQ(Order(table, 1.2), (std::vector<NodeId>{9, 1}));

  // Re-inserted ids go to the end, behind the survivors.
  table.Update(5, {0, 0}, 0.0, 1.3);
  table.Update(3, {0, 0}, 0.0, 1.3);
  EXPECT_EQ(Order(table, 1.3), (std::vector<NodeId>{9, 1, 5, 3}));
}

TEST(NeighborTableTest, LookupAndFreshnessAfterCompaction) {
  NeighborTable table(1.0);
  for (NodeId id = 0; id < 8; ++id) {
    table.Update(id, {static_cast<double>(id), 0}, id * 0.5, id * 0.25);
  }
  table.Remove(2);
  table.Expire(1.3);  // Drops ids heard before 0.3: 0 and 1.
  EXPECT_EQ(Order(table, 1.3), (std::vector<NodeId>{3, 4, 5, 6, 7}));
  for (NodeId id : {0, 1, 2}) {
    EXPECT_FALSE(table.Lookup(id, 1.3).has_value()) << id;
  }
  for (NodeId id = 3; id < 8; ++id) {
    const auto e = table.Lookup(id, 1.3);
    ASSERT_TRUE(e.has_value()) << id;
    EXPECT_EQ(e->position, Point(static_cast<double>(id), 0));
    EXPECT_DOUBLE_EQ(e->speed, id * 0.5);
    EXPECT_DOUBLE_EQ(e->last_heard, id * 0.25);
  }
  // Freshness still reads each entry's own lane: at 2.0 only ids heard
  // at 1.0 or later (4..7) are fresh, and Lookup agrees.
  EXPECT_EQ(table.CountFresh(2.0), 4);
  EXPECT_FALSE(table.Lookup(3, 2.0).has_value());
  EXPECT_TRUE(table.Lookup(4, 2.0).has_value());
  // A refresh after compaction lands on the right lane.
  table.Update(6, {60, 6}, 9.0, 2.0);
  EXPECT_EQ(table.Lookup(6, 2.0)->position, Point(60, 6));
  EXPECT_EQ(table.Lookup(7, 2.0)->position, Point(7, 0));
}

TEST(NeighborTableTest, ThreeHundredEntriesRoundTrip) {
  NeighborTable table(10.0);
  for (NodeId id = 0; id < 300; ++id) {
    // Spread ids so order is insertion order, not id order.
    const NodeId key = (id * 7919) % 1000;
    table.Update(key, {static_cast<double>(id), -static_cast<double>(id)},
                 id * 0.01, 1.0);
  }
  ASSERT_EQ(table.CountFresh(1.0), 300);
  std::vector<NodeId> expected;
  for (NodeId id = 0; id < 300; ++id) expected.push_back((id * 7919) % 1000);
  EXPECT_EQ(Order(table, 1.0), expected);
  for (NodeId id = 0; id < 300; ++id) {
    const auto e = table.Lookup((id * 7919) % 1000, 1.0);
    ASSERT_TRUE(e.has_value()) << id;
    EXPECT_EQ(e->position,
              Point(static_cast<double>(id), -static_cast<double>(id)));
    EXPECT_DOUBLE_EQ(e->speed, id * 0.01);
  }
  EXPECT_FALSE(table.Lookup(1, 1.0).has_value());  // Not a key above.
}

TEST(NeighborTableTest, UpdateOnReservedTableAllocatesNothing) {
  NeighborTable table(1.0);
  table.Reserve(64);
  AllocCounters counters;
  int found = 0;
  const uint64_t total_before = alloc_probe::TotalAllocations();
  {
    AllocScope scope(&counters);
    for (int round = 0; round < 20; ++round) {
      const SimTime now = round * 0.1;
      for (NodeId id = 0; id < 64; ++id) {
        table.Update(id, {1.0 * id, 2.0}, 1.0, now);
      }
      table.Remove(static_cast<NodeId>(round));
      table.Expire(now);
      if (table.Lookup(63, now).has_value()) ++found;
    }
  }
  EXPECT_EQ(found, 20);
  EXPECT_EQ(counters.allocations, 0u);
  // First contact grows lanes under an AllocScopePause, which the scoped
  // counters would not see; the process-wide tally would.
  EXPECT_EQ(alloc_probe::TotalAllocations(), total_before);
}

TEST(NeighborTableTest, ExpireAtEachBeaconBoundsChurningTable) {
  // One node's view of a moving field: 30 neighbors in range at a time,
  // 3 of them replaced by never-seen ids every 0.5 s beacon interval.
  // The owner expires its table when its own beacon round starts, as
  // both engines do, so stale lanes are recycled instead of accumulating.
  constexpr SimTime kInterval = 0.5;
  constexpr NodeId kLive = 30;
  constexpr NodeId kChurn = 3;
  NeighborTable table(1.5);
  const auto beacon_round = [&table](int round) {
    const SimTime t = round * kInterval;
    table.Expire(t);
    const NodeId first = round * kChurn;
    for (NodeId k = 0; k < kLive; ++k) {
      table.Update(first + k, {1.0 * k, 0.0}, 1.0, t + 0.01 * (k + 1));
    }
  };
  int round = 0;
  for (; round < 20; ++round) beacon_round(round);  // Warm up.

  AllocCounters counters;
  const uint64_t total_before = alloc_probe::TotalAllocations();
  size_t max_lanes = 0;
  {
    AllocScope scope(&counters);
    for (; round < 420; ++round) {
      beacon_round(round);
      max_lanes = std::max(max_lanes, table.size());
      // Fresh: every id heard in this round or the two before it.
      EXPECT_EQ(table.CountFresh(round * kInterval + 0.3),
                kLive + 2 * kChurn);
    }
  }
  // Live set plus the ids that went stale since the last expiry: those
  // heard in the four rounds before the 1.5 s timeout.
  EXPECT_LE(max_lanes, static_cast<size_t>(kLive + 4 * kChurn));
  EXPECT_EQ(counters.allocations, 0u);
  // Lane growth runs under an AllocScopePause, invisible to the scoped
  // counters; the process-wide tally shows the capacity stayed put.
  EXPECT_EQ(alloc_probe::TotalAllocations(), total_before);
}

}  // namespace
}  // namespace diknn
