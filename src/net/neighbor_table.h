// Per-node neighbor table, populated from periodic location beacons.
//
// Section 3.1 of the paper: "Beacons with locations and identities (IDs)
// are periodically broadcasted. Every sensor node also maintains a table
// enrolling IDs and locations of neighbor nodes falling within its radio
// range r." An entry unheard-of for longer than the staleness timeout
// (several beacon periods) is invisible to every query, and the owning
// node compacts its table with Expire each time its beacon round starts,
// on both engines. A table therefore holds its fresh set plus at most
// what went stale during the last beacon interval: one radio
// neighborhood, about 20-40 entries at the paper's density.
//
// Layout (docs/PACKET_PLANE.md): two parallel flat vectors in insertion
// order, the id lane and one 32-byte record lane (position, speed,
// last-heard time). There is no id index: a linear scan of the
// contiguous id lane finds an entry in fewer cache misses than a hash
// probe would, and a refresh writes one record. Insertion order is
// preserved across erasure (lanes are compacted, not swap-erased), which
// makes iteration order a pure function of the beacon history and keeps
// runs bit-identical across --jobs counts. In steady state (table grown
// to its high-water capacity) updates, removals, expiry and scans
// allocate nothing.

#ifndef DIKNN_NET_NEIGHBOR_TABLE_H_
#define DIKNN_NET_NEIGHBOR_TABLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/geometry.h"
#include "net/packet.h"
#include "sim/event_queue.h"

namespace diknn {

/// One known neighbor, as last heard from.
struct NeighborEntry {
  NodeId id = kInvalidNodeId;
  Point position;          ///< Position advertised in the last beacon.
  double speed = 0.0;      ///< Speed advertised in the last beacon (m/s).
  SimTime last_heard = 0;  ///< Time the last beacon arrived.
};

/// Neighbor table with staleness-based eviction.
class NeighborTable {
 public:
  /// `timeout`: entries unheard-of for longer than this are dropped.
  explicit NeighborTable(SimTime timeout = 1.5) : timeout_(timeout) {}

  /// Pre-sizes the lanes for `n` entries, so a table that never exceeds
  /// `n` concurrent neighbors never allocates after construction. The
  /// parallel engine calls this with a density-derived bound to keep its
  /// steady-state allocation gate at zero.
  void Reserve(size_t n);

  /// Inserts or refreshes an entry from a beacon heard at time `now`.
  void Update(NodeId id, Point position, double speed, SimTime now);

  /// Removes a neighbor explicitly (e.g., unicast to it failed).
  void Remove(NodeId id);

  /// Drops entries older than the timeout relative to `now`. Each engine
  /// calls this when the owning node's beacon round starts.
  void Expire(SimTime now);

  /// Live entry for `id`, if present and fresh at `now`.
  std::optional<NeighborEntry> Lookup(NodeId id, SimTime now) const;

  /// Clears `out` and fills it with all fresh entries at `now`, in table
  /// (insertion) order. Reusing `out` across calls makes this
  /// allocation-free once it has reached its high-water capacity.
  void SnapshotInto(SimTime now, std::vector<NeighborEntry>* out) const;

  /// Calls `fn(const NeighborEntry&)` for every fresh entry at `now`, in
  /// table order, without materializing a snapshot.
  template <typename Fn>
  void ForEachFresh(SimTime now, Fn&& fn) const {
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (!FreshAt(i, now)) continue;
      fn(EntryAt(i));
    }
  }

  /// Number of fresh entries at `now`.
  int CountFresh(SimTime now) const;

  /// Number of lanes, stale ones not yet expired included.
  size_t size() const { return ids_.size(); }

  /// Fresh neighbor geometrically closest to `target`; nullopt if empty.
  std::optional<NeighborEntry> ClosestTo(const Point& target,
                                         SimTime now) const;

  /// Counts fresh neighbors farther than `radius` from `from` — the
  /// "newly encountered neighbors" enc_i of the paper's Section 4.1.
  int CountFartherThan(const Point& from, double radius, SimTime now) const;

  SimTime timeout() const { return timeout_; }

 private:
  /// What the last beacon from one neighbor said, and when it arrived.
  struct Record {
    Point position;
    double speed = 0.0;
    SimTime last_heard = 0;
  };

  bool FreshAt(size_t i, SimTime now) const {
    return now - records_[i].last_heard <= timeout_;
  }
  NeighborEntry EntryAt(size_t i) const {
    const Record& r = records_[i];
    return NeighborEntry{ids_[i], r.position, r.speed, r.last_heard};
  }

  // Lane of `id`, or ids_.size() when absent.
  size_t LaneOf(NodeId id) const;

  SimTime timeout_;
  // Parallel lanes, insertion-ordered.
  std::vector<NodeId> ids_;
  std::vector<Record> records_;
};

}  // namespace diknn

#endif  // DIKNN_NET_NEIGHBOR_TABLE_H_
