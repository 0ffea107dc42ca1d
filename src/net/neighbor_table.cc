#include "net/neighbor_table.h"

#include <algorithm>
#include <limits>

#include "core/alloc_probe.h"

namespace diknn {

void NeighborTable::Reserve(size_t n) {
  ids_.reserve(n);
  records_.reserve(n);
}

size_t NeighborTable::LaneOf(NodeId id) const {
  return static_cast<size_t>(std::find(ids_.begin(), ids_.end(), id) -
                             ids_.begin());
}

void NeighborTable::Update(NodeId id, Point position, double speed,
                           SimTime now) {
  const size_t i = LaneOf(id);
  if (i < ids_.size()) {
    records_[i] = Record{position, speed, now};
    return;
  }
  // First contact: lane growth is table capacity (lanes never shrink),
  // not a per-beacon transient allocation.
  AllocScopePause capacity;
  ids_.push_back(id);
  records_.push_back(Record{position, speed, now});
}

void NeighborTable::Remove(NodeId id) {
  const size_t i = LaneOf(id);
  if (i == ids_.size()) return;
  ids_.erase(ids_.begin() + i);
  records_.erase(records_.begin() + i);
}

void NeighborTable::Expire(SimTime now) {
  size_t w = 0;
  for (size_t r = 0; r < ids_.size(); ++r) {
    if (!FreshAt(r, now)) continue;
    if (w != r) {
      ids_[w] = ids_[r];
      records_[w] = records_[r];
    }
    ++w;
  }
  ids_.resize(w);
  records_.resize(w);
}

std::optional<NeighborEntry> NeighborTable::Lookup(NodeId id,
                                                   SimTime now) const {
  const size_t i = LaneOf(id);
  if (i == ids_.size() || !FreshAt(i, now)) return std::nullopt;
  return EntryAt(i);
}

void NeighborTable::SnapshotInto(SimTime now,
                                 std::vector<NeighborEntry>* out) const {
  out->clear();
  if (out->capacity() < ids_.size()) {
    AllocScopePause capacity;  // Scratch high-water growth only.
    out->reserve(ids_.size());
  }
  ForEachFresh(now, [out](const NeighborEntry& e) { out->push_back(e); });
}

int NeighborTable::CountFresh(SimTime now) const {
  int count = 0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now)) ++count;
  }
  return count;
}

std::optional<NeighborEntry> NeighborTable::ClosestTo(const Point& target,
                                                      SimTime now) const {
  size_t best = ids_.size();
  double best_d2 = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (!FreshAt(i, now)) continue;
    const double d2 = SquaredDistance(records_[i].position, target);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  if (best == ids_.size()) return std::nullopt;
  return EntryAt(best);
}

int NeighborTable::CountFartherThan(const Point& from, double radius,
                                    SimTime now) const {
  int count = 0;
  const double r2 = radius * radius;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now) && SquaredDistance(records_[i].position, from) > r2) {
      ++count;
    }
  }
  return count;
}

}  // namespace diknn
