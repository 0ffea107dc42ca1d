#include "net/neighbor_table.h"

#include <algorithm>
#include <limits>

#include "core/alloc_probe.h"

namespace diknn {

void NeighborTable::Reserve(size_t n) {
  ids_.reserve(n);
  positions_.reserve(n);
  speeds_.reserve(n);
  last_heard_.reserve(n);
}

size_t NeighborTable::LaneOf(NodeId id) const {
  return static_cast<size_t>(std::find(ids_.begin(), ids_.end(), id) -
                             ids_.begin());
}

void NeighborTable::Update(NodeId id, Point position, double speed,
                           SimTime now) {
  const size_t i = LaneOf(id);
  if (i < ids_.size()) {
    positions_[i] = position;
    speeds_[i] = speed;
    last_heard_[i] = now;
    return;
  }
  // First contact: lane growth is table capacity (lanes never shrink),
  // not a per-beacon transient allocation.
  AllocScopePause capacity;
  ids_.push_back(id);
  positions_.push_back(position);
  speeds_.push_back(speed);
  last_heard_.push_back(now);
}

void NeighborTable::Remove(NodeId id) {
  const size_t i = LaneOf(id);
  if (i == ids_.size()) return;
  ids_.erase(ids_.begin() + i);
  positions_.erase(positions_.begin() + i);
  speeds_.erase(speeds_.begin() + i);
  last_heard_.erase(last_heard_.begin() + i);
}

void NeighborTable::Expire(SimTime now) {
  size_t w = 0;
  for (size_t r = 0; r < ids_.size(); ++r) {
    if (!FreshAt(r, now)) continue;
    if (w != r) {
      ids_[w] = ids_[r];
      positions_[w] = positions_[r];
      speeds_[w] = speeds_[r];
      last_heard_[w] = last_heard_[r];
    }
    ++w;
  }
  ids_.resize(w);
  positions_.resize(w);
  speeds_.resize(w);
  last_heard_.resize(w);
}

std::optional<NeighborEntry> NeighborTable::Lookup(NodeId id,
                                                   SimTime now) const {
  const size_t i = LaneOf(id);
  if (i == ids_.size() || !FreshAt(i, now)) return std::nullopt;
  return NeighborEntry{ids_[i], positions_[i], speeds_[i], last_heard_[i]};
}

std::vector<NeighborEntry> NeighborTable::Snapshot(SimTime now) const {
  std::vector<NeighborEntry> out;
  SnapshotInto(now, &out);
  return out;
}

void NeighborTable::SnapshotInto(SimTime now,
                                 std::vector<NeighborEntry>* out) const {
  out->clear();
  if (out->capacity() < ids_.size()) {
    AllocScopePause capacity;  // Scratch high-water growth only.
    out->reserve(ids_.size());
  }
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now)) {
      out->push_back(
          NeighborEntry{ids_[i], positions_[i], speeds_[i], last_heard_[i]});
    }
  }
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
    const double d2 = SquaredDistance(positions_[i], target);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  if (best == ids_.size()) return std::nullopt;
  return NeighborEntry{ids_[best], positions_[best], speeds_[best],
                       last_heard_[best]};
}

std::vector<NeighborEntry> NeighborTable::CloserThan(const Point& target,
                                                     double threshold,
                                                     SimTime now) const {
  std::vector<NeighborEntry> out;
  const double t2 = threshold * threshold;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now) && SquaredDistance(positions_[i], target) < t2) {
      out.push_back(
          NeighborEntry{ids_[i], positions_[i], speeds_[i], last_heard_[i]});
    }
  }
  return out;
}

int NeighborTable::CountFartherThan(const Point& from, double radius,
                                    SimTime now) const {
  int count = 0;
  const double r2 = radius * radius;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now) && SquaredDistance(positions_[i], from) > r2) ++count;
  }
  return count;
}

double NeighborTable::MaxNeighborSpeed(SimTime now) const {
  double max_speed = 0.0;
  for (size_t i = 0; i < ids_.size(); ++i) {
    if (FreshAt(i, now)) max_speed = std::max(max_speed, speeds_[i]);
  }
  return max_speed;
}

}  // namespace diknn
