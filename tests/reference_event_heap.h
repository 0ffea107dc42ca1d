// Reference scheduler for tests: the simulator's pre-wheel design, a
// binary min-heap of std::function entries ordered by (time, insertion
// sequence), with tombstone cancellation through a live-id set. It is
// slow but obviously correct, so tests replay one operation sequence
// through it and through the production timer wheel (sim/event_queue.h)
// and require the same firing order. It exposes the subset of
// EventQueue's surface those tests drive: Push, Cancel, IsPending, Empty,
// Size, NextTime, Pop and the pushed/fired/cancelled counters.

#ifndef DIKNN_TESTS_REFERENCE_EVENT_HEAP_H_
#define DIKNN_TESTS_REFERENCE_EVENT_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/event_queue.h"

namespace diknn {

class ReferenceEventHeap {
 public:
  template <typename F>
  EventId Push(SimTime t, F&& fn) {
    const EventId id = next_id_++;
    heap_.push_back(
        Entry{t, next_seq_++, id, std::function<void()>(std::forward<F>(fn))});
    std::push_heap(heap_.begin(), heap_.end(), After);
    live_.insert(id);
    ++stats_.events_pushed;
    return id;
  }

  void Cancel(EventId id) {
    if (live_.erase(id) != 0) ++stats_.events_cancelled;
  }

  bool IsPending(EventId id) const { return live_.contains(id); }
  bool Empty() const { return live_.empty(); }
  size_t Size() const { return live_.size(); }
  const EngineStats& stats() const { return stats_; }

  SimTime NextTime() {
    SkipCancelled();
    assert(!heap_.empty());
    return heap_.front().time;
  }

  std::function<void()> Pop(SimTime* time_out) {
    SkipCancelled();
    assert(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), After);
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    live_.erase(entry.id);
    ++stats_.events_fired;
    if (time_out != nullptr) *time_out = entry.time;
    return std::move(entry.fn);
  }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    EventId id;
    std::function<void()> fn;
  };

  // std::push_heap/pop_heap build a max-heap; "later" yields a min-heap.
  static bool After(const Entry& a, const Entry& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  // Drops cancelled entries off the top of the heap.
  void SkipCancelled() {
    while (!heap_.empty() && !live_.contains(heap_.front().id)) {
      std::pop_heap(heap_.begin(), heap_.end(), After);
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::unordered_set<EventId> live_;
  EventId next_id_ = 1;
  uint64_t next_seq_ = 0;
  EngineStats stats_;
};

}  // namespace diknn

#endif  // DIKNN_TESTS_REFERENCE_EVENT_HEAP_H_
