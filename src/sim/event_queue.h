#pragma once

/// \file event_queue.h
/// Pending-event set for the discrete-event simulation engine (DESIGN.md
/// §11): a binary heap ordered by (time, insertion seq).  Ties break by
/// insertion order, so pop order is a total function of the push sequence
/// and every run is deterministic.
///
/// Why a plain heap: the pending set stays tiny.  Each failure process
/// keeps one arrival pending, plus the repair, replacement, rejoin and
/// recovery events of the outages it has open.  The largest set measured
/// is 22 events, both in bench_sim's 10k-worker × 20-cell fleet grid and
/// in every test_sim_engine scenario (DESIGN.md §11.2).  At that size an
/// O(log n) heap costs a few comparisons per event.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/error.h"

namespace lowdiff::sim {

/// What a scheduled occurrence means to the scenario engine (scenario.h).
enum class EventKind : std::uint8_t {
  kFailure,         ///< base failure process strikes (software or hardware)
  kBurst,           ///< correlated rack-level failure burst begins
  kBurstRepair,     ///< a burst's victims come back online
  kPreemptNotice,   ///< spot reclaim notice arrives for a worker
  kPreemptKill,     ///< notice window elapsed; the worker is reclaimed
  kPreemptReplace,  ///< replacement capacity for a preempted worker arrives
  kJoin,            ///< elastic membership: a worker joins the fleet
  kLeave,           ///< elastic membership: a worker leaves gracefully
  kStragglerOnset,  ///< a worker starts running slow
  kStragglerEnd,    ///< a straggler episode ends
  kRecoveryDone,    ///< rollback/recovery window after a failure completes
};

struct Event {
  double time = 0.0;        ///< absolute simulation seconds
  EventKind kind = EventKind::kFailure;
  std::uint32_t worker = 0; ///< primary operand (victim worker/rack index)
  std::uint32_t aux = 0;    ///< secondary operand (burst size, flags, ...)
  std::uint64_t seq = 0;    ///< insertion order — total tie-break
};

/// Strict-weak "a fires after b": (time, seq) lexicographic.
inline bool event_after(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time > b.time;
  return a.seq > b.seq;
}

class EventQueue {
 public:
  void push(double time, EventKind kind, std::uint32_t worker = 0,
            std::uint32_t aux = 0) {
    heap_.push_back(Event{time, kind, worker, aux, next_seq_++});
    std::push_heap(heap_.begin(), heap_.end(), event_after);
  }

  Event pop() {
    LOWDIFF_CHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), event_after);
    const Event e = heap_.back();
    heap_.pop_back();
    return e;
  }

  bool empty() const { return heap_.empty(); }

 private:
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace lowdiff::sim
