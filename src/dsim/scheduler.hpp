// Generic discrete-event scheduler.
//
// This is the event-list machinery (Fig. 3 of the paper) shared by the
// network simulator: events ordered by (time, insertion sequence), strictly
// monotone execution, and counters used by the E7 event-ratio experiment.
// Events may be scheduled for the current time or the future, never the
// past — scheduling into the past throws ProtocolError, which is exactly the
// causality error the §3.1 protocol must prevent across simulator boundaries.
//
// The pending set is a binary min-heap of small {when, seq, slot} entries.
// The actions are SmallFn callables kept in a slab whose slots are recycled
// through a free list: an action moves in at schedule_at and out at step, so
// a sift moves 24-byte entries, never a type-erased callable.  The
// network workloads never hold more than 9 pending events (EXPERIMENTS.md,
// "Network event list"), where a heap is as fast as any cleverer structure.
// Once the heap, slab and free list are warm and every capture fits
// SmallFn::kInlineBytes, schedule/step perform zero heap allocations
// (tests/dsim/test_scheduler_alloc.cpp).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/core/telemetry.hpp"
#include "src/dsim/small_fn.hpp"
#include "src/dsim/time.hpp"

namespace castanet {

class Scheduler {
 public:
  using Action = SmallFn;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `action` at absolute time `when` (>= now).  Events at equal
  /// time run in insertion order.
  void schedule_at(SimTime when, Action action);
  /// Schedules `action` `delay` after now.
  void schedule_in(SimTime delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// True if no events are pending.
  bool empty() const { return heap_.empty(); }
  /// Time stamp of the earliest pending event; SimTime::max() when empty.
  SimTime next_event_time() const {
    return heap_.empty() ? SimTime::max() : heap_.front().when;
  }

  /// Runs the single earliest event; returns false when none pending.
  bool step();
  /// Runs all events with time <= limit (inclusive); time ends at
  /// min(limit, last event time).  Returns number of events executed.
  /// Shares its semantics with rtl::Simulator::run_until; a `limit` that
  /// precedes now() is a no-op — simulated time never regresses.
  std::uint64_t run_until(SimTime limit);
  /// Runs to exhaustion (or until `max_events` executed; 0 = unlimited).
  std::uint64_t run(std::uint64_t max_events = 0);

  /// Advances now to `t` without executing anything (used by co-simulation
  /// time-window grants).  `t` must be >= now and <= next_event_time().
  void advance_to(SimTime t);

  /// Total events executed since construction (E7 experiment counter).
  std::uint64_t events_executed() const { return executed_; }
  std::uint64_t events_scheduled() const { return scheduled_; }

  /// Timeline row for "net.slice" spans in the Chrome trace; the session
  /// assigns the "net" row at the start of a traced run.
  void set_telemetry_track(telemetry::TrackId track) {
    telemetry_track_ = track;
  }

 private:
  /// A pending event; its action is `actions_[slot]`.
  struct Entry {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  /// Heap order: true when `a` runs after `b`, so the heap's front is the
  /// earliest event in strict (when, seq) order — the execution-order
  /// contract.
  static bool runs_after(const Entry& a, const Entry& b) {
    if (a.when != b.when) return a.when > b.when;
    return a.seq > b.seq;
  }

  SimTime now_ = SimTime::zero();
  std::uint64_t executed_ = 0;
  /// Also the next insertion sequence number.
  std::uint64_t scheduled_ = 0;

  std::vector<Entry> heap_;
  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_slots_;

  telemetry::TrackId telemetry_track_ = telemetry::kMainTrack;
};

}  // namespace castanet
