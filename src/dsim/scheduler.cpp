#include "src/dsim/scheduler.hpp"

#include <algorithm>
#include <optional>

#include "src/core/error.hpp"

namespace castanet {

void Scheduler::schedule_at(SimTime when, Action action) {
  if (when < now_) {
    throw ProtocolError("Scheduler: event scheduled in the past (" +
                        when.to_string() + " < " + now_.to_string() + ")");
  }
  std::uint32_t slot = static_cast<std::uint32_t>(actions_.size());
  if (free_slots_.empty()) {
    actions_.push_back(std::move(action));
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
    actions_[slot] = std::move(action);
  }
  heap_.push_back({when, scheduled_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), runs_after);
}

bool Scheduler::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), runs_after);
  const Entry next = heap_.back();
  heap_.pop_back();
  // Move the action out before running it: it may schedule into its own
  // (now free) slot.
  Action action = std::move(actions_[next.slot]);
  free_slots_.push_back(next.slot);
  now_ = next.when;
  ++executed_;
  action();
  return true;
}

std::uint64_t Scheduler::run_until(SimTime limit) {
  // Shared semantics with rtl::Simulator::run_until: execute every event
  // with time <= limit, then pin now() to limit.  A limit already in the
  // past is a no-op — simulated time never regresses, and callers may
  // safely re-issue a stale horizon.  Only advance_to() asserts strict
  // monotonicity, because skipping backwards there would skip events.
  if (limit < now_) return 0;
  std::optional<telemetry::Span> span;
  if (telemetry::enabled()) {
    span.emplace("net.slice", telemetry_track_);
    span->arg("from_us", now_.seconds() * 1e6);
    span->arg("to_us", limit.seconds() * 1e6);
  }
  std::uint64_t n = 0;
  while (!heap_.empty() && heap_.front().when <= limit) {
    step();
    ++n;
  }
  if (span) span->arg("events", static_cast<double>(n));
  if (now_ < limit) {
    // Time halts at the limit even when later events are pending.
    now_ = limit;
  }
  return n;
}

std::uint64_t Scheduler::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while ((max_events == 0 || n < max_events) && step()) ++n;
  return n;
}

void Scheduler::advance_to(SimTime t) {
  require(t >= now_, "Scheduler::advance_to: cannot move time backwards");
  require(t <= next_event_time(),
          "Scheduler::advance_to: would skip pending events");
  now_ = t;
}

}  // namespace castanet
