#include "src/rtl/simulator.hpp"

#include <algorithm>

#include "src/core/error.hpp"

namespace castanet::rtl {

SignalId Simulator::create_signal(std::string name, std::size_t width,
                                  Logic init) {
  require(width > 0, "create_signal: width must be > 0");
  SignalState st;
  st.name = std::move(name);
  st.width = width;
  st.effective = LogicVector(width, init);
  st.previous = st.effective;
  signals_.push_back(std::move(st));
  return static_cast<SignalId>(signals_.size() - 1);
}

ProcessId Simulator::add_process(std::string name,
                                 std::vector<SignalId> sensitivity,
                                 std::function<void()> fn) {
  if (processes_.empty()) {
    processes_.push_back({"<external>", nullptr});  // reserve id 0
  }
  processes_.push_back({std::move(name), std::move(fn)});
  const auto pid = static_cast<ProcessId>(processes_.size() - 1);
  runnable_stamp_.resize(processes_.size(), 0);
  gated_.resize(processes_.size(), 0);
  for (SignalId s : sensitivity) {
    require(s < signals_.size(), "add_process: unknown signal in sensitivity");
    signals_[s].sensitive.push_back(pid);
    signals_[s].sensitive_rising.push_back(0);
    ++signals_[s].level_entries;
  }
  return pid;
}

ProcessId Simulator::add_clocked_process(std::string name, SignalId clk,
                                         std::function<void()> fn) {
  require(clk < signals_.size(), "add_clocked_process: unknown signal");
  SignalState& st = signals_[clk];
  require(st.width == 1, "add_clocked_process: clock is not a scalar");
  const ProcessId pid = add_process(std::move(name), {}, std::move(fn));
  processes_[pid].clock = clk;
  st.sensitive.push_back(pid);
  st.sensitive_rising.push_back(1);
  ++st.clocked_entries;
  return pid;
}

void Simulator::restrict_sensitivity_to_rising(ProcessId p, SignalId s) {
  require(s < signals_.size(), "restrict_sensitivity_to_rising: unknown signal");
  SignalState& st = signals_[s];
  require(st.width == 1,
          "restrict_sensitivity_to_rising: signal is not a scalar");
  for (std::size_t i = 0; i < st.sensitive.size(); ++i) {
    if (st.sensitive[i] == p) {
      if (st.sensitive_rising[i] == 0) --st.level_entries;
      st.sensitive_rising[i] = 1;
      return;
    }
  }
  require(false, "restrict_sensitivity_to_rising: process not sensitive");
}

void Simulator::set_wake_signals(ProcessId p,
                                 const std::vector<SignalId>& sigs) {
  require(p != kExternalProcess && p < processes_.size(),
          "set_wake_signals: unknown process");
  for (SignalId s : sigs) {
    require(s < signals_.size(), "set_wake_signals: unknown signal");
    std::vector<ProcessId>& watch = signals_[s].wake_watch;
    if (std::find(watch.begin(), watch.end(), p) == watch.end()) {
      watch.push_back(p);
    }
  }
}

void Simulator::gate_current_process() {
  if (current_process_ == kExternalProcess || probing_) return;
  gated_[current_process_] = 1;
}

void Simulator::wake_process(ProcessId p) {
  require(p < processes_.size(), "wake_process: unknown process");
  gated_[p] = 0;
}

bool Simulator::process_gated(ProcessId p) const {
  require(p < processes_.size(), "process_gated: unknown process");
  return gated_[p] != 0;
}

const std::string& Simulator::signal_name(SignalId s) const {
  require(s < signals_.size(), "signal_name: unknown signal");
  return signals_[s].name;
}

void Simulator::harvest_read(SignalId s) const {
  // Lint-only dataflow harvest; processes and their read sets are small,
  // so the dedup scan stays cheap — and the tracking flag is off outside
  // analysis runs.
  auto& readers = const_cast<SignalState&>(signals_[s]).readers;
  if (std::find(readers.begin(), readers.end(), current_process_) ==
      readers.end()) {
    readers.push_back(current_process_);
  }
  if (probing_ && std::find(probe_reads_.begin(), probe_reads_.end(), s) ==
                      probe_reads_.end()) {
    probe_reads_.push_back(s);
  }
}

const std::vector<ProcessId>& Simulator::readers_of(SignalId s) const {
  require(s < signals_.size(), "readers_of: unknown signal");
  return signals_[s].readers;
}

const std::string& Simulator::process_name(ProcessId p) const {
  require(p < processes_.size(), "process_name: unknown process");
  return processes_[p].name;
}

const std::vector<ProcessId>& Simulator::sensitive_processes(
    SignalId s) const {
  require(s < signals_.size(), "sensitive_processes: unknown signal");
  return signals_[s].sensitive;
}

const std::vector<std::uint8_t>& Simulator::sensitive_rising(
    SignalId s) const {
  require(s < signals_.size(), "sensitive_rising: unknown signal");
  return signals_[s].sensitive_rising;
}

std::vector<ProcessId> Simulator::drivers_of(SignalId s) const {
  require(s < signals_.size(), "drivers_of: unknown signal");
  std::vector<ProcessId> out;
  out.reserve(signals_[s].drivers.size());
  for (const DriverSlot& d : signals_[s].drivers) out.push_back(d.pid);
  return out;
}

const LogicVector* Simulator::driver_value(SignalId s, ProcessId pid) const {
  require(s < signals_.size(), "driver_value: unknown signal");
  for (const DriverSlot& d : signals_[s].drivers) {
    if (d.pid == pid) return &d.value;
  }
  return nullptr;
}

void Simulator::declare_port_binding(SignalId s, PortDir dir,
                                     std::size_t expected_width,
                                     std::string context) {
  require(s < signals_.size(), "declare_port_binding: unknown signal");
  bindings_.push_back({s, dir, expected_width, std::move(context)});
}

void Simulator::declare_guard(ProcessId pid, SignalId sig, bool active_high,
                              GuardKind kind, std::string label) {
  require(pid != kExternalProcess && pid < processes_.size(),
          "declare_guard: unknown process");
  require(sig < signals_.size(), "declare_guard: unknown signal");
  guard_decls_.push_back({pid, sig, active_high, kind, std::move(label)});
}

void Simulator::declare_fsm(SignalId state, SignalId next,
                            std::vector<LogicVector> states,
                            std::string context) {
  require(state < signals_.size() && next < signals_.size(),
          "declare_fsm: unknown signal");
  for (const LogicVector& v : states) {
    require(v.width() == signals_[state].width,
            "declare_fsm: state encoding width mismatch");
  }
  fsm_decls_.push_back({state, next, std::move(states), std::move(context)});
}

Simulator::ProbeResult Simulator::probe_process(ProcessId p) {
  require(p != kExternalProcess && p < processes_.size(),
          "probe_process: unknown process");
  ProbeResult out;
  if (processes_[p].clock != kNoClock) {
    // A clocked body runs only on an edge, and a probe has none.
    out.clean = false;
    return out;
  }
  probing_ = true;
  probe_unclean_ = false;
  probe_writes_.clear();
  probe_reads_.clear();
  const ProcessId prev_proc = current_process_;
  const bool prev_tracking = read_tracking_;
  current_process_ = p;
  read_tracking_ = true;  // the probe's read set is part of the result
  try {
    processes_[p].fn();
  } catch (...) {
    // A body that throws under a probed input valuation (e.g. to_uint on X
    // bits) may have skipped writes; the caller must degrade its outputs.
    probe_unclean_ = true;
  }
  read_tracking_ = prev_tracking;
  current_process_ = prev_proc;
  probing_ = false;
  out.writes = std::move(probe_writes_);
  out.reads = std::move(probe_reads_);
  out.clean = !probe_unclean_;
  probe_writes_.clear();
  probe_reads_.clear();
  return out;
}

void Simulator::set_value_for_analysis(SignalId s, const LogicVector& v) {
  require(s < signals_.size(), "set_value_for_analysis: unknown signal");
  if (v.width() != signals_[s].width) {
    throw LogicError("set_value_for_analysis: width mismatch on signal '" +
                     signals_[s].name + "'");
  }
  signals_[s].effective = v;
}

void Simulator::push_timed(SimTime when,
                           std::variant<Transaction, SmallFn> what) {
  timed_.push_back({when, timed_seq_++, std::move(what)});
  std::push_heap(timed_.begin(), timed_.end(), due_after);
}

void Simulator::throw_width_mismatch(SignalId s) const {
  throw LogicError("schedule_write: width mismatch on signal '" +
                   signals_[s].name + "'");
}

void Simulator::schedule_write(SignalId s, const LogicVector& v,
                               SimTime delay) {
  const LogicVector* slot = write_target(s, v.width(), delay);
  if (slot != nullptr && *slot == v) {
    ++stats_.writes_elided;
    return;
  }
  enqueue(s, LogicVector(v), delay);
}

void Simulator::schedule_write(SignalId s, LogicVector&& v, SimTime delay) {
  const LogicVector* slot = write_target(s, v.width(), delay);
  if (slot != nullptr && *slot == v) {
    ++stats_.writes_elided;
    return;
  }
  enqueue(s, std::move(v), delay);
}

void Simulator::enqueue(SignalId s, LogicVector&& v, SimTime delay) {
  if (probing_) {
    // Analysis sandbox: capture the write instead of staging it.  The
    // transport delay is irrelevant to the value abstraction.
    probe_writes_.push_back({s, std::move(v)});
    return;
  }
  if (delay == SimTime::zero()) {
    signals_[s].queued_drain = drain_serial_;
    next_delta_.push_back({s, current_process_, std::move(v)});
  } else {
    push_timed(now_ + delay, Transaction{s, current_process_, std::move(v)});
  }
}

bool Simulator::event(SignalId s) const {
  require(s < signals_.size(), "event: unknown signal");
  if (probing_) {
    // Edge state is meaningless in the analysis sandbox; answer false and
    // flag the probe so the caller degrades this process to unknown.
    probe_unclean_ = true;
    return false;
  }
  return signals_[s].changed_serial == delta_serial_;
}

bool Simulator::rose(SignalId s) const {
  if (!event(s)) return false;
  const SignalState& st = signals_[s];
  return to_bool(st.effective.bit(0)) && !to_bool(st.previous.bit(0), false);
}

bool Simulator::fell(SignalId s) const {
  if (!event(s)) return false;
  const SignalState& st = signals_[s];
  return !to_bool(st.effective.bit(0), true) && to_bool(st.previous.bit(0));
}

ClockId Simulator::add_clock(SignalId sig, SimTime period, SimTime phase) {
  require(sig < signals_.size(), "add_clock: unknown signal");
  require(signals_[sig].width == 1, "add_clock: signal is not a scalar");
  require(period > SimTime::zero(), "add_clock: period must be positive");
  require(phase >= SimTime::zero(), "add_clock: negative phase");
  // A test-bench write, as every edge is, even when a running process
  // starts the clock: in that process's driver slot the '0' would give the
  // net a second driver, and each rising edge would resolve to 'X'.
  const ProcessId running = current_process_;
  current_process_ = kExternalProcess;
  schedule_write(sig, Logic::L0);
  current_process_ = running;
  const SimTime high = SimTime::from_ps(period.ps() / 2);
  clocks_.push_back({sig, now_ + phase, high, period - high});
  return static_cast<ClockId>(clocks_.size() - 1);
}

void Simulator::stop_clock(ClockId c) {
  require(c < clocks_.size(), "stop_clock: unknown clock");
  clocks_[c].running = false;
}

std::uint64_t Simulator::clock_rising_edges(ClockId c) const {
  require(c < clocks_.size(), "clock_rising_edges: unknown clock");
  return clocks_[c].rising_edges;
}

std::optional<Logic> Simulator::spend_edge(ClockState& c) {
  if (!c.running) {
    c.next = SimTime::max();
    return std::nullopt;
  }
  const bool rising = c.rising_next;
  if (rising) ++c.rising_edges;
  c.next = now_ + (rising ? c.high : c.low);
  c.rising_next = !rising;
  return rising ? Logic::L1 : Logic::L0;
}

void Simulator::fire_edge(ClockState& c) {
  const std::optional<Logic> level = spend_edge(c);
  if (!level) return;
  // The transaction an external zero-delay write queued now would be,
  // stamped as one (see write_target).
  signals_[c.sig].queued_drain = drain_serial_;
  next_delta_.push_back({c.sig, kExternalProcess, scalar(*level)});
}

void Simulator::schedule_callback(SimTime delay, SmallFn fn) {
  require(delay >= SimTime::zero(), "schedule_callback: negative delay");
  push_timed(now_ + delay, std::move(fn));
}

void Simulator::add_change_observer(ChangeObserver obs) {
  observers_.push_back(std::move(obs));
}

void Simulator::enqueue_runnable(ProcessId p) {
  if (runnable_stamp_[p] == delta_serial_) return;
  runnable_stamp_[p] = delta_serial_;
  runnable_.push_back(p);
}

Simulator::DriverSlot* Simulator::find_driver(SignalState& st,
                                              ProcessId pid) {
  for (DriverSlot& d : st.drivers) {
    if (d.pid == pid) return &d;
  }
  return nullptr;
}

void Simulator::mark_staged(SignalId sig, SignalState& st) {
  if (st.staged_serial != delta_serial_) {
    st.staged_serial = delta_serial_;
    dirty_signals_.push_back(sig);
  }
}

void Simulator::stage(Transaction& t) {
  SignalState& st = signals_[t.sig];
  ++stats_.transactions;
  DriverSlot* slot = find_driver(st, t.pid);
  if (slot == nullptr) {
    st.drivers.push_back({t.pid, std::move(t.value)});
  } else if (slot->value != t.value) {
    slot->value = std::move(t.value);
  } else {
    // Identical re-stage (a write schedule_write could not elide: external,
    // delayed, or queued behind another write): no resolution input
    // changed, so the resolved value can't have either — skip dirtying the
    // signal and the whole commit pass.  If another driver of this net did
    // change this delta, that driver's stage marked it dirty and commit
    // still sees every contribution.
    return;
  }
  mark_staged(t.sig, st);
}

void Simulator::commit(SignalId sig) {
  SignalState& st = signals_[sig];
  // Single-driver signals (the overwhelming majority) resolve to the sole
  // driver's value: compare in place, copy only on an actual event.  The
  // nine-valued multi-driver resolution runs only for genuinely resolved
  // (bus) nets, once per signal per delta no matter how many transactions
  // landed — and accumulates in place in a reused scratch vector.
  const LogicVector* next = &st.drivers.front().value;
  if (st.drivers.size() > 1) {
    resolve_scratch_ = st.drivers.front().value;
    for (std::size_t i = 1; i < st.drivers.size(); ++i) {
      resolve_scratch_.resolve_with(st.drivers[i].value);
    }
    next = &resolve_scratch_;
  }
  if (*next == st.effective) return;
  // Recycle previous's plane storage instead of discarding it: swap makes
  // the old effective the new previous, and the assignment below reuses the
  // displaced buffer when the widths (word counts) match — which they
  // always do after the first change.
  st.effective.swap(st.previous);
  st.effective = *next;
  st.changed_serial = delta_serial_;
  ++stats_.value_changes;
  // The edge test reads bit 0 only where an entry is restricted to rising
  // edges; a net of level-sensitive entries never asks.
  const bool rising = st.level_entries != st.sensitive.size() &&
                      to_bool(st.effective.bit(0)) &&
                      !to_bool(st.previous.bit(0), false);
  wake_sensitive(sig, st, rising);
}

void Simulator::wake_sensitive(SignalId sig, SignalState& st, bool rising) {
  if (st.clocked_entries == st.sensitive.size()) {
    // Only clocked bodies (every clock in src/hw): a rising edge wakes each
    // of them, and none can be queued yet this delta — it sits on no other
    // net — so the list goes in whole, with no per-entry test or stamp.
    if (!st.sensitive.empty() && rising) {
      runnable_.insert(runnable_.end(), st.sensitive.begin(),
                       st.sensitive.end());
    }
  } else if (st.level_entries != 0 || rising) {
    // A change that is not a rising edge of bit 0 wakes no edge-restricted
    // entry, so on a net with only such entries the walk is skipped.
    for (std::size_t i = 0; i < st.sensitive.size(); ++i) {
      if (st.sensitive_rising[i] != 0 && !rising) continue;
      enqueue_runnable(st.sensitive[i]);
    }
  }
  for (ProcessId w : st.wake_watch) gated_[w] = 0;
  for (const auto& obs : observers_) obs(sig, st.effective, now_);
}

void Simulator::execute_runnable() {
  for (ProcessId p : runnable_) {
    if (gated_[p]) {
      ++stats_.gated_skips;
      continue;
    }
    current_process_ = p;
    ++stats_.process_activations;
    processes_[p].fn();
  }
  current_process_ = kExternalProcess;
}

void Simulator::run_time_point(std::vector<Transaction>& batch,
                               std::span<const ProcessId> preactivated) {
  bool first = true;
  while (!batch.empty() || !next_delta_.empty() ||
         (first && !preactivated.empty())) {
    ++delta_serial_;
    ++stats_.delta_cycles;
    runnable_.clear();
    if (batch.empty()) {
      batch.swap(next_delta_);
      ++drain_serial_;  // every queued zero-delay write is staged below
    }
    for (Transaction& t : batch) stage(t);
    batch.clear();
    for (SignalId s : dirty_signals_) commit(s);
    dirty_signals_.clear();
    if (first) {
      for (ProcessId p : preactivated) {
        const SignalId clk = processes_[p].clock;
        if (clk == kNoClock) {
          enqueue_runnable(p);
        } else if (!rose(clk)) {
          // A clocked body's initialization run without an edge: it counts
          // as an activation and calls nothing.  With an edge, the commit
          // above has queued it already.  Nothing is gated before a body
          // has run, so there is no gated skip to count.
          ++stats_.process_activations;
        }
      }
      first = false;
    }
    execute_runnable();
  }
  // Close the simulation cycle: 'event (and rose/fell) are only true while
  // the triggering delta executes, exactly as in VHDL.
  ++delta_serial_;
}

void Simulator::initialize() {
  if (initialized_) return;
  initialized_ = true;
  if (!processes_.empty()) {
    std::vector<ProcessId> all;
    for (ProcessId p = 1; p < processes_.size(); ++p) all.push_back(p);
    batch_scratch_.clear();
    run_time_point(batch_scratch_, all);
  }
}

SimTime Simulator::next_activity() const {
  if (!next_delta_.empty()) return now_;
  SimTime t = timed_.empty() ? SimTime::max() : timed_.front().t;
  for (const ClockState& c : clocks_) t = std::min(t, c.next);
  return t;
}

bool Simulator::quiescent() const {
  return next_activity() == SimTime::max();
}

bool Simulator::step_time() {
  initialize();
  const SimTime t = next_activity();
  if (t == SimTime::max()) return false;
  step_to(t);
  return true;
}

bool Simulator::edges_only(SimTime t) const {
  if (!next_delta_.empty() || (!timed_.empty() && timed_.front().t == t)) {
    return false;
  }
  for (std::size_t i = 0; i < clocks_.size(); ++i) {
    const ClockState& c = clocks_[i];
    if (c.next != t) continue;
    const std::vector<DriverSlot>& drivers = signals_[c.sig].drivers;
    if (drivers.size() != 1 || drivers.front().pid != kExternalProcess) {
      return false;
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (clocks_[j].next == t && clocks_[j].sig == c.sig) return false;
    }
  }
  return true;
}

void Simulator::run_edge_delta() {
  bool opened = false;
  // By index, over the clocks there are now: an observer may add one.
  const std::size_t n = clocks_.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (clocks_[i].next != now_) continue;
    const SignalId sig = clocks_[i].sig;
    const std::optional<Logic> level = spend_edge(clocks_[i]);
    if (!level) continue;
    if (!opened) {
      // The delta run_time_point opens to drain an empty next_delta_.
      ++delta_serial_;
      ++stats_.delta_cycles;
      runnable_.clear();
      ++drain_serial_;
      opened = true;
    }
    // stage() and commit() of the edge's write to the net's single driver,
    // in place.
    ++stats_.transactions;
    SignalState& st = signals_[sig];
    LogicVector& slot = st.drivers.front().value;
    if (slot.equals_scalar(*level)) continue;
    slot.set_scalar(*level);
    if (st.effective.equals_scalar(*level)) continue;
    const Logic was = st.effective.bit(0);
    st.previous.set_scalar(was);
    st.effective.set_scalar(*level);
    st.changed_serial = delta_serial_;
    ++stats_.value_changes;
    wake_sensitive(sig, st, *level == Logic::L1 && !to_bool(was));
  }
  if (opened) execute_runnable();
  if (next_delta_.empty()) {
    ++delta_serial_;  // closes the time point, as run_time_point does
  } else {
    run_time_point(batch_scratch_);
  }
}

void Simulator::step_to(SimTime t) {
  now_ = t;
  ++stats_.time_points;
  if (edges_only(t)) {
    run_edge_delta();
    return;
  }
  for (ClockState& c : clocks_) {
    if (c.next == t) fire_edge(c);
  }
  batch_scratch_.clear();
  cb_scratch_.clear();
  // Every entry due at t leaves the heap before any callback runs, each
  // kind in insertion order; work a callback schedules for t opens the next
  // time point.
  while (!timed_.empty() && timed_.front().t == t) {
    std::pop_heap(timed_.begin(), timed_.end(), due_after);
    auto& what = timed_.back().what;
    if (Transaction* txn = std::get_if<Transaction>(&what)) {
      batch_scratch_.push_back(std::move(*txn));
    } else {
      cb_scratch_.push_back(std::move(std::get<SmallFn>(what)));
    }
    timed_.pop_back();
  }
  // Callbacks before the delta loop, behind the clock edges: stimulus
  // generators may schedule zero-delay writes that then land in the first
  // delta of this time point.
  stats_.callbacks += cb_scratch_.size();
  for (auto& fn : cb_scratch_) fn();
  run_time_point(batch_scratch_);
}

void Simulator::run_until(SimTime limit) {
  initialize();
  // Shared semantics with dsim::Scheduler::run_until: execute every event
  // with time <= limit, then pin now() to limit.  A limit already in the
  // past is a no-op — simulated time never regresses, and callers (e.g.
  // window-grant loops re-issuing a stale horizon) may safely pass one.
  if (limit < now_) return;
  std::optional<telemetry::Span> span;
  std::uint64_t activations0 = 0, deltas0 = 0, elided0 = 0, callbacks0 = 0;
  if (telemetry::enabled()) {
    activations0 = stats_.process_activations;
    deltas0 = stats_.delta_cycles;
    elided0 = stats_.writes_elided;
    callbacks0 = stats_.callbacks;
    span.emplace("rtl.slice", telemetry_track_);
    span->arg("from_us", now_.seconds() * 1e6);
    span->arg("to_us", limit.seconds() * 1e6);
  }
  while (true) {
    const SimTime t = next_activity();
    if (t == SimTime::max() || t > limit) break;
    step_to(t);
  }
  if (span) {
    span->arg("activations",
              static_cast<double>(stats_.process_activations - activations0));
    span->arg("delta_cycles",
              static_cast<double>(stats_.delta_cycles - deltas0));
    span->arg("writes_elided",
              static_cast<double>(stats_.writes_elided - elided0));
    span->arg("callbacks",
              static_cast<double>(stats_.callbacks - callbacks0));
  }
  if (now_ < limit) now_ = limit;
}

}  // namespace castanet::rtl
