// Event-driven HDL simulation kernel (the "VHDL simulator" of Fig. 2).
//
// Implements the VHDL simulation cycle: signal transactions are scheduled
// with a (possibly zero) transport delay; at each simulated time point the
// kernel alternates *apply* phases (update signals, detect events) and
// *execute* phases (run processes sensitive to changed signals) — each pair
// is one delta cycle — until quiescent, then advances to the next scheduled
// time.  Multiply-driven signals are resolved per IEEE 1164, which the test
// board needs for bidirectional bus ports (§3.3).
//
// Scheduling structures are built for the hot path.  Clocks are kernel
// data, not callbacks: each add_clock entry is a signal, its next edge time
// and its two half periods, kept in a small vector the kernel scans.  A
// time point of edges alone writes each level and its net's value in place
// and wakes the net's processes at once, with no transaction, callback,
// bucket or allocation; an edge that shares its time point with other
// activity is queued as the external zero-delay write it stands for.
// Clocked processes are kernel data too: an add_clocked_process body is
// known by its clock, so a rising edge of a net that carries only such
// bodies appends its whole sensitivity list to the runnable set and each
// body is called directly, with no edge guard.
// Delayed transactions and timed callbacks are entries of one binary
// min-heap ordered by (time, insertion sequence), each holding its
// transaction or SmallFn callback in place; the heap rarely holds more than
// one time point besides the clocks (DESIGN.md §7.2).  The other runnable
// processes are deduplicated with a delta-generation stamp per process
// instead of sort+unique scans.  Modules re-assert unchanged outputs on
// every clock, VHDL style; such a write is dropped at schedule_write,
// before any transaction exists (DESIGN.md §7.7).
//
// The kernel counts writes (staged and elided), events, process
// activations, delta cycles, time points and timed callbacks; experiment E7
// uses these to reproduce the paper's claim that the event-driven HDL
// simulator evaluates an order of magnitude more events than the
// system-level network simulation.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "src/core/telemetry.hpp"
#include "src/dsim/small_fn.hpp"
#include "src/dsim/time.hpp"
#include "src/rtl/logic_vector.hpp"

namespace castanet::rtl {

using SignalId = std::uint32_t;
using ProcessId = std::uint32_t;
using ClockId = std::uint32_t;

/// ProcessId used for writes issued from outside any process (test benches,
/// the co-simulation entity).
constexpr ProcessId kExternalProcess = 0;

/// Writes issued = transactions + writes_elided; writes committed =
/// value_changes.
struct KernelStats {
  std::uint64_t transactions = 0;        ///< writes staged into a driver slot
  std::uint64_t writes_elided = 0;       ///< no-op writes dropped unstaged
  std::uint64_t value_changes = 0;       ///< updates that changed the value
  std::uint64_t process_activations = 0; ///< process executions
  std::uint64_t delta_cycles = 0;        ///< apply+execute rounds
  std::uint64_t time_points = 0;         ///< distinct times with activity
  std::uint64_t gated_skips = 0;         ///< wakeups suppressed by a gate
  std::uint64_t callbacks = 0;           ///< timed callbacks run
};

/// Direction of a declared port binding (module-level contract on a signal,
/// recorded for the static netlist analyzers in src/lint).
enum class PortDir { kIn, kOut, kInOut };

/// What a declared process guard protects: an ordinary enable branch or a
/// reset branch (the distinction feeds the DF-RESET cross-domain rule).
enum class GuardKind { kBranch, kReset };

/// A module's declaration that a process body (or part of it) executes only
/// while a condition signal is active.  Purely descriptive, like
/// PortBinding: recording one never changes simulation; the lint dataflow
/// analysis proves guards dead (DF-DEAD-BRANCH) or cross-domain (DF-RESET).
struct GuardDecl {
  ProcessId pid = 0;
  SignalId sig = 0;
  bool active_high = true;
  GuardKind kind = GuardKind::kBranch;
  std::string label;  ///< "module.process" of the declaring module
};

/// A module's declared expectation about a signal it is bound to: the
/// direction it uses the signal in and the width its logic assumes.  Purely
/// descriptive — recording one never changes simulation behavior; the lint
/// netlist analyzers cross-check expectations against the elaborated
/// signals (width mismatches, undriven inputs).
struct PortBinding {
  SignalId sig = 0;
  PortDir dir = PortDir::kIn;
  std::size_t expected_width = 1;
  std::string context;  ///< "module.port" of the declaring module
};

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // --- elaboration ------------------------------------------------------
  SignalId create_signal(std::string name, std::size_t width,
                         Logic init = Logic::U);
  ProcessId add_process(std::string name, std::vector<SignalId> sensitivity,
                        std::function<void()> fn);
  /// Registers a clocked process: `fn` runs on every rising edge of scalar
  /// signal `clk` (bit 0 from not-'1'/'H' to '1'/'H'), called directly with
  /// no edge test of its own.  Its initialization run counts one activation
  /// and calls `fn` only if `clk` rose in that delta; probe_process reports
  /// it unclean without calling `fn`.  On a net whose entries are all
  /// clocked processes, a rising commit appends the whole list in
  /// registration order (DESIGN.md §7.7).  sensitive_rising() shows the
  /// entry as rising-edge restricted.  Throws LogicError for a non-scalar
  /// `clk`.
  ProcessId add_clocked_process(std::string name, SignalId clk,
                                std::function<void()> fn);
  /// Restricts an existing sensitivity entry (process `p` on width-1 signal
  /// `s`) to rising edges: the kernel wakes `p` only when a commit takes bit
  /// 0 from not-'1'/'H' to '1'/'H' (rose() semantics), so the falling edge
  /// stops activating a process whose body is a rising-edge no-op.  Such a
  /// process still runs its own edge test; event()/rose()/fell() queries on
  /// `s` are unaffected.
  void restrict_sensitivity_to_rising(ProcessId p, SignalId s);

  // --- activity gating (input-cone clock gating) ------------------------
  // A clocked process whose body is provably a no-op until one of a known
  // set of input signals changes can *gate* itself: the kernel keeps waking
  // it on clock edges but skips the call (counted in stats().gated_skips)
  // until a declared wake signal changes value, wake_process() is called,
  // or the process is re-armed some other way.  Soundness contract for the
  // caller: gate only at a point where every future run, with the wake
  // signals and internal C++ state unchanged, would re-issue exactly the
  // writes already committed (identical re-writes are elided, so the
  // skipped runs are observationally void).  Declare *every* signal the
  // remaining behavior depends on — a missing wake signal silently freezes
  // the process.
  /// Declares the signals whose value change re-arms `p` after it gates
  /// itself.  Cumulative; duplicates are ignored.
  void set_wake_signals(ProcessId p, const std::vector<SignalId>& sigs);
  /// Called from inside a process body: suppress future wakeups of the
  /// running process until a wake signal changes.  No-op outside a process.
  void gate_current_process();
  /// Explicitly re-arms `p` (e.g. test-bench state pushed into a driver
  /// module between clock edges, invisible to any signal).
  void wake_process(ProcessId p);
  /// True while `p` is gated (introspection for tests/telemetry).
  bool process_gated(ProcessId p) const;

  std::size_t signal_count() const { return signals_.size(); }
  const std::string& signal_name(SignalId s) const;
  std::size_t width(SignalId s) const {
    require(s < signals_.size(), "width: unknown signal");
    return signals_[s].width;
  }

  // --- netlist introspection (read-only; consumed by src/lint) ----------
  /// Number of process slots, including the reserved external slot 0 (0
  /// until the first add_process).
  std::size_t process_count() const { return processes_.size(); }
  const std::string& process_name(ProcessId p) const;
  /// Processes on `s`'s sensitivity list (static, set at add_process).
  const std::vector<ProcessId>& sensitive_processes(SignalId s) const;
  /// Parallel to sensitive_processes(s): non-zero entries are restricted to
  /// rising edges (see restrict_sensitivity_to_rising).  Consumed by
  /// rtl::levelize (lint) to separate sequential from combinational wakeups.
  const std::vector<std::uint8_t>& sensitive_rising(SignalId s) const;
  /// Distinct processes that have driven `s` so far (driver slots persist
  /// for the simulator's lifetime; kExternalProcess marks test-bench
  /// writes).  Empty until the driving processes have executed — run
  /// initialize() (and a short settling window for clocked logic) before
  /// structural analysis.
  std::vector<ProcessId> drivers_of(SignalId s) const;
  /// The value contributed by `pid`'s driver slot on `s`, or nullptr if
  /// that process has never driven `s`.
  const LogicVector* driver_value(SignalId s, ProcessId pid) const;

  /// Records a module's port-binding expectation (see PortBinding); the
  /// module helpers in module.hpp call this from constructors.
  void declare_port_binding(SignalId s, PortDir dir,
                            std::size_t expected_width, std::string context);
  const std::vector<PortBinding>& port_bindings() const { return bindings_; }

  /// Opt-in read tracking for the lint dataflow analyses: while enabled,
  /// value() records which process read which signal (the write side is
  /// already captured by driver slots).  Off by default — the hot path pays
  /// only one predictable branch.
  void set_read_tracking(bool on) { read_tracking_ = on; }
  bool read_tracking() const { return read_tracking_; }
  /// Distinct processes observed reading `s` while tracking was enabled.
  const std::vector<ProcessId>& readers_of(SignalId s) const;

  /// Declares a guard on `pid` (see GuardDecl); module helpers call this.
  void declare_guard(ProcessId pid, SignalId sig, bool active_high,
                     GuardKind kind, std::string label);
  const std::vector<GuardDecl>& guards() const { return guard_decls_; }

  // --- analysis sandbox (consumed by lint::analyze_dataflow) ------------
  /// One signal write captured during a probe (the value the process would
  /// have scheduled; the transport delay is irrelevant to the abstraction).
  struct ProbeWrite {
    SignalId sig = 0;
    LogicVector value;
  };
  /// Outcome of one sandboxed execution.  `clean` is false when the body
  /// consulted edge state (event/rose/fell — meaningless under a probe) or
  /// threw: the caller must treat the process's outputs as unknown.
  struct ProbeResult {
    std::vector<ProbeWrite> writes;
    std::vector<SignalId> reads;
    bool clean = true;
  };
  /// Executes process `p` once in a sandbox: scheduled writes are captured
  /// instead of staged, reads are harvested, edge queries answer false (and
  /// mark the result unclean), self-gating is ignored, and no kernel state
  /// or statistic changes.  A clocked process (add_clocked_process) runs
  /// only on an edge, so it is not called: the result is unclean and
  /// empty.  Only processes honouring the combinational purity contract
  /// (compute from value() reads, no internal C++ state) yield meaningful
  /// results; probing a sequential process additionally mutates its member
  /// state and must be avoided by the caller.
  ProbeResult probe_process(ProcessId p);
  /// Overwrites a signal's effective value directly — no transaction, no
  /// event, no process wakeup.  Analysis-only: callers must restore every
  /// poked signal before simulation resumes.
  void set_value_for_analysis(SignalId s, const LogicVector& v);

  // --- signal access ----------------------------------------------------
  /// Inline fast path: every read_bool()/read() in module code lands here,
  /// so the common (no read-tracking) case must be two loads.
  const LogicVector& value(SignalId s) const {
    require(s < signals_.size(), "value: unknown signal");
    if (read_tracking_ && current_process_ != kExternalProcess) [[unlikely]] {
      harvest_read(s);
    }
    return signals_[s].effective;
  }
  /// Schedules a transaction on `s` for now+delay, driven by the currently
  /// executing process (or kExternalProcess outside any process).  Transport
  /// delay semantics; delay 0 lands in the next delta cycle.  A zero-delay
  /// write by a running process that re-drives the value its driver slot
  /// already holds is dropped before it is copied or queued
  /// (stats().writes_elided; the conditions are in write_target).
  void schedule_write(SignalId s, const LogicVector& v,
                      SimTime delay = SimTime::zero());
  void schedule_write(SignalId s, LogicVector&& v,
                      SimTime delay = SimTime::zero());
  /// Scalar signals.  Inline: the elision check compares the driver slot
  /// in place, with no LogicVector built for a dropped write.
  void schedule_write(SignalId s, Logic v, SimTime delay = SimTime::zero()) {
    const LogicVector* slot = write_target(s, 1, delay);
    if (slot != nullptr && slot->equals_scalar(v)) {
      ++stats_.writes_elided;
      return;
    }
    enqueue(s, scalar(v), delay);
  }
  /// The low width(s) bits of `v` as strong '0'/'1' (width(s) <= 64), with
  /// the same in-place elision check as the scalar overload.
  void schedule_write_uint(SignalId s, std::uint64_t v,
                           SimTime delay = SimTime::zero()) {
    const std::size_t w = width(s);
    require(w <= 64, "schedule_write_uint: width > 64");
    const LogicVector* slot = write_target(s, w, delay);
    if (slot != nullptr && slot->equals_uint(v)) {
      ++stats_.writes_elided;
      return;
    }
    enqueue(s, LogicVector::from_uint(v, w), delay);
  }

  /// True if `s` changed value in the current delta cycle.
  bool event(SignalId s) const;
  /// rising_edge(s): event on bit 0 with new value '1'.
  bool rose(SignalId s) const;
  /// falling_edge(s): event on bit 0 with new value '0'.
  bool fell(SignalId s) const;

  // --- clocks -----------------------------------------------------------
  /// Adds a free-running clock on scalar signal `sig`: a zero-delay '0'
  /// write now, a rising edge at now() + phase, then one every `period` —
  /// high for period/2, low for the rest.  Every write of the clock, the
  /// '0' included (even when a running process calls add_clock), is a
  /// kExternalProcess write.  Each edge opens a time point and stages as a
  /// zero-delay write queued when it fires: after the writes queued before
  /// it, in add_clock order, and before the writes that time point's
  /// callbacks queue; a delayed batch due at the same time stages one delta
  /// before it (DESIGN.md §7.2).  Throws LogicError for a non-scalar
  /// signal, a period <= 0 or a negative phase.
  ClockId add_clock(SignalId sig, SimTime period, SimTime phase);
  /// Stops clock `c`.  Its next edge still opens its time point but
  /// writes nothing; after that the clock is idle.
  void stop_clock(ClockId c);
  /// Rising edges clock `c` has driven so far.
  std::uint64_t clock_rising_edges(ClockId c) const;

  // --- generic scheduled callbacks (stimuli) ----------------------------
  /// Runs `fn` at now() + delay, after that time point's clock edges fire
  /// and before its first delta; callbacks due together run in the order
  /// they were scheduled.  One scheduled for the time point being executed
  /// opens a new time point at the same time.
  void schedule_callback(SimTime delay, SmallFn fn);

  // --- execution --------------------------------------------------------
  SimTime now() const { return now_; }
  /// Time of the next scheduled activity; SimTime::max() when idle.
  SimTime next_activity() const;
  /// Runs every process once (VHDL initialization); implicit in run_until.
  void initialize();
  /// Executes one time point completely (all delta cycles); false when no
  /// activity is pending.
  bool step_time();
  /// Executes all activity with time <= limit, then sets now to limit.
  /// Shares its semantics with dsim::Scheduler::run_until; a `limit` that
  /// precedes now() is a no-op — simulated time never regresses.
  void run_until(SimTime limit);
  bool quiescent() const;

  const KernelStats& stats() const { return stats_; }

  /// Timeline row for kernel slice spans in the Chrome trace.  An
  /// RtlBackend forwards its own row here so "rtl.slice" spans nest under
  /// that backend's grant spans; defaults to the "main" row otherwise.
  void set_telemetry_track(telemetry::TrackId track) {
    telemetry_track_ = track;
  }

  /// Called after each applied value change: (signal, new value, time).
  using ChangeObserver =
      std::function<void(SignalId, const LogicVector&, SimTime)>;
  void add_change_observer(ChangeObserver obs);

 private:
  struct DriverSlot {
    ProcessId pid;
    LogicVector value;
  };
  struct SignalState {
    std::string name;
    std::size_t width;
    LogicVector effective;
    std::vector<DriverSlot> drivers;
    std::vector<ProcessId> sensitive;
    /// Parallel to `sensitive`: non-zero entries wake only on rising edges
    /// of bit 0 (see restrict_sensitivity_to_rising).
    std::vector<std::uint8_t> sensitive_rising;
    /// Entries of `sensitive` not restricted to rising edges.  Zero on a
    /// clock net, whose non-rising changes wake nobody.
    std::uint32_t level_entries = 0;
    /// Entries of `sensitive` that are clocked processes.  When every
    /// entry is one, a rising commit appends the whole list (see commit).
    std::uint32_t clocked_entries = 0;
    /// drain_serial_ when a zero-delay write or clock edge to this signal
    /// was last queued; equal to drain_serial_ while it sits unstaged.
    std::uint64_t queued_drain = 0;
    /// Gated processes re-armed by any value change of this signal (see
    /// set_wake_signals).  Empty for almost every signal.
    std::vector<ProcessId> wake_watch;
    std::vector<ProcessId> readers;  ///< read-tracking harvest (lint only)
    std::uint64_t changed_serial = 0;  ///< delta serial of last change
    std::uint64_t staged_serial = 0;   ///< delta serial of last driver update
    LogicVector previous;              ///< value before last change
  };
  /// `clock` of a process that is not clocked (add_clocked_process).
  static constexpr SignalId kNoClock = ~SignalId{0};
  struct ProcessState {
    std::string name;
    std::function<void()> fn;
    SignalId clock = kNoClock;
  };
  struct Transaction {
    SignalId sig;
    ProcessId pid;
    LogicVector value;
  };
  /// A delayed transaction or a timed callback, due at `t`; `seq` is its
  /// insertion order.
  struct TimedEntry {
    SimTime t;
    std::uint64_t seq;
    std::variant<Transaction, SmallFn> what;
  };
  /// Heap order: true when `a` is due after `b`, so the heap's front is the
  /// earliest entry in (t, seq) order.
  static bool due_after(const TimedEntry& a, const TimedEntry& b) {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
  /// One add_clock entry.  `next` is SimTime::max() once a stopped clock
  /// has spent its next edge.
  struct ClockState {
    SignalId sig;
    SimTime next;
    SimTime high;  ///< rising edge to falling edge: period/2
    SimTime low;   ///< falling edge to rising edge: period - period/2
    bool rising_next = true;
    bool running = true;
    std::uint64_t rising_edges = 0;
  };

  /// The checks every schedule_write overload makes first (known signal,
  /// matching width, non-negative delay), then the write-elision gate.
  /// Returns the running process's driver-slot value when a write equal to
  /// it may be dropped, nullptr when the write must be staged.  A write is
  /// droppable only when (1) it has zero delay and comes from a running
  /// process — external and callback writes may precede the time point's
  /// delayed batch, which stages first; (2) that process already drives
  /// `s` — its first write creates the slot; (3) no zero-delay write to `s`
  /// is still queued unstaged — an earlier write of this activation
  /// (`out <= '0'; out <= '1'`) would otherwise win over the elided one.
  const LogicVector* write_target(SignalId s, std::size_t width,
                                  SimTime delay) const {
    require(s < signals_.size(), "schedule_write: unknown signal");
    const SignalState& st = signals_[s];
    if (width != st.width) [[unlikely]] throw_width_mismatch(s);
    require(delay >= SimTime::zero(), "schedule_write: negative delay");
    if (delay != SimTime::zero() || current_process_ == kExternalProcess ||
        probing_ || st.queued_drain == drain_serial_) {
      return nullptr;
    }
    for (const DriverSlot& d : st.drivers) {
      if (d.pid == current_process_) return &d.value;
    }
    return nullptr;
  }
  [[noreturn]] void throw_width_mismatch(SignalId s) const;
  /// Queues a validated write (or captures it under probe_process).
  void enqueue(SignalId s, LogicVector&& v, SimTime delay);
  void push_timed(SimTime when, std::variant<Transaction, SmallFn> what);
  /// Spends clock `c`'s edge due at now_ and moves its next edge on.
  /// Returns the level the edge drives, or nothing once `c` is stopped
  /// (the clock then goes idle).
  std::optional<Logic> spend_edge(ClockState& c);
  /// Queues clock `c`'s due edge at now_ into next_delta_ as an external
  /// zero-delay write (nothing once stopped) and moves its next edge on.
  void fire_edge(ClockState& c);
  void enqueue_runnable(ProcessId p);
  /// Apply phase, first half: moves the transaction's value into its driver
  /// slot and marks the signal dirty for this delta.  Resolution is
  /// deferred to commit() so N same-delta transactions on one signal cost
  /// one resolution, not N.
  void stage(Transaction& t);
  /// `pid`'s driver slot on `st`, or nullptr before its first write.
  static DriverSlot* find_driver(SignalState& st, ProcessId pid);
  /// Marks a signal whose driver slot changed as dirty for this delta.
  void mark_staged(SignalId sig, SignalState& st);
  /// Apply phase, second half: resolves a dirty signal's driver
  /// contributions once (in place, word-at-a-time), and only if the
  /// resolved planes differ from the current value commits the change and
  /// wakes the (edge-filtered) sensitive processes.
  void commit(SignalId sig);
  /// Wake-up half of a committed change of `sig`: queues its
  /// level-sensitive processes and, when `rising` (a rising edge of bit 0),
  /// its edge-restricted ones, re-arms the gated processes in its
  /// wake_watch and calls the change observers.  `rising` is read only on
  /// nets with an edge-restricted entry.
  void wake_sensitive(SignalId sig, SignalState& st, bool rising);
  /// Runs every process in runnable_ (skipping gated ones) and resets
  /// current_process_.
  void execute_runnable();
  /// Executes the time point at `t`, which next_activity() returned: fires
  /// the due clock edges, takes every timed entry due at `t` off the heap,
  /// runs the callbacks among them, then the delta cycles.  A time point of
  /// clock edges alone takes run_edge_delta instead.
  void step_to(SimTime t);
  /// True when nothing but clock edges is due at `t`, each on a net of its
  /// own whose single driver is the edge's kExternalProcess slot: no write
  /// is queued and no timed entry is due at `t`.
  bool edges_only(SimTime t) const;
  /// Runs an edges_only time point at now_ (DESIGN.md §7.2): spends each
  /// due clock's edge in add_clock order and, for a running one, writes its
  /// level into the driver slot and the net's value in place and wakes the
  /// net's processes as commit() would, all in the one delta that draining
  /// an empty next_delta_ opens.  The delta loop runs only for the writes
  /// the woken processes queue.  Counts, order and serials are those of
  /// staging each edge as an external write (fire_edge).
  void run_edge_delta();
  /// Executes one complete time point: delta cycles (stage, commit,
  /// execute) until no transaction is pending.  `preactivated` processes
  /// run in the first delta whether or not a signal woke them; a clocked
  /// one among them counts its activation but runs only if its clock rose.
  void run_time_point(std::vector<Transaction>& batch,
                      std::span<const ProcessId> preactivated = {});
  /// Cold half of value(): records the lint-only read-set entry.
  void harvest_read(SignalId s) const;

  SimTime now_ = SimTime::zero();
  bool initialized_ = false;
  bool read_tracking_ = false;
  /// True while probe_process runs a body in the analysis sandbox.
  bool probing_ = false;
  /// Mutable: event()/rose()/fell() are const but must be able to flag a
  /// probe as unclean, and harvest_read appends probe reads.
  mutable bool probe_unclean_ = false;
  mutable std::vector<SignalId> probe_reads_;
  std::vector<ProbeWrite> probe_writes_;
  std::uint64_t delta_serial_ = 0;  ///< increments every delta cycle
  /// Increments whenever next_delta_ is drained into a delta's batch (see
  /// SignalState::queued_drain).
  std::uint64_t drain_serial_ = 1;
  ProcessId current_process_ = kExternalProcess;

  std::vector<SignalState> signals_;
  std::vector<ProcessState> processes_;  // index 0 reserved (external)
  std::vector<Transaction> next_delta_;
  std::vector<ClockState> clocks_;  // in add_clock order; scanned linearly

  // Future activity other than clock edges: a binary min-heap (due_after).
  std::vector<TimedEntry> timed_;
  std::uint64_t timed_seq_ = 0;  ///< next TimedEntry::seq

  // Per-delta runnable set.  Processes woken entry by entry are
  // deduplicated by generation stamp: one is enqueued at most once per
  // delta regardless of how many of its sensitivity signals changed.  A
  // clocked process sits on one net, which commits at most once per delta,
  // so the whole-list fan-out needs no stamp.
  std::vector<ProcessId> runnable_;
  std::vector<std::uint64_t> runnable_stamp_;  // last delta_serial_ enqueued

  // Activity gates (see gate_current_process): per-process suppression
  // flags, cleared by wake-signal commits and wake_process().
  std::vector<std::uint8_t> gated_;

  // Scratch buffers recycled across time points.
  std::vector<Transaction> batch_scratch_;
  std::vector<SmallFn> cb_scratch_;
  /// Signals whose driver slots were updated this delta (first-touch
  /// order); resolved once each by commit() after all stages.
  std::vector<SignalId> dirty_signals_;
  /// Multi-driver resolution accumulator, reused across commits so the
  /// steady state allocates nothing.
  LogicVector resolve_scratch_;

  std::vector<ChangeObserver> observers_;
  std::vector<PortBinding> bindings_;
  std::vector<GuardDecl> guard_decls_;
  KernelStats stats_;
  telemetry::TrackId telemetry_track_ = telemetry::kMainTrack;
};

}  // namespace castanet::rtl
