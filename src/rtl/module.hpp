// Structural layer on top of the kernel: typed signal handles, modules with
// named local signals, clocked-process helpers, and a free-running clock
// generator.  Hardware models in src/hw are written against this API the way
// the paper's DUTs are written as VHDL entities with processes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/rtl/simulator.hpp"

namespace castanet::rtl {

/// Handle to a scalar (width-1) signal.
class Signal {
 public:
  Signal() = default;
  Signal(Simulator* sim, SignalId id) : sim_(sim), id_(id) {}

  Logic read() const { return sim_->value(id_).bit(0); }
  bool read_bool(bool fallback = false) const {
    return to_bool(read(), fallback);
  }
  void write(Logic v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write(id_, v, delay);
  }
  void write(bool b, SimTime delay = SimTime::zero()) const {
    write(from_bool(b), delay);
  }
  bool event() const { return sim_->event(id_); }
  bool rose() const { return sim_->rose(id_); }
  bool fell() const { return sim_->fell(id_); }

  SignalId id() const { return id_; }
  bool valid() const { return sim_ != nullptr; }

 private:
  Simulator* sim_ = nullptr;
  SignalId id_ = 0;
};

/// Handle to a vector signal.
class Bus {
 public:
  Bus() = default;
  Bus(Simulator* sim, SignalId id) : sim_(sim), id_(id) {}

  const LogicVector& read() const { return sim_->value(id_); }
  /// Throws LogicError when any bit is undefined (X-propagation guard).
  std::uint64_t read_uint() const { return read().to_uint(); }
  /// Compares against the driver slot before copying, so re-asserting an
  /// unchanged 424-bit cell costs no heap copy.
  void write(const LogicVector& v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write(id_, v, delay);
  }
  void write(LogicVector&& v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write(id_, std::move(v), delay);
  }
  /// Width <= 64; no LogicVector is built for an elided write.
  void write_uint(std::uint64_t v, SimTime delay = SimTime::zero()) const {
    sim_->schedule_write_uint(id_, v, delay);
  }
  /// Releases this process's contribution to a resolved bus (drives all-Z).
  void release(SimTime delay = SimTime::zero()) const {
    sim_->schedule_write(id_, LogicVector(width(), Logic::Z), delay);
  }
  bool event() const { return sim_->event(id_); }
  std::size_t width() const { return sim_->width(id_); }

  SignalId id() const { return id_; }
  bool valid() const { return sim_ != nullptr; }

 private:
  Simulator* sim_ = nullptr;
  SignalId id_ = 0;
};

/// Base class for hardware entities.  A Module creates its local signals and
/// processes with hierarchical names ("switch.port0.rx_state").
class Module {
 public:
  Module(Simulator& sim, std::string name)
      : sim_(&sim), name_(std::move(name)) {}
  virtual ~Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::string& name() const { return name_; }

 protected:
  Simulator& sim() const { return *sim_; }

  Signal make_signal(const std::string& local, Logic init = Logic::U) {
    return Signal(sim_, sim_->create_signal(name_ + "." + local, 1, init));
  }
  Bus make_bus(const std::string& local, std::size_t width,
               Logic init = Logic::U) {
    return Bus(sim_, sim_->create_signal(name_ + "." + local, width, init));
  }

  /// Declares this module's expectation about a signal it was handed at
  /// construction (a "port binding"): direction and the width its logic
  /// assumes.  Purely descriptive — the static netlist analyzers
  /// (src/lint) cross-check the expectations against the elaborated
  /// signals; recording one never changes simulation behavior.
  void bind_port(const Bus& b, PortDir dir, std::size_t expected_width,
                 const std::string& local) {
    if (b.valid()) {
      sim_->declare_port_binding(b.id(), dir, expected_width,
                                 name_ + "." + local);
    }
  }
  void bind_port(const Signal& s, PortDir dir, const std::string& local) {
    if (s.valid()) {
      sim_->declare_port_binding(s.id(), dir, 1, name_ + "." + local);
    }
  }

  /// Registers a process sensitive to `sensitivity`.
  ProcessId process(const std::string& local,
                    std::vector<SignalId> sensitivity,
                    std::function<void()> fn) {
    return sim_->add_process(name_ + "." + local, std::move(sensitivity),
                             std::move(fn));
  }
  /// Declares the signals whose value change re-arms a self-gated process
  /// (Simulator::set_wake_signals); call once at construction, after the
  /// process is registered.
  void wake_on(ProcessId pid, std::vector<SignalId> sigs) {
    sim_->set_wake_signals(pid, sigs);
  }
  /// Suppresses future wakeups of the running process until a declared wake
  /// signal changes (Simulator::gate_current_process).  Call only where the
  /// remaining behavior is a pure function of the wake set — see the
  /// soundness contract on the kernel API.
  void gate() { sim_->gate_current_process(); }

  /// Declares that `pid`'s body (or a branch of it) executes only while
  /// `cond` reads active (Simulator::declare_guard).  Descriptive analysis
  /// metadata like bind_port: the lint dataflow rules prove guards dead
  /// (DF-DEAD-BRANCH) or cross-domain (DF-RESET); recording one never
  /// changes simulation behavior.
  void guard_on(ProcessId pid, const Signal& cond, bool active_high,
                GuardKind kind, const std::string& local) {
    if (cond.valid()) {
      sim_->declare_guard(pid, cond.id(), active_high, kind,
                          name_ + "." + local);
    }
  }

  /// Registers a process that runs `fn` on every rising edge of `clk`
  /// (Simulator::add_clocked_process): the kernel knows the body by its
  /// clock, wakes it on rising edges only and calls it directly.
  ProcessId clocked(const std::string& local, const Signal& clk,
                    std::function<void()> fn) {
    return sim_->add_clocked_process(name_ + "." + local, clk.id(),
                                     std::move(fn));
  }

 private:
  Simulator* sim_;
  std::string name_;
};

/// Free-running clock generator: rising edge at phase, period thereafter.
/// A thin handle over a kernel clock (Simulator::add_clock): the edges are
/// kernel data, so the clock keeps running if the handle is destroyed
/// first, and stop() is the only way to end it.
class ClockGen {
 public:
  ClockGen(Simulator& sim, Signal clk, SimTime period,
           SimTime phase = SimTime::zero());

  std::uint64_t rising_edges() const { return sim_->clock_rising_edges(id_); }
  SimTime period() const { return period_; }
  void stop() { sim_->stop_clock(id_); }

 private:
  Simulator* sim_;
  ClockId id_;
  SimTime period_;
};

}  // namespace castanet::rtl
