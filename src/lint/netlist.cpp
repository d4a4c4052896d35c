#include "src/lint/netlist.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace castanet::lint {

namespace {

constexpr const char* kFamily = "netlist";

std::string qualify(const std::string& scope, std::string loc) {
  if (scope.empty()) return loc;
  return scope + ": " + loc;
}

/// Shared suppression machinery (suppress.hpp), bound to this family's
/// options.
bool is_suppressed(const NetlistOptions& opts, std::string_view rule,
                   const std::string& signal, Report& report) {
  return lint::is_suppressed(opts.suppressions, rule, signal, report);
}

bool has_x(const rtl::LogicVector& v) {
  for (std::size_t i = 0; i < v.width(); ++i) {
    if (v.bit(i) == rtl::Logic::X || v.bit(i) == rtl::Logic::W) return true;
  }
  return false;
}

bool has_u(const rtl::LogicVector& v) {
  for (std::size_t i = 0; i < v.width(); ++i) {
    if (v.bit(i) == rtl::Logic::U) return true;
  }
  return false;
}

std::string join_path(const std::vector<std::string>& path) {
  std::string out;
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i) out += " -> ";
    out += path[i];
  }
  return out;
}

void check_drivers(const rtl::Simulator& sim, const NetlistOptions& opts,
                   Report& report) {
  for (rtl::SignalId s = 0; s < sim.signal_count(); ++s) {
    const std::vector<rtl::ProcessId> drivers = sim.drivers_of(s);
    if (drivers.size() < 2) continue;
    std::string who;
    for (std::size_t i = 0; i < drivers.size(); ++i) {
      if (i) who += ", ";
      who += drivers[i] == rtl::kExternalProcess
                 ? "<external>"
                 : "'" + sim.process_name(drivers[i]) + "'";
    }
    const std::string name = sim.signal_name(s);
    const std::string loc = qualify(opts.scope, "signal '" + name + "'");
    if (has_x(sim.value(s))) {
      if (is_suppressed(opts, "NET-CONTENTION", name, report)) continue;
      report.add("NET-CONTENTION", Severity::kError, kFamily, loc,
                 "bus contention: " + std::to_string(drivers.size()) +
                     " drivers (" + who + ") resolve to unknown bits (" +
                     sim.value(s).to_string() + ")",
                 "make all but one driver release the bus (drive 'Z') before "
                 "another drives a value");
    } else {
      if (is_suppressed(opts, "NET-MULTI-DRIVEN", name, report)) continue;
      report.add("NET-MULTI-DRIVEN", Severity::kNote, kFamily, loc,
                 "resolved signal with " + std::to_string(drivers.size()) +
                     " drivers (" + who + ")",
                 "expected for tri-state buses; check the driver list if this "
                 "net is not a bus");
    }
  }
}

void check_bindings(const rtl::Simulator& sim, const NetlistOptions& opts,
                    Report& report) {
  for (const rtl::PortBinding& b : sim.port_bindings()) {
    if (b.expected_width == sim.width(b.sig)) continue;
    if (is_suppressed(opts, "NET-WIDTH-MISMATCH", sim.signal_name(b.sig),
                      report)) {
      continue;
    }
    report.add("NET-WIDTH-MISMATCH", Severity::kError, kFamily,
               qualify(opts.scope, "port " + b.context + " on signal '" +
                                       sim.signal_name(b.sig) + "'"),
               "port expects width " + std::to_string(b.expected_width) +
                   " but the bound signal is " +
                   std::to_string(sim.width(b.sig)) + " bit(s) wide",
               "bind a signal of the declared width or fix the port "
               "declaration");
  }
}

void check_undriven(const rtl::Simulator& sim, const NetlistOptions& opts,
                    Report& report) {
  // One diagnostic per undriven signal, naming every input port bound to it.
  std::vector<bool> reported(sim.signal_count(), false);
  for (const rtl::PortBinding& b : sim.port_bindings()) {
    if (b.dir != rtl::PortDir::kIn) continue;
    if (reported[b.sig] || !sim.drivers_of(b.sig).empty()) continue;
    reported[b.sig] = true;
    std::string ports = b.context;
    for (const rtl::PortBinding& o : sim.port_bindings()) {
      if (&o != &b && o.sig == b.sig && o.dir == rtl::PortDir::kIn) {
        ports += ", " + o.context;
      }
    }
    const std::string name = sim.signal_name(b.sig);
    const std::string loc = qualify(opts.scope, "signal '" + name + "'");
    if (has_u(sim.value(b.sig))) {
      if (is_suppressed(opts, "NET-UNDRIVEN", name, report)) continue;
      report.add("NET-UNDRIVEN", Severity::kError, kFamily, loc,
                 "input port(s) " + ports +
                     " read this signal but nothing drives it and it is "
                     "uninitialized (" +
                     sim.value(b.sig).to_string() + ")",
                 "connect a driver or give the signal a defined init value");
    } else {
      if (is_suppressed(opts, "NET-UNDRIVEN-CONST", name, report)) continue;
      report.add("NET-UNDRIVEN-CONST", Severity::kNote, kFamily, loc,
                 "input port(s) " + ports +
                     " read this signal; it has no driver and holds its init "
                     "value (" +
                     sim.value(b.sig).to_string() + ")",
                 "fine for tie-offs; connect a driver if this should toggle");
    }
  }
}

}  // namespace

void settle(rtl::Simulator& sim, SimTime clock_period, std::uint64_t cycles) {
  sim.set_read_tracking(true);
  sim.initialize();
  if (clock_period > SimTime::zero() && cycles > 0) {
    sim.run_until(sim.now() + clock_period * cycles);
  }
}

void analyze_netlist(rtl::Simulator& sim, const NetlistOptions& opts,
                     Report& report) {
  sim.initialize();

  check_bindings(sim, opts, report);
  check_drivers(sim, opts, report);

  // Suppressions gate the *analysis*, not just the reporting: a rule
  // suppressed on every signal never runs its graph search (suppress.hpp).
  if (!rule_fully_suppressed(opts.suppressions, "NET-COMB-LOOP")) {
    const std::vector<std::string> comb_cycle =
        rtl::find_combinational_cycle(sim);
    if (!comb_cycle.empty()) {
      report.add("NET-COMB-LOOP", Severity::kError, kFamily,
                 qualify(opts.scope, comb_cycle.front()),
                 "combinational loop: " + join_path(comb_cycle),
                 "break the loop with a clocked process or remove the "
                 "back-path from the sensitivity list");
    }
  }

  if (opts.depth == NetlistDepth::kProbed) {
    check_undriven(sim, opts, report);
  }
}

}  // namespace castanet::lint
