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

/// Settling window of settle(), in clock periods: enough for clocked
/// processes to see a few rising edges.
constexpr std::uint64_t kSettleCycles = 4;

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

void check_drivers(const rtl::Simulator& sim, const std::string& scope,
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
    const std::string loc = qualify(scope, "signal '" + name + "'");
    if (has_x(sim.value(s))) {
      report.add("NET-CONTENTION", Severity::kError, kFamily, loc,
                 "bus contention: " + std::to_string(drivers.size()) +
                     " drivers (" + who + ") resolve to unknown bits (" +
                     sim.value(s).to_string() + ")",
                 "make all but one driver release the bus (drive 'Z') before "
                 "another drives a value");
    } else {
      report.add("NET-MULTI-DRIVEN", Severity::kNote, kFamily, loc,
                 "resolved signal with " + std::to_string(drivers.size()) +
                     " drivers (" + who + ")",
                 "expected for tri-state buses; check the driver list if this "
                 "net is not a bus");
    }
  }
}

void check_bindings(const rtl::Simulator& sim, const std::string& scope,
                    Report& report) {
  for (const rtl::PortBinding& b : sim.port_bindings()) {
    if (b.expected_width == sim.width(b.sig)) continue;
    report.add("NET-WIDTH-MISMATCH", Severity::kError, kFamily,
               qualify(scope, "port " + b.context + " on signal '" +
                                  sim.signal_name(b.sig) + "'"),
               "port expects width " + std::to_string(b.expected_width) +
                   " but the bound signal is " +
                   std::to_string(sim.width(b.sig)) + " bit(s) wide",
               "bind a signal of the declared width or fix the port "
               "declaration");
  }
}

void check_undriven(const rtl::Simulator& sim, const std::string& scope,
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
    const std::string loc = qualify(scope, "signal '" + name + "'");
    if (has_u(sim.value(b.sig))) {
      report.add("NET-UNDRIVEN", Severity::kError, kFamily, loc,
                 "input port(s) " + ports +
                     " read this signal but nothing drives it and it is "
                     "uninitialized (" +
                     sim.value(b.sig).to_string() + ")",
                 "connect a driver or give the signal a defined init value");
    } else {
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

void settle(rtl::Simulator& sim, SimTime clock_period) {
  sim.set_read_tracking(true);
  sim.initialize();
  if (clock_period > SimTime::zero()) {
    sim.run_until(sim.now() + clock_period * kSettleCycles);
  }
}

void analyze_netlist(rtl::Simulator& sim, const std::string& scope,
                     Report& report) {
  sim.initialize();

  check_bindings(sim, scope, report);
  check_drivers(sim, scope, report);

  const std::vector<std::string> comb_cycle =
      rtl::find_combinational_cycle(sim);
  if (!comb_cycle.empty()) {
    report.add("NET-COMB-LOOP", Severity::kError, kFamily,
               qualify(scope, comb_cycle.front()),
               "combinational loop: " + join_path(comb_cycle),
               "break the loop with a clocked process or remove the "
               "back-path from the sensitivity list");
  }

  check_undriven(sim, scope, report);
}

}  // namespace castanet::lint
