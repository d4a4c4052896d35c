// Netlist analyzers over an elaborated rtl::Simulator (DESIGN.md §10).
//
// The analyzers walk the process/signal graph the kernel exposes: static
// sensitivity lists, driver slots harvested while processes execute, the
// port-binding contracts modules declare at construction, and read-tracked
// dataflow edges.  Because driver and reader edges are harvested from
// execution, callers settle() the kernel first: a short settling window
// with read tracking enabled, long enough for clocked processes to fire and
// fill their drive sets, which the undriven-input rules need.
// analyze_session does so for every RTL backend.
//
// The analysis is static with respect to the workload: no stimulus is
// applied, and a settling window of a few clock periods is negligible next
// to a co-simulation run.
#pragma once

#include <string>

#include "src/lint/diagnostic.hpp"
#include "src/rtl/levelize.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::lint {

/// Prepares `sim` for analysis: enables read tracking, runs initialize(),
/// then four periods of `clock_period` so clocked processes execute and
/// populate their driver/reader edges.  Leaves read tracking enabled
/// (harvest continues if the caller keeps simulating).
void settle(rtl::Simulator& sim, SimTime clock_period);

/// Runs every netlist rule and appends the findings to `report`; `scope`
/// prefixes diagnostic locations when several simulators share one report
/// (e.g. the backend name; may be empty).  Calls sim.initialize() if the
/// caller has not.
void analyze_netlist(rtl::Simulator& sim, const std::string& scope,
                     Report& report);

}  // namespace castanet::lint
