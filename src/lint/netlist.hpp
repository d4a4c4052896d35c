// Netlist analyzers over an elaborated rtl::Simulator (DESIGN.md §10).
//
// The analyzers walk the process/signal graph the kernel exposes: static
// sensitivity lists, driver slots harvested while processes execute, the
// port-binding contracts modules declare at construction, and (optionally)
// read-tracked dataflow edges.  Because driver and reader edges are
// harvested from execution, the caller chooses an analysis depth:
//
//   kElaboration — only initialize() ran (every process executed once).
//                  Combinational logic has driven its outputs; clocked
//                  processes have not seen an edge yet, so rules that need
//                  their drive sets (undriven inputs) are skipped.  This is
//                  the depth the opt-in elaboration hook runs at.
//   kProbed      — settle() ran: a short settling window with read tracking
//                  enabled, long enough for clocked processes to fire.  The
//                  full rule set applies.  This is what castanet_lint does.
//
// Either way the analysis is static with respect to the workload: no
// stimulus is applied, and a settling window of a few clock periods is
// negligible next to a co-simulation run.
#pragma once

#include "src/lint/diagnostic.hpp"
#include "src/lint/suppress.hpp"
#include "src/rtl/levelize.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::lint {

enum class NetlistDepth { kElaboration, kProbed };

struct NetlistOptions {
  NetlistDepth depth = NetlistDepth::kElaboration;
  /// Prefix for diagnostic locations when analyzing several simulators in
  /// one report (e.g. the backend name).
  std::string scope;
  /// Allowlist applied by every signal-anchored rule.
  std::vector<RuleSuppression> suppressions;
};

/// Prepares `sim` for a kProbed analysis: enables read tracking, runs
/// initialize(), then `cycles` periods of `clock_period` so clocked
/// processes execute and populate their driver/reader edges.  Leaves read
/// tracking enabled (harvest continues if the caller keeps simulating).
void settle(rtl::Simulator& sim, SimTime clock_period,
            std::uint64_t cycles = 4);

/// Runs every netlist rule applicable at `opts.depth` and appends the
/// findings to `report`.  Calls sim.initialize() if the caller has not.
void analyze_netlist(rtl::Simulator& sim, const NetlistOptions& opts,
                     Report& report);

}  // namespace castanet::lint
