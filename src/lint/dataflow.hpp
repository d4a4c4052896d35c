// Abstract interpretation over the elaborated netlist (DESIGN.md §13).
//
// analyze_dataflow() propagates a per-bit ternary lattice — may-be-0,
// may-be-1, may-be-unknown — through the combinational cones of an
// elaborated rtl::Simulator to a fixpoint, then reports defects no
// stimulus is needed to expose:
//
//   DF-STUCK             signal provably constant under all inputs
//   DF-DEAD-BRANCH       declared process guard provably never taken
//   DF-X-SOURCE          uninitialized/undriven net consumed by logic
//   DF-X-SINK            such a net's unknown value reaching a register
//                        or output port (with the propagation path)
//   DF-CDC               register sampling data from a foreign clock cone
//   DF-RESET             declared reset derived from a foreign clock cone
//
// Process bodies are opaque C++ lambdas, so abstract transfer functions
// are obtained by *probing*: sandboxed concrete execution of acyclic
// combinational processes (Simulator::probe_process) over every candidate
// valuation of their free input bits, joining the captured writes.  This
// is sound only under the combinational purity contract; sequential
// bodies carry internal C++ state and are never probed.  Everything the
// engine cannot prove — sequential outputs, fallback (cyclic) regions,
// externally driven nets, over-budget enumerations, probes that threw or
// consulted edge state — degrades to the full ⊤ = {0, 1, X} and is never
// reported.  Zero false positives is the design goal; the randomized
// oracle test (tests/lint/test_dataflow_oracle.cpp) checks every DF-STUCK
// and DF-DEAD-BRANCH verdict against concrete simulation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/lint/diagnostic.hpp"
#include "src/rtl/simulator.hpp"

namespace castanet::lint {

/// Work/precision counters for one analyze_dataflow run.
struct DataflowStats {
  std::uint64_t processes_probed = 0;    ///< comb processes enumerated
  std::uint64_t probe_evaluations = 0;   ///< sandboxed body executions
  std::uint64_t fixpoint_passes = 0;     ///< rank-order sweeps run
  std::uint64_t degraded_processes = 0;  ///< enumerations abandoned to ⊤
  std::uint64_t constant_signals = 0;    ///< signals proved constant
  std::uint64_t wall_ns = 0;             ///< analysis wall time
};

/// Test/introspection hook: the machine-readable facts behind the
/// diagnostics, filled when DataflowOptions::facts is set.
struct DataflowFacts {
  /// Signals proved constant (each one a DF-STUCK finding).
  std::vector<std::pair<rtl::SignalId, rtl::LogicVector>> stuck;
  /// Indices into Simulator::guards() proved never taken.
  std::vector<std::size_t> dead_guards;
};

struct DataflowOptions {
  /// Prefix for diagnostic locations (e.g. the backend name).
  std::string scope;
  /// When set, filled with the facts behind the report (oracle tests).
  DataflowFacts* facts = nullptr;
};

/// Runs the abstract interpreter and the DF-* rule family over `sim`,
/// appending findings to `report`.  Calls sim.initialize() if needed; all
/// poked signal values are restored, so the simulation can continue
/// exactly where it was.  Publishes telemetry (lint.dataflow.*) when the
/// hub is enabled.
DataflowStats analyze_dataflow(rtl::Simulator& sim,
                               const DataflowOptions& opts, Report& report);

}  // namespace castanet::lint
