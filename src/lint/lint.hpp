// castanet-lint — static analysis for co-verification setups (DESIGN.md §10).
//
// Umbrella API over the three analyzer families:
//   netlist (src/lint/netlist.hpp)     — NET-* rules over an rtl::Simulator
//   board   (src/lint/board_rules.hpp) — BRD-* rules over a ConfigDataSet
//   sync    (src/lint/sync_rules.hpp)  — SYN-* rules over a session
//
// analyze_session() runs all three over a fully attached
// VerificationSession: sync rules on the session, netlist rules on every
// RtlBackend's HDL kernel, board rules on every BoardBackend's
// configuration.  The castanet_lint CLI and the lint tests use this.
//
// install_elaboration_hooks() arms the opt-in hooks so analysis runs
// automatically inside normal execution: every rtl::Simulator is checked at
// the end of initialize(), every VerificationSession at its first
// run_until (after attach / comparator wiring, before any network event).
// With `strict` set, error-severity findings abort elaboration with a
// LintError instead of surfacing hours later as a runtime throw.
#pragma once

#include <cstdint>
#include <functional>

#include "src/castanet/session.hpp"
#include "src/lint/board_rules.hpp"
#include "src/lint/dataflow.hpp"
#include "src/lint/diagnostic.hpp"
#include "src/lint/netlist.hpp"
#include "src/lint/sync_rules.hpp"

namespace castanet::lint {

struct Options {
  /// Netlist analysis depth for RTL backends.  kProbed runs settle() on
  /// each backend kernel (read tracking + a short settling window) to
  /// enable the undriven-input rules; use kElaboration to analyze without
  /// advancing any kernel.
  NetlistDepth depth = NetlistDepth::kProbed;
  /// Settling window per RTL backend, in that backend's sync clock periods
  /// (kProbed only).
  std::uint64_t settle_cycles = 4;
  /// Throw LintError if the finished report contains error-severity
  /// diagnostics.
  bool strict = false;
  /// Per-signal rule suppressions, forwarded to every backend's netlist
  /// and dataflow analyses (see suppress.hpp).  Suppressed findings are
  /// counted on the report, not silently absent.
  std::vector<RuleSuppression> suppressions;
  /// Run the DF-* abstract-interpretation rules (src/lint/dataflow.hpp) on
  /// every RTL backend after the netlist rules.  Off by default: the probe
  /// fixpoint costs more than the structural rules.
  bool dataflow = false;
  /// Budget knobs and constant seeds forwarded to analyze_dataflow when
  /// `dataflow` is set (scope/suppressions are filled per backend).
  DataflowOptions dataflow_options;
  /// When non-null, accumulates the per-backend dataflow stats (the CLI
  /// uses this for the metrics snapshot).
  DataflowStats* dataflow_stats = nullptr;
};

/// Runs every analyzer family over `session` and its attached backends.
/// Attach every backend first.  With opts.strict, throws LintError on
/// error-severity findings; otherwise inspect the returned report.
Report analyze_session(cosim::VerificationSession& session,
                       const Options& opts = {});

struct HookConfig {
  /// Promote error-severity findings to LintError, aborting elaboration.
  bool strict = false;
  /// Also run the DF-* dataflow rules in both hooks (default-budget
  /// DataflowOptions).  DF findings are warnings, so strict mode stays
  /// safe on clean designs.
  bool dataflow = false;
  /// Invoked with every finished (possibly clean) report, before the strict
  /// check; use to log or collect findings in non-strict mode.
  std::function<void(const Report&)> sink;
};

/// Installs the process-wide elaboration hooks on rtl::Simulator and
/// cosim::VerificationSession (see file comment).  The simulator hook runs
/// the netlist rules at kElaboration depth; the session hook runs the full
/// analyze_session at kElaboration depth (no kernel is advanced behind the
/// caller's back).  Install before elaborating; not thread-safe.
void install_elaboration_hooks(HookConfig cfg);

/// Removes both hooks.
void clear_elaboration_hooks();

}  // namespace castanet::lint
