// castanet-lint — static analysis for co-verification setups (DESIGN.md §10).
//
// Umbrella API over the three analyzer families:
//   netlist (src/lint/netlist.hpp)     — NET-* rules over an rtl::Simulator
//   board   (src/lint/board_rules.hpp) — BRD-* rules over a ConfigDataSet
//   sync    (src/lint/sync_rules.hpp)  — SYN-* rules over a session
//
// analyze_session() runs all three over a fully attached
// VerificationSession: sync rules on the session, netlist rules on every
// RtlBackend's HDL kernel (settled a few clock periods first), board rules
// on every BoardBackend's configuration.  The castanet_lint CLI and the lint tests use this.  With
// Options::strict set it throws LintError on error-severity findings, so a
// test bench that calls it after attaching its backends and before running
// stops at elaboration instead of at a runtime throw hours later.
#pragma once

#include "src/castanet/session.hpp"
#include "src/lint/board_rules.hpp"
#include "src/lint/dataflow.hpp"
#include "src/lint/diagnostic.hpp"
#include "src/lint/netlist.hpp"
#include "src/lint/sync_rules.hpp"

namespace castanet::lint {

struct Options {
  /// Throw LintError if the finished report contains error-severity
  /// diagnostics.
  bool strict = false;
  /// Run the DF-* abstract-interpretation rules (src/lint/dataflow.hpp) on
  /// every RTL backend after the netlist rules.  Off by default: the probe
  /// fixpoint costs more than the structural rules.
  bool dataflow = false;
};

/// Runs every analyzer family over `session` and its attached backends.
/// Attach every backend first.  With opts.strict, throws LintError on
/// error-severity findings; otherwise inspect the returned report.
Report analyze_session(cosim::VerificationSession& session,
                       const Options& opts = {});

}  // namespace castanet::lint
