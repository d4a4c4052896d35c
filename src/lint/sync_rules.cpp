#include "src/lint/sync_rules.hpp"

#include <string>

#include "src/castanet/backend.hpp"

namespace castanet::lint {

namespace {

constexpr const char* kFamily = "sync";

std::string backend_loc(const cosim::DutBackend& b) {
  return "backend '" + b.name() + "'";
}

void check_backend_lookahead(const cosim::DutBackend& b, Report& report) {
  const cosim::ConservativeSync& sync = b.sync();
  const SimTime period = sync.params().clock_period;
  if (period <= SimTime::zero()) {
    report.add("SYN-LOOKAHEAD", Severity::kError, kFamily, backend_loc(b),
               "sync clock period is " + period.to_string() +
                   ": every effective lookahead δ_j·T is zero or negative, "
                   "so window grants can never advance past network time",
               "set ConservativeSync::Params::clock_period to the backend's "
               "real clock period");
    return;  // the per-input products below would all fire redundantly
  }
  for (const auto& in : sync.declared_inputs()) {
    if (in.delta_cycles == 0 || period * in.delta_cycles <= SimTime::zero()) {
      report.add("SYN-LOOKAHEAD", Severity::kError, kFamily,
                 backend_loc(b) + ", input type " + std::to_string(in.type),
                 "effective lookahead δ·T = " +
                     std::to_string(in.delta_cycles) + " x " +
                     period.to_string() +
                     " is not positive; the time-window policy degenerates "
                     "for this queue",
                 "declare the input with a processing delay of at least one "
                 "clock cycle");
    }
  }
  if (sync.declared_inputs().empty()) {
    report.add("SYN-NO-INPUTS", Severity::kWarning, kFamily, backend_loc(b),
               "no input types declared: the first data message fanned out "
               "to this backend will throw ProtocolError",
               "declare every gateway stream type on this backend, or "
               "detach it");
  }
}

void check_declared_types(const cosim::VerificationSession& session,
                          const cosim::DutBackend& b, Report& report) {
  const cosim::GatewayProcess& gw = session.gateway();
  for (unsigned s = 0; s < gw.streams(); ++s) {
    const cosim::MessageType type = s;  // the gateway's stream s -> type s
    if (b.sync().input_declared(type)) continue;
    if (b.sync().declared_inputs().empty()) continue;  // SYN-NO-INPUTS fired
    report.add("SYN-UNDECLARED", Severity::kError, kFamily,
               backend_loc(b),
               "gateway stream " + std::to_string(s) +
                   " emits message type " + std::to_string(type) +
                   ", which has no registered processing delay on this "
                   "backend; the first such message throws ProtocolError",
               "register the type (register_input / register_cell_input / "
               "declare_input) with its δ before running");
  }
}

}  // namespace

void analyze_session_sync(cosim::VerificationSession& session,
                          Report& report) {
  for (std::size_t i = 0; i < session.backend_count(); ++i) {
    const cosim::DutBackend& b = session.backend(i);
    check_backend_lookahead(b, report);
    check_declared_types(session, b, report);
  }
  if (session.backend_count() == 0) {
    report.add("SYN-NO-BACKENDS", Severity::kWarning, kFamily, "session",
               "no backends attached: run_until will advance the network "
               "side with nothing to verify",
               "attach at least one DutBackend before running");
  }
}

}  // namespace castanet::lint
