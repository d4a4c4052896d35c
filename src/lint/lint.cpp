#include "src/lint/lint.hpp"

#include "src/castanet/backend.hpp"

namespace castanet::lint {

Report analyze_session(cosim::VerificationSession& session,
                       const Options& opts) {
  Report report;
  analyze_session_sync(session, report);
  for (std::size_t i = 0; i < session.backend_count(); ++i) {
    cosim::DutBackend& b = session.backend(i);
    if (auto* r = dynamic_cast<cosim::RtlBackend*>(&b)) {
      settle(r->hdl(), r->sync().params().clock_period);
      analyze_netlist(r->hdl(), b.name(), report);
      if (opts.dataflow) {
        DataflowOptions dopts;
        dopts.scope = b.name();
        analyze_dataflow(r->hdl(), dopts, report);
      }
    } else if (auto* brd = dynamic_cast<cosim::BoardBackend*>(&b)) {
      analyze_board_config(brd->board().config(), b.name(), report);
    }
  }
  if (opts.strict) report.throw_if(Severity::kError);
  return report;
}

}  // namespace castanet::lint
