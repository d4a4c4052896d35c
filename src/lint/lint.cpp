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
      NetlistOptions nopts;
      nopts.depth = opts.depth;
      nopts.scope = b.name();
      nopts.suppressions = opts.suppressions;
      if (opts.depth == NetlistDepth::kProbed) {
        settle(r->hdl(), r->sync().params().clock_period, opts.settle_cycles);
      }
      analyze_netlist(r->hdl(), nopts, report);
      if (opts.dataflow) {
        DataflowOptions dopts = opts.dataflow_options;
        dopts.scope = b.name();
        dopts.suppressions = opts.suppressions;
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
