// Hardware in the simulation loop (§3.3), driven by the N-backend session:
// ONE testbench feeds THREE backends in lockstep — the RTL accounting unit
// under the HDL kernel (primary), the algorithm reference model, and the
// "fabricated" device on the hardware test board (the RTL model behind a
// pin-level adapter that exhibits timing violations above its rated clock).
// The rig lives in examples/rigs/accounting_rig.hpp, shared with the
// castanet_lint CLI and the lint clean-design tests.
//
// At the end of each run every backend reads its counters back (the RTL and
// board over their µP buses, the reference directly) and the session
// comparator cross-checks them:
//   * board at the rated 10 MHz          -> all three backends agree;
//   * board at the full 20 MHz clock     -> setup violations corrupt cells,
//     and the comparator pins the divergence to the board backend — a class
//     of bug pure functional simulation cannot reveal, the paper's argument
//     for real-time verification;
//   * 20 MHz board with clock gating 2   -> the DUT sees 10 MHz again and
//     the rig is clean.
//
// Build & run:  ./build/examples/board_in_the_loop [--trace PATH]
// --trace enables the telemetry hub across all three rigs and streams one
// Chrome trace_event JSON to PATH; an instant marker on the main row
// separates the rigs in the timeline.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "examples/rigs/accounting_rig.hpp"
#include "src/core/telemetry.hpp"

using namespace castanet;

namespace {

constexpr std::uint64_t kRatedHz = 10'000'000;  // the device's rated clock

struct RigOutcome {
  bool clean = false;
  std::optional<cosim::Divergence> first;
  std::uint64_t timing_violations = 0;
  std::uint64_t causality_errors = 0;
  std::string report;
};

/// One full three-backend session over `trace`, with the board's test
/// clock at `board_clock_hz` and the board's clock-gating factor applied.
RigOutcome run_rig(const traffic::CellTrace& trace,
                   std::uint64_t board_clock_hz, unsigned gating_factor) {
  rigs::AccountingRig::Params params;
  params.board_clock_hz = board_clock_hz;
  params.gating_factor = gating_factor;
  params.rated_hz = kRatedHz;
  rigs::AccountingRig rig(params);
  rig.drive(trace);
  rig.run(trace.arrivals().back().time + SimTime::from_ms(1));
  cosim::SessionComparator& cmp = rig.session->comparator();

  RigOutcome out;
  out.clean = cmp.clean();
  out.first = cmp.first_divergence(0);
  out.timing_violations = rig.brd->totals().timing_violations;
  for (const auto& b : rig.session->stats().backends)
    out.causality_errors += b.causality_errors;
  out.report = cmp.report();
  return out;
}

void print_outcome(const char* label, const RigOutcome& o) {
  std::printf("%s\n", label);
  std::printf("  timing violations .. %llu\n",
              static_cast<unsigned long long>(o.timing_violations));
  std::printf("  causality errors ... %llu\n",
              static_cast<unsigned long long>(o.causality_errors));
  std::printf("  %s", o.report.c_str());
  if (o.first) {
    std::printf(
        "  first divergence: backend %zu, stream %u, response #%llu\n"
        "    primary (RTL) time %s vs backend time %s\n",
        o.first->backend, o.first->stream,
        static_cast<unsigned long long>(o.first->index),
        o.first->primary_time.to_string().c_str(),
        o.first->backend_time.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc)
      trace_path = argv[++i];
  }
  if (!trace_path.empty()) {
    telemetry::Hub::instance().enable();
    if (!telemetry::Hub::instance().stream_trace_to(trace_path)) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
  }
  const auto mark_rig = [&](double index) {
    if (telemetry::enabled())
      telemetry::instant("rig start", telemetry::kMainTrack,
                         {{"rig", index}});
  };

  // Stimulus: 120 cells, back-to-back at the board's cell time.
  const traffic::CellTrace trace = rigs::AccountingRig::record_trace(120);

  mark_rig(0);
  const RigOutcome rated = run_rig(trace, kRatedHz, /*gating_factor=*/1);
  print_outcome("=== RTL + reference + board at 10 MHz (rated) ===", rated);

  mark_rig(1);
  const RigOutcome hot =
      run_rig(trace, board::kMaxBoardClockHz, /*gating_factor=*/1);
  print_outcome("=== RTL + reference + board at 20 MHz (overclocked) ===",
                hot);
  std::printf(
      "  -> at-speed verification exposed %llu setup violations that the\n"
      "     functional co-simulation could not show\n",
      static_cast<unsigned long long>(hot.timing_violations));

  mark_rig(2);
  const RigOutcome gated =
      run_rig(trace, board::kMaxBoardClockHz, /*gating_factor=*/2);
  print_outcome(
      "=== RTL + reference + board at 20 MHz, gating factor 2 ===", gated);

  const bool ok = rated.clean && rated.causality_errors == 0 && !hot.clean &&
                  hot.first && hot.first->backend == 2 && gated.clean;
  std::printf("overall: %s\n", ok ? "PASS" : "FAIL");
  if (!trace_path.empty()) {
    auto& hub = telemetry::Hub::instance();
    if (!hub.stop_trace_stream()) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace written: %s (%llu events)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(hub.trace_events_streamed()));
  }
  return ok ? 0 : 1;
}
