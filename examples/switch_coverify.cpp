// Co-verification of the 4-port ATM switch (§2's evaluation device).
//
// Mixed traffic (CBR trunks, a Poisson data aggregate, a bursty on/off
// source) is recorded into cell traces — the reusable test vectors of
// Fig. 1 — then ONE testbench drives two backends in lockstep through a
// VerificationSession: the RTL switch under the HDL kernel (primary) and
// the algorithm reference model.  The session comparator cross-checks the
// two backends' output streams per port, and a VCD waveform of port 0 is
// dumped for the HDL-debugger workflow.  The rig itself lives in
// examples/rigs/switch_rig.hpp, shared with the castanet_lint CLI and the
// lint clean-design tests.
//
// Build & run:  ./build/examples/switch_coverify [cells-per-source]
//                    [--vcd PATH] [--trace PATH] [--metrics PATH]
// cells-per-source is a positive integer (default 40); any other argument
// prints a usage line and exits with status 2.  The VCD defaults to
// <binary-dir>/switch_port0.vcd so runs never litter the source tree.
// --trace enables the telemetry hub and streams a Chrome trace_event JSON to
// PATH as the run goes (open in chrome://tracing or
// https://ui.perfetto.dev), with one timeline row per backend plus the
// network scheduler, and prints the flat metrics table.  --metrics enables
// the hub, writes the metrics snapshot JSON, prints the per-flow latency
// quantile table and checks the per-flow oracle: every recorded cell must
// enter and leave its flow.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "examples/rigs/switch_rig.hpp"
#include "src/core/telemetry.hpp"
#include "src/netsim/flow_stats.hpp"
#include "src/rtl/waveform.hpp"

using namespace castanet;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [cells-per-source] [--vcd PATH] [--trace PATH]\n"
               "       [--metrics PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t cells_per_source = 40;
  std::string vcd_path;
  std::string trace_path;
  std::string metrics_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--vcd") == 0 && i + 1 < argc) {
      vcd_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else {
      // The one positional argument: a positive decimal cell count.
      char* end = nullptr;
      const unsigned long long n = std::strtoull(argv[i], &end, 10);
      if (argv[i][0] < '0' || argv[i][0] > '9' || *end != '\0' || n == 0)
        return usage(argv[0]);
      cells_per_source = n;
    }
  }
  if (!trace_path.empty() || !metrics_path.empty())
    telemetry::Hub::instance().enable();
  if (!trace_path.empty() &&
      !telemetry::Hub::instance().stream_trace_to(trace_path)) {
    std::fprintf(stderr, "error: cannot write trace to %s\n",
                 trace_path.c_str());
    return 1;
  }
  if (vcd_path.empty()) {
    const std::string self(argv[0]);
    const std::size_t slash = self.find_last_of('/');
    vcd_path = (slash == std::string::npos ? std::string(".")
                                           : self.substr(0, slash)) +
               "/switch_port0.vcd";
  }

  // --- record the stimulus traces (reusable test vectors) -----------------
  const auto traces = rigs::SwitchRig::record_traces(cells_per_source);

  // --- elaborate the rig: RTL switch + reference behind one testbench -----
  rigs::SwitchRig rig;
  rtl::VcdWriter vcd(rig.hdl, vcd_path, /*timescale_ps=*/1000);
  vcd.track(rig.sw.phys_in(0).data.id());
  vcd.track(rig.sw.phys_in(0).sync.id());
  vcd.track(rig.sw.phys_in(0).valid.id());
  vcd.track(rig.sw.phys_out(0).data.id());
  vcd.track(rig.sw.phys_out(0).valid.id());
  rig.drive(traces);

  // --- run -----------------------------------------------------------------
  rig.run(rigs::SwitchRig::horizon(traces) + SimTime::from_ms(2));
  cosim::SessionComparator& cmp = rig.session.comparator();

  const auto stats = rig.session.stats();
  std::printf("switch co-verification, %zu cells/source x %zu sources\n",
              cells_per_source, traces.size());
  std::printf("  GCU switched .......... %llu cells\n",
              static_cast<unsigned long long>(rig.sw.gcu().cells_switched()));
  // Responses counted on the primary (the RTL switch, backend 0).
  std::printf("  messages exchanged .... %llu -> / %llu <-\n",
              static_cast<unsigned long long>(stats.messages_to_hdl),
              static_cast<unsigned long long>(stats.backends[0].responses));
  for (const auto& b : stats.backends) {
    std::printf("  backend %-11s ... %llu windows, %llu causality errors\n",
                b.name.c_str(),
                static_cast<unsigned long long>(b.windows),
                static_cast<unsigned long long>(b.causality_errors));
  }
  std::printf("  VCD changes written ... %llu (%s)\n",
              static_cast<unsigned long long>(vcd.changes_written()),
              vcd_path.c_str());
  std::printf("comparison: %s\n%s", cmp.clean() ? "PASS" : "FAIL",
              cmp.report().c_str());
  if (!trace_path.empty()) {
    auto& hub = telemetry::Hub::instance();
    // Writes the last buffered events, so the count below is complete.
    if (!hub.stop_trace_stream()) {
      std::fprintf(stderr, "error: cannot write trace to %s\n",
                   trace_path.c_str());
      return 1;
    }
    std::printf("chrome trace written ... %s (%llu events)\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(hub.trace_events_streamed()));
    std::printf("%s", hub.snapshot().to_table().c_str());
  }
  bool flows_ok = true;
  if (!metrics_path.empty()) {
    // Per-flow oracle (mchang6137-style): every recorded cell of port pt's
    // flow {1, 100+pt} must have entered AND left the switch (the run horizon
    // includes 2 ms of drain).  The latency quantiles come straight from the
    // per-flow log2 histograms.
    std::printf("\nper-flow oracle (expected = recorded trace length)\n");
    for (std::size_t pt = 0; pt < rigs::SwitchRig::kPorts; ++pt) {
      const netsim::FlowKey key{1, static_cast<std::uint16_t>(100 + pt),
                                static_cast<std::uint32_t>(pt)};
      const std::uint64_t expected = traces[pt].size();
      const netsim::FlowStats* f = rig.net.flows().find(key);
      const std::uint64_t in = f != nullptr ? f->cells_in : 0;
      const std::uint64_t out = f != nullptr ? f->cells_out : 0;
      const bool ok = in == expected && out == expected;
      flows_ok = flows_ok && ok;
      std::printf(
          "  flow %-10s expect=%llu in=%llu out=%llu "
          "p50=%.3gs p99=%.3gs [%s]\n",
          key.to_string().c_str(), static_cast<unsigned long long>(expected),
          static_cast<unsigned long long>(in),
          static_cast<unsigned long long>(out),
          f != nullptr ? f->latency.quantile(0.50) : 0.0,
          f != nullptr ? f->latency.quantile(0.99) : 0.0, ok ? "ok" : "FAIL");
    }
    std::ofstream mf(metrics_path);
    if (!mf) {
      std::fprintf(stderr, "error: cannot write metrics to %s\n",
                   metrics_path.c_str());
      return 1;
    }
    mf << telemetry::Hub::instance().snapshot().to_json() << "\n";
    std::printf("metrics written ........ %s\n", metrics_path.c_str());
  }
  return cmp.clean() && flows_ok ? 0 : 1;
}
