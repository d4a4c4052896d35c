// castanet_report — consolidates farm telemetry artifacts into one report.
//
// A farm run leaves per-shard metrics JSON snapshots and Chrome traces on
// disk (castanet_farm --metrics/--trace retags one path per session).  This
// tool folds them back together: counters summed, histograms merged exactly,
// a per-flow latency quantile table, and the top-N spans by total duration
// across every trace.
//
//   castanet_report shard1.metrics.json shard2.metrics.json
//   castanet_report m/*.json --trace t/*.json --out run_report.json
//   castanet_report --trace run.trace.json         # span table only
//   castanet_report --validate report.json        # metrics-schema gate
//
//   --trace FILE...   Chrome trace files to aggregate into the span table
//                     (at least one metrics or trace file is required)
//   --top N           span table size (default 10)
//   --out FILE        write the report JSON here (table always on stderr)
//   --validate FILE   schema check only: the file must round-trip through
//                     the snapshot codec unchanged; exit 0/1
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/castanet/report.hpp"
#include "src/core/error.hpp"

namespace castanet {
namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [METRICS.json...] [--trace TRACE.json...] [--top N]\n"
               "       [--out FILE] | --validate FILE\n"
               "(at least one METRICS.json or TRACE.json)\n";
  return 2;
}

int validate_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::cerr << "castanet_report: cannot read " << path << "\n";
    return 1;
  }
  std::ostringstream text;
  text << f.rdbuf();
  const std::string err = cosim::report::validate_metrics_json(text.str());
  if (!err.empty()) {
    std::cerr << "castanet_report: " << path << ": " << err << "\n";
    return 1;
  }
  std::cerr << "castanet_report: " << path << ": metrics schema ok\n";
  return 0;
}

int report_main(int argc, char** argv) {
  std::vector<std::string> metrics_paths;
  std::vector<std::string> trace_paths;
  std::string out_path;
  std::size_t top_n = 10;
  bool in_traces = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--validate" && i + 1 < argc) {
      return validate_file(argv[++i]);
    } else if (arg == "--trace") {
      in_traces = true;
    } else if (arg == "--top" && i + 1 < argc) {
      top_n = static_cast<std::size_t>(std::atoi(argv[++i]));
      in_traces = false;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
      in_traces = false;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (in_traces) {
      trace_paths.push_back(arg);
    } else {
      metrics_paths.push_back(arg);
    }
  }
  if (metrics_paths.empty() && trace_paths.empty()) return usage(argv[0]);

  const cosim::report::RunReport rep =
      cosim::report::consolidate(metrics_paths, trace_paths, top_n);
  std::cerr << rep.to_table();
  const std::string json = rep.to_json().dump(2);
  if (out_path.empty()) {
    std::cout << json << "\n";
  } else {
    std::ofstream f(out_path);
    if (!f) {
      std::cerr << "castanet_report: cannot write " << out_path << "\n";
      return 1;
    }
    f << json << "\n";
    std::cerr << "castanet_report: written to " << out_path << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace castanet

int main(int argc, char** argv) {
  try {
    return castanet::report_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "castanet_report: " << e.what() << "\n";
    return 1;
  }
}
