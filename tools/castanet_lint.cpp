// castanet_lint — static analysis CLI over the shipped example designs.
//
// Elaborates the example rigs (without driving any stimulus), runs the
// full analyzer stack (netlist + dataflow + board + sync, DESIGN.md
// §10/§13) on each and reports the findings.
//
//   castanet_lint [--design switch|board|all] [--json] [--strict]
//                 [--dataflow] [--baseline FILE] [--metrics FILE]
//                 [--fix-dry-run]
//   castanet_lint --validate FILE
//
//   --design      which rig(s) to analyze                   (default: all)
//   --json        machine-readable report instead of text
//   --strict      abort on the first design with error-severity findings,
//                 via Report::throw_if (exit 2) — the CI wiring uses the
//                 default mode and the exit code instead
//   --dataflow    also run the DF-* abstract-interpretation rules
//                 (src/lint/dataflow.hpp) on every RTL backend
//   --baseline    JSON file of known findings ({"switch": [{"rule": ...,
//                 "location": ...}], "board": [...]}); exit 1 when any
//                 diagnostic is NOT in the baseline (CI ratchet).  This is
//                 how a known finding is accepted.
//   --metrics     enable the telemetry hub and write its snapshot
//                 (including the lint.dataflow.* counters) to FILE
//   --fix-dry-run for board configs with pin conflicts, print the patched
//                 configuration the proposed remap produces
//   --validate    standalone mode: schema-check a --json report file via
//                 structural round-trip (exit 0 valid / 2 invalid)
//
// Exit code: 0 when no design produced an error-severity diagnostic and
// the baseline (if given) covers every finding, 1 otherwise, 2 on usage
// errors, --strict aborts or --validate failures.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "examples/rigs/accounting_rig.hpp"
#include "examples/rigs/switch_rig.hpp"
#include "src/castanet/backend.hpp"
#include "src/core/json.hpp"
#include "src/core/telemetry.hpp"
#include "src/lint/lint.hpp"

using namespace castanet;

namespace {

struct DesignReport {
  std::string name;
  lint::Report report;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--design switch|board|all] [--json] [--strict]\n"
               "       [--dataflow] [--baseline FILE] [--metrics FILE]\n"
               "       [--fix-dry-run]\n"
               "       %s --validate FILE\n",
               argv0, argv0);
  return 2;
}

std::string read_file(const std::string& path, bool& ok) {
  std::ifstream in(path, std::ios::binary);
  ok = static_cast<bool>(in);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Checks every diagnostic against the baseline's (rule, location) pairs;
/// returns the number of findings the baseline does not cover.
std::size_t check_baseline(const json::Value& baseline,
                           const std::vector<DesignReport>& reports) {
  std::size_t missing = 0;
  for (const DesignReport& r : reports) {
    const json::Value* allowed = baseline.find(r.name);
    for (const lint::Diagnostic& d : r.report.diagnostics()) {
      bool covered = false;
      if (allowed != nullptr && allowed->is_array()) {
        for (const json::Value& e : allowed->as_array()) {
          if (e.string_or("rule", "") == d.rule &&
              e.string_or("location", "") == d.location) {
            covered = true;
            break;
          }
        }
      }
      if (!covered) {
        ++missing;
        std::fprintf(stderr,
                     "castanet_lint: finding not in baseline: [%s] %s %s: "
                     "%s\n",
                     r.name.c_str(), d.rule.c_str(), d.location.c_str(),
                     d.message.c_str());
      }
    }
  }
  return missing;
}

}  // namespace

int main(int argc, char** argv) {
  std::string design = "all";
  std::string baseline_path;
  std::string metrics_path;
  std::string validate_path;
  bool json = false;
  bool fix_dry_run = false;
  lint::Options opts;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--design") == 0 && i + 1 < argc) {
      design = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--strict") == 0) {
      opts.strict = true;
    } else if (std::strcmp(argv[i], "--dataflow") == 0) {
      opts.dataflow = true;
    } else if (std::strcmp(argv[i], "--fix-dry-run") == 0) {
      fix_dry_run = true;
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--validate") == 0 && i + 1 < argc) {
      validate_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  if (design != "switch" && design != "board" && design != "all") {
    return usage(argv[0]);
  }

  if (!validate_path.empty()) {
    bool ok = false;
    const std::string text = read_file(validate_path, ok);
    if (!ok) {
      std::fprintf(stderr, "castanet_lint: cannot read %s\n",
                   validate_path.c_str());
      return 2;
    }
    const std::string err = lint::validate_lint_json(text);
    if (!err.empty()) {
      std::fprintf(stderr, "castanet_lint: %s: %s\n", validate_path.c_str(),
                   err.c_str());
      return 2;
    }
    std::printf("castanet_lint: %s: valid lint report\n",
                validate_path.c_str());
    return 0;
  }

  if (!metrics_path.empty()) telemetry::Hub::instance().enable();

  std::vector<DesignReport> reports;
  std::vector<std::pair<std::string, board::ConfigDataSet>> configs;
  try {
    if (design == "switch" || design == "all") {
      rigs::SwitchRig rig;
      reports.push_back({"switch", lint::analyze_session(rig.session, opts)});
    }
    if (design == "board" || design == "all") {
      rigs::AccountingRig rig;
      reports.push_back({"board", lint::analyze_session(*rig.session, opts)});
      for (std::size_t i = 0; i < rig.session->backend_count(); ++i) {
        if (auto* brd = dynamic_cast<cosim::BoardBackend*>(
                &rig.session->backend(i))) {
          configs.emplace_back("board", brd->board().config());
        }
      }
    }
  } catch (const lint::LintError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }

  if (json) {
    json::Value doc{json::Object{}};
    for (const DesignReport& r : reports)
      doc.set(r.name, r.report.to_json_value());
    std::printf("%s\n", doc.dump(2).c_str());
  } else {
    for (const DesignReport& r : reports) {
      std::printf("== design: %s ==\n%s", r.name.c_str(),
                  r.report.to_text().c_str());
    }
  }

  if (fix_dry_run) {
    for (const auto& [name, cfg] : configs) {
      const lint::PinRemap remap = lint::propose_pin_remap(cfg);
      if (!remap.changed) {
        std::printf("== %s: no pin remap needed ==\n", name.c_str());
        continue;
      }
      std::printf("== %s: patched config (%zu slice move(s)%s) ==\n%s",
                  name.c_str(), remap.moves.size(),
                  remap.complete ? "" : "; some slices could not be placed",
                  lint::render_board_config(remap.patched).c_str());
    }
  }

  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path, std::ios::binary);
    out << telemetry::Hub::instance().snapshot().to_json() << "\n";
    if (!out) {
      std::fprintf(stderr, "castanet_lint: cannot write %s\n",
                   metrics_path.c_str());
      return 2;
    }
  }

  std::size_t failures = 0;
  if (!baseline_path.empty()) {
    try {
      failures += check_baseline(json::parse_file(baseline_path), reports);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "castanet_lint: bad baseline: %s\n", e.what());
      return 2;
    }
  }
  for (const DesignReport& r : reports) failures += r.report.errors();
  return failures == 0 ? 0 : 1;
}
