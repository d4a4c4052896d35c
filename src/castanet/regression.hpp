// Regression test-bench management.
//
// The paper's opening problem statement: "Common approaches … are based on
// the creation of regression test benches to perform verification of timing
// and functionality by simulation.  The time needed to develop test benches
// … has proven to be a significant bottleneck (up to 50% of the design
// time)."  CASTANET's answer is reuse; this module makes the reuse
// concrete: a RegressionSuite is a set of named cases, each a recorded cell
// trace plus golden expectations (output cells and/or named counters),
// persisted to a directory, re-runnable against any device binding — the
// co-simulated RTL, the reference model, or the board — with one report.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/castanet/comparator.hpp"
#include "src/traffic/trace.hpp"

namespace castanet::cosim {

/// One regression case: stimulus + golden expectations.
struct RegressionCase {
  std::string name;
  traffic::CellTrace stimulus;
  /// Golden output cells (empty when the DUT produces none, e.g. a pure
  /// observer like the accounting unit).
  traffic::CellTrace golden_output;
  /// Golden named counters (e.g. "count0", "charge0").
  std::map<std::string, std::uint64_t> golden_counters;
};

/// What one device-under-test run produced for a case.
struct CaseResult {
  std::vector<atm::Cell> output;
  std::map<std::string, std::uint64_t> counters;
};

/// Verdict of one case.
struct CaseReport {
  std::string name;
  bool passed = false;
  std::size_t mismatches = 0;
  std::string detail;
};

class RegressionSuite {
 public:
  void add_case(RegressionCase c);
  std::size_t size() const { return cases_.size(); }
  const RegressionCase& at(std::size_t i) const { return cases_.at(i); }

  /// A device binding runs one case's stimulus and returns what the DUT
  /// produced.  The binding owns simulator setup/teardown per case, so
  /// every case starts from reset — the regression property.
  using DeviceBinding = std::function<CaseResult(const RegressionCase&)>;

  /// Runs every case against the binding; compares output cells per VC and
  /// counters by name.  Missing golden counters are ignored; extra DUT
  /// counters are ignored (goldens define the contract).
  std::vector<CaseReport> run(const DeviceBinding& device) const;

  static bool all_passed(const std::vector<CaseReport>& reports);
  static std::string summary(const std::vector<CaseReport>& reports);

  /// Persists to `dir` as <name>.stim / <name>.gold trace files plus a
  /// manifest; load() restores.  Directory must exist.
  void save(const std::string& dir) const;
  static RegressionSuite load(const std::string& dir);

  /// Records golden expectations by running the (trusted) reference
  /// binding over every case's stimulus — the "dump the output data into a
  /// file and re-run previously generated test vectors" workflow of §3.
  void record_goldens(const DeviceBinding& reference);

 private:
  std::vector<RegressionCase> cases_;
};

}  // namespace castanet::cosim
