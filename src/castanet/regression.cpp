#include "src/castanet/regression.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "src/core/error.hpp"

namespace castanet::cosim {

void RegressionSuite::add_case(RegressionCase c) {
  require(!c.name.empty(), "RegressionSuite: case needs a name");
  for (char ch : c.name) {
    require(std::isalnum(static_cast<unsigned char>(ch)) || ch == '_' ||
                ch == '-',
            "RegressionSuite: case name must be [alnum_-]: '" + c.name + "'");
  }
  for (const auto& existing : cases_) {
    require(existing.name != c.name,
            "RegressionSuite: duplicate case '" + c.name + "'");
  }
  cases_.push_back(std::move(c));
}

std::vector<CaseReport> RegressionSuite::run(
    const DeviceBinding& device) const {
  std::vector<CaseReport> reports;
  for (const RegressionCase& c : cases_) {
    CaseReport report;
    report.name = c.name;
    CaseResult result;
    try {
      result = device(c);
    } catch (const Error& e) {
      report.passed = false;
      report.mismatches = 1;
      report.detail = std::string("device binding threw: ") + e.what();
      reports.push_back(std::move(report));
      continue;
    }
    ResponseComparator cmp;
    for (const auto& a : c.golden_output.arrivals()) cmp.expect(a.cell);
    for (const atm::Cell& cell : result.output) cmp.actual(cell);
    std::uint64_t id = 0;
    for (const auto& [name, want] : c.golden_counters) {
      auto it = result.counters.find(name);
      cmp.compare_value(id++, want,
                        it == result.counters.end() ? ~std::uint64_t{0}
                                                    : it->second,
                        name);
    }
    cmp.finish();
    report.passed = cmp.clean();
    report.mismatches = cmp.mismatches().size();
    if (!report.passed) report.detail = cmp.report();
    reports.push_back(std::move(report));
  }
  return reports;
}

bool RegressionSuite::all_passed(const std::vector<CaseReport>& reports) {
  for (const CaseReport& r : reports) {
    if (!r.passed) return false;
  }
  return true;
}

std::string RegressionSuite::summary(const std::vector<CaseReport>& reports) {
  std::ostringstream os;
  std::size_t passed = 0;
  for (const CaseReport& r : reports) passed += r.passed ? 1 : 0;
  os << passed << "/" << reports.size() << " regression cases passed\n";
  for (const CaseReport& r : reports) {
    os << "  [" << (r.passed ? "PASS" : "FAIL") << "] " << r.name;
    if (!r.passed) os << " (" << r.mismatches << " mismatches)";
    os << "\n";
    if (!r.passed && !r.detail.empty()) os << r.detail;
  }
  return os.str();
}

void RegressionSuite::save(const std::string& dir) const {
  std::ofstream manifest(dir + "/suite.manifest");
  if (!manifest) {
    throw IoError("RegressionSuite::save: cannot write manifest in '" + dir +
                  "'");
  }
  manifest << "castanet-regression v1\n";
  for (const RegressionCase& c : cases_) {
    manifest << "case " << c.name;
    for (const auto& [name, value] : c.golden_counters) {
      manifest << " " << name << "=" << value;
    }
    manifest << "\n";
    c.stimulus.save(dir + "/" + c.name + ".stim");
    c.golden_output.save(dir + "/" + c.name + ".gold");
  }
}

RegressionSuite RegressionSuite::load(const std::string& dir) {
  std::ifstream manifest(dir + "/suite.manifest");
  if (!manifest) {
    throw IoError("RegressionSuite::load: no manifest in '" + dir + "'");
  }
  std::string line;
  if (!std::getline(manifest, line) || line != "castanet-regression v1") {
    throw IoError("RegressionSuite::load: bad manifest header");
  }
  RegressionSuite suite;
  while (std::getline(manifest, line)) {
    if (line.empty()) continue;
    std::istringstream ls(line);
    std::string word, name;
    if (!(ls >> word >> name) || word != "case") {
      throw IoError("RegressionSuite::load: malformed manifest line: " +
                    line);
    }
    RegressionCase c;
    c.name = name;
    std::string kv;
    while (ls >> kv) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        throw IoError("RegressionSuite::load: malformed counter: " + kv);
      }
      c.golden_counters[kv.substr(0, eq)] =
          std::stoull(kv.substr(eq + 1));
    }
    c.stimulus = traffic::CellTrace::load(dir + "/" + name + ".stim");
    c.golden_output = traffic::CellTrace::load(dir + "/" + name + ".gold");
    suite.add_case(std::move(c));
  }
  return suite;
}

void RegressionSuite::record_goldens(const DeviceBinding& reference) {
  for (RegressionCase& c : cases_) {
    const CaseResult r = reference(c);
    traffic::CellTrace golden;
    for (const atm::Cell& cell : r.output) {
      golden.append({SimTime::zero(), cell});
    }
    c.golden_output = golden;
    c.golden_counters.clear();
    for (const auto& [name, value] : r.counters) {
      c.golden_counters[name] = value;
    }
  }
}

}  // namespace castanet::cosim
