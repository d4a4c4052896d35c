// The diagnostic model of castanet-lint (DESIGN.md §10).
//
// Every analyzer finding is a Diagnostic: a stable rule ID, a severity, the
// analyzer family it came from, the elaborated object it points at, a
// message and an optional fix hint.  A Report collects diagnostics across
// analyzer families, renders them as text or JSON (for the castanet_lint
// CLI), and can promote errors to exceptions (analyze_session with
// Options::strict).
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/error.hpp"
#include "src/core/json.hpp"

namespace castanet::lint {

enum class Severity { kNote, kWarning, kError };

const char* to_string(Severity s);

struct Diagnostic {
  std::string rule;       ///< stable rule ID, e.g. "NET-COMB-LOOP"
  Severity severity = Severity::kWarning;
  std::string component;  ///< analyzer family: "netlist", "board", "sync"
  std::string location;   ///< elaborated object, e.g. "signal 'sw.rx0.state'"
  std::string message;    ///< what is wrong
  std::string fix_hint;   ///< how to fix it (optional)
};

/// Thrown by Report::throw_if (Options::strict): static analysis found
/// diagnostics at or above the requested severity.
class LintError : public Error {
 public:
  explicit LintError(const std::string& what) : Error(what) {}
};

class Report {
 public:
  void add(Diagnostic d);
  /// Convenience builder used by the analyzers.
  void add(std::string rule, Severity severity, std::string component,
           std::string location, std::string message,
           std::string fix_hint = "");

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::size_t count(Severity s) const;
  std::size_t errors() const { return count(Severity::kError); }
  std::size_t warnings() const { return count(Severity::kWarning); }
  std::size_t notes() const { return count(Severity::kNote); }
  bool empty() const { return diags_.empty(); }

  /// True if any diagnostic carries rule ID `rule`.
  bool has(std::string_view rule) const;
  /// All diagnostics with rule ID `rule`.
  std::vector<const Diagnostic*> by_rule(std::string_view rule) const;

  /// Appends another report's diagnostics (CLI: one report per rig).
  void merge(const Report& other);

  /// One line per diagnostic — "severity rule [component] location: message
  /// (fix: ...)" — ordered errors first, then a summary line.
  std::string to_text() const;
  /// to_json_value().dump(2).
  std::string to_json() const;
  /// Machine-readable form: {"diagnostics": [...], "errors": N, ...}, in
  /// that field order (the CLI --json schema gate round-trips it).
  json::Value to_json_value() const;
  /// Rebuilds a report from to_json()/to_json_value() output.  Throws
  /// LintError when the document is not a lint report (missing
  /// "diagnostics", unknown severity).
  static Report from_json(const json::Value& v);

  /// Throws LintError listing the offending diagnostics when any diagnostic
  /// has severity >= `threshold` (analyze_session with Options::strict).
  void throw_if(Severity threshold) const;

 private:
  std::vector<Diagnostic> diags_;
};

/// Schema gate for CLI lint JSON (castanet_lint --json / --validate).
/// Accepts a bare report document or an object of design-name -> report,
/// checks structural identity the way castanet_report --validate does:
/// every report must parse back (Report::from_json) and re-serialize to the
/// same document — unknown keys, mis-ordered fields or summary counts that
/// disagree with the diagnostics all fail.  Returns "" when valid, else a
/// one-line description of the first problem.
std::string validate_lint_json(const std::string& text);

}  // namespace castanet::lint
