#include "src/lint/diagnostic.hpp"

#include <algorithm>
#include <sstream>

namespace castanet::lint {

const char* to_string(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "?";
}

void Report::add(Diagnostic d) { diags_.push_back(std::move(d)); }

void Report::add(std::string rule, Severity severity, std::string component,
                 std::string location, std::string message,
                 std::string fix_hint) {
  diags_.push_back({std::move(rule), severity, std::move(component),
                    std::move(location), std::move(message),
                    std::move(fix_hint)});
}

std::size_t Report::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

bool Report::has(std::string_view rule) const {
  return std::any_of(diags_.begin(), diags_.end(),
                     [rule](const Diagnostic& d) { return d.rule == rule; });
}

std::vector<const Diagnostic*> Report::by_rule(std::string_view rule) const {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : diags_) {
    if (d.rule == rule) out.push_back(&d);
  }
  return out;
}

void Report::merge(const Report& other) {
  diags_.insert(diags_.end(), other.diags_.begin(), other.diags_.end());
  suppressed_ += other.suppressed_;
}

namespace {

void render_line(std::ostream& os, const Diagnostic& d) {
  os << to_string(d.severity) << "  " << d.rule << " [" << d.component
     << "] " << d.location << ": " << d.message;
  if (!d.fix_hint.empty()) os << " (fix: " << d.fix_hint << ")";
  os << "\n";
}

/// Errors first, then warnings, then notes; stable within a severity so
/// diagnostics keep analyzer order.
std::vector<const Diagnostic*> severity_sorted(
    const std::vector<Diagnostic>& diags) {
  std::vector<const Diagnostic*> ptrs;
  ptrs.reserve(diags.size());
  for (const Diagnostic& d : diags) ptrs.push_back(&d);
  std::stable_sort(ptrs.begin(), ptrs.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     return static_cast<int>(a->severity) >
                            static_cast<int>(b->severity);
                   });
  return ptrs;
}

}  // namespace

std::string Report::to_text() const {
  std::ostringstream os;
  for (const Diagnostic* d : severity_sorted(diags_)) render_line(os, *d);
  os << "castanet-lint: " << errors() << " error(s), " << warnings()
     << " warning(s), " << notes() << " note(s)";
  if (suppressed_) os << ", " << suppressed_ << " suppressed";
  os << "\n";
  return os.str();
}

std::string Report::to_json() const { return to_json_value().dump(2); }

json::Value Report::to_json_value() const {
  json::Array diags;
  for (const Diagnostic* d : severity_sorted(diags_)) {
    json::Object o;
    o.emplace_back("rule", json::Value(d->rule));
    o.emplace_back("severity", json::Value(to_string(d->severity)));
    o.emplace_back("component", json::Value(d->component));
    o.emplace_back("location", json::Value(d->location));
    o.emplace_back("message", json::Value(d->message));
    o.emplace_back("fix_hint", json::Value(d->fix_hint));
    diags.emplace_back(std::move(o));
  }
  json::Object root;
  root.emplace_back("diagnostics", json::Value(std::move(diags)));
  root.emplace_back("errors",
                    json::Value(static_cast<std::int64_t>(errors())));
  root.emplace_back("warnings",
                    json::Value(static_cast<std::int64_t>(warnings())));
  root.emplace_back("notes", json::Value(static_cast<std::int64_t>(notes())));
  root.emplace_back("suppressed",
                    json::Value(static_cast<std::int64_t>(suppressed_)));
  return json::Value(std::move(root));
}

Report Report::from_json(const json::Value& v) {
  const json::Value* diags = v.find("diagnostics");
  if (diags == nullptr || !diags->is_array()) {
    throw LintError("lint JSON: missing \"diagnostics\" array");
  }
  Report r;
  for (const json::Value& e : diags->as_array()) {
    if (!e.is_object()) {
      throw LintError("lint JSON: diagnostic entry is not an object");
    }
    Diagnostic d;
    d.rule = e.string_or("rule", "");
    const std::string sev = e.string_or("severity", "");
    if (sev == "note") {
      d.severity = Severity::kNote;
    } else if (sev == "warning") {
      d.severity = Severity::kWarning;
    } else if (sev == "error") {
      d.severity = Severity::kError;
    } else {
      throw LintError("lint JSON: unknown severity \"" + sev + "\"");
    }
    d.component = e.string_or("component", "");
    d.location = e.string_or("location", "");
    d.message = e.string_or("message", "");
    d.fix_hint = e.string_or("fix_hint", "");
    r.add(std::move(d));
  }
  const std::int64_t sup = v.int_or("suppressed", 0);
  for (std::int64_t i = 0; i < sup; ++i) r.note_suppressed();
  return r;
}

std::string validate_lint_json(const std::string& text) {
  const auto check_one = [](const json::Value& rep) -> std::string {
    const Report r = Report::from_json(rep);
    if (r.to_json_value().dump() != rep.dump()) {
      return "report does not round-trip (unknown keys, mis-ordered "
             "fields, or summary counts inconsistent with the "
             "diagnostics)";
    }
    return "";
  };
  try {
    const json::Value doc = json::parse(text);
    if (!doc.is_object()) return "lint JSON: top level is not an object";
    if (doc.find("diagnostics") != nullptr) return check_one(doc);
    if (doc.as_object().empty()) return "lint JSON: empty document";
    for (const auto& [name, rep] : doc.as_object()) {
      if (!rep.is_object() || rep.find("diagnostics") == nullptr) {
        return "lint JSON: design \"" + name + "\" is not a report object";
      }
      const std::string err = check_one(rep);
      if (!err.empty()) return "design \"" + name + "\": " + err;
    }
    return "";
  } catch (const std::exception& e) {
    return e.what();
  }
}

void Report::throw_if(Severity threshold) const {
  std::ostringstream os;
  std::size_t over = 0;
  for (const Diagnostic* d : severity_sorted(diags_)) {
    if (static_cast<int>(d->severity) >= static_cast<int>(threshold)) {
      ++over;
      render_line(os, *d);
    }
  }
  if (over == 0) return;
  throw LintError("castanet-lint: " + std::to_string(over) +
                  " diagnostic(s) at or above severity '" +
                  to_string(threshold) + "':\n" + os.str());
}

}  // namespace castanet::lint
