#include "src/lint/diagnostic.hpp"

#include <gtest/gtest.h>

namespace castanet::lint {
namespace {

Diagnostic mk(const char* rule, Severity sev) {
  return {rule, sev, "netlist", "signal 's'", "message", "hint"};
}

TEST(Report, CountsPerSeverity) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  r.add(mk("NET-B", Severity::kWarning));
  r.add(mk("NET-B", Severity::kWarning));
  r.add(mk("NET-C", Severity::kNote));
  EXPECT_EQ(r.errors(), 1u);
  EXPECT_EQ(r.warnings(), 2u);
  EXPECT_EQ(r.notes(), 1u);
  EXPECT_FALSE(r.empty());
  EXPECT_EQ(r.diagnostics().size(), 4u);
}

TEST(Report, HasAndByRule) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  r.add(mk("NET-B", Severity::kNote));
  r.add(mk("NET-B", Severity::kNote));
  EXPECT_TRUE(r.has("NET-A"));
  EXPECT_TRUE(r.has("NET-B"));
  EXPECT_FALSE(r.has("NET-C"));
  EXPECT_EQ(r.by_rule("NET-B").size(), 2u);
  EXPECT_EQ(r.by_rule("NET-C").size(), 0u);
}

TEST(Report, MergeAppends) {
  Report a;
  a.add(mk("NET-A", Severity::kError));
  Report b;
  b.add(mk("BRD-B", Severity::kWarning));
  a.merge(b);
  EXPECT_EQ(a.diagnostics().size(), 2u);
  EXPECT_TRUE(a.has("BRD-B"));
}

TEST(Report, TextOrdersErrorsFirstAndSummarizes) {
  Report r;
  r.add(mk("NET-NOTE", Severity::kNote));
  r.add(mk("NET-ERR", Severity::kError));
  r.add(mk("NET-WARN", Severity::kWarning));
  const std::string text = r.to_text();
  const auto err = text.find("NET-ERR");
  const auto warn = text.find("NET-WARN");
  const auto note = text.find("NET-NOTE");
  ASSERT_NE(err, std::string::npos);
  ASSERT_NE(warn, std::string::npos);
  ASSERT_NE(note, std::string::npos);
  EXPECT_LT(err, warn);
  EXPECT_LT(warn, note);
  EXPECT_NE(text.find("1 error(s), 1 warning(s), 1 note(s)"),
            std::string::npos);
  EXPECT_NE(text.find("(fix: hint)"), std::string::npos);
}

TEST(Report, JsonEscapesAndCounts) {
  Report r;
  r.add({"NET-A", Severity::kError, "netlist", "signal \"q\"", "line1\nline2",
         ""});
  const std::string js = r.to_json();
  EXPECT_NE(js.find("\\\"q\\\""), std::string::npos);
  EXPECT_NE(js.find("\\n"), std::string::npos);
  EXPECT_NE(js.find("\"errors\": 1"), std::string::npos);
  EXPECT_NE(js.find("\"severity\": \"error\""), std::string::npos);
}

TEST(Report, EmptyJsonIsWellFormed) {
  Report r;
  const std::string js = r.to_json();
  EXPECT_NE(js.find("\"diagnostics\": []"), std::string::npos);
  EXPECT_NE(js.find("\"errors\": 0"), std::string::npos);
}

TEST(Report, ThrowIfRespectsThreshold) {
  Report r;
  r.add(mk("NET-WARN", Severity::kWarning));
  EXPECT_NO_THROW(r.throw_if(Severity::kError));
  EXPECT_THROW(r.throw_if(Severity::kWarning), LintError);
  try {
    r.throw_if(Severity::kNote);
  } catch (const LintError& e) {
    EXPECT_NE(std::string(e.what()).find("NET-WARN"), std::string::npos);
  }
}

TEST(Report, CleanReportNeverThrows) {
  Report r;
  EXPECT_NO_THROW(r.throw_if(Severity::kNote));
}

// --- JSON schema / structural round-trip ------------------------------------

TEST(ReportJson, ValueRoundTripPreservesEverything) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  r.add({"DF-STUCK", Severity::kWarning, "dataflow", "rtl: signal 'y'",
         "provably constant", "tie it off"});
  const Report back = Report::from_json(r.to_json_value());
  EXPECT_EQ(back.to_json_value().dump(), r.to_json_value().dump());
  EXPECT_EQ(back.diagnostics().size(), 2u);
  EXPECT_TRUE(back.has("DF-STUCK"));
  EXPECT_EQ(back.by_rule("DF-STUCK").front()->fix_hint, "tie it off");
}

TEST(ReportJson, ValidateAcceptsMultiDesignWrapper) {
  Report a;
  a.add(mk("NET-A", Severity::kWarning));
  const std::string doc =
      "{\"switch\": " + a.to_json() + ", \"board\": " + Report().to_json() +
      "}";
  EXPECT_EQ(validate_lint_json(doc), "");
}

TEST(ReportJson, ValidateRejectsTamperedCounts) {
  Report r;
  r.add(mk("NET-A", Severity::kError));
  std::string js = r.to_json();
  const auto pos = js.find("\"errors\": 1");
  ASSERT_NE(pos, std::string::npos);
  js.replace(pos, 11, "\"errors\": 0");
  EXPECT_NE(validate_lint_json(js), "");
}

TEST(ReportJson, ValidateRejectsUnknownKeysAndGarbage) {
  Report r;
  std::string js = r.to_json();
  ASSERT_EQ(js.back(), '}');
  js.pop_back();
  js += ", \"extra\": true}";
  EXPECT_NE(validate_lint_json(js), "");
  EXPECT_NE(validate_lint_json("not json"), "");
  EXPECT_NE(validate_lint_json("[]"), "");
  EXPECT_NE(validate_lint_json("{}"), "");
  EXPECT_NE(validate_lint_json("{\"switch\": 3}"), "");
}

TEST(ReportJson, FromJsonRejectsMalformedReports) {
  EXPECT_THROW(Report::from_json(json::parse("{}")), LintError);
  EXPECT_THROW(
      Report::from_json(json::parse(
          "{\"diagnostics\": [{\"rule\": \"X\", \"severity\": \"fatal\"}], "
          "\"errors\": 0, \"warnings\": 0, \"notes\": 0}")),
      LintError);
}

TEST(Severity, ToString) {
  EXPECT_STREQ(to_string(Severity::kNote), "note");
  EXPECT_STREQ(to_string(Severity::kWarning), "warning");
  EXPECT_STREQ(to_string(Severity::kError), "error");
}

}  // namespace
}  // namespace castanet::lint
