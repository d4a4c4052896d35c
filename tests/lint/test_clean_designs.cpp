// Acceptance gate: the two shipped example designs must elaborate with zero
// error- and zero warning-severity lint diagnostics, at full probe depth and
// under a strict analyze_session.  (Notes — tri-state buses, tie-offs,
// topology classification — are expected and allowed.)
#include <gtest/gtest.h>

#include "examples/rigs/accounting_rig.hpp"
#include "examples/rigs/switch_rig.hpp"
#include "src/lint/lint.hpp"

namespace castanet::lint {
namespace {

TEST(CleanDesigns, SwitchCoverifyRigIsClean) {
  rigs::SwitchRig rig;
  const Report r = analyze_session(rig.session);
  EXPECT_EQ(r.errors(), 0u) << r.to_text();
  EXPECT_EQ(r.warnings(), 0u) << r.to_text();
}

TEST(CleanDesigns, BoardInTheLoopRigIsClean) {
  rigs::AccountingRig rig;
  const Report r = analyze_session(*rig.session);
  EXPECT_EQ(r.errors(), 0u) << r.to_text();
  EXPECT_EQ(r.warnings(), 0u) << r.to_text();
}

TEST(CleanDesigns, StrictAnalysisDoesNotThrowOnShippedDesigns) {
  Options opts;
  opts.strict = true;
  rigs::SwitchRig rig;
  EXPECT_NO_THROW(analyze_session(rig.session, opts));
}

}  // namespace
}  // namespace castanet::lint
