#include "src/lint/board_rules.hpp"

#include <gtest/gtest.h>

#include "src/castanet/board_driver.hpp"

namespace castanet::lint {
namespace {

using board::ConfigDataSet;
using board::CtrlportMapping;
using board::InportMapping;
using board::IoPortMapping;
using board::OutportMapping;

Report analyze(const ConfigDataSet& cfg) {
  Report report;
  analyze_board_config(cfg, "", report);
  return report;
}

/// A minimal valid config: one 8-bit inport on lane 0.
ConfigDataSet base_config() {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 8, {{0, 0, 8}}});
  return cfg;
}

TEST(BoardRules, CleanConfigHasNoDiagnostics) {
  const Report r = analyze(base_config());
  EXPECT_TRUE(r.empty()) << r.to_text();
}

TEST(BoardRules, ShippedCellStreamConfigIsClean) {
  const Report r = analyze(cosim::make_cell_stream_config());
  EXPECT_EQ(r.errors(), 0u) << r.to_text();
  EXPECT_EQ(r.warnings(), 0u) << r.to_text();
}

TEST(BoardRules, LaneOutOfRange) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 8, {{16, 0, 8}}});  // lane 16 of 0..15
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-LANE-RANGE"));
  EXPECT_EQ(r.by_rule("BRD-LANE-RANGE").front()->severity, Severity::kError);
}

TEST(BoardRules, SliceOverflowsLane) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 4, {{1, 6, 4}}});  // bits [6, 10) of an 8-pin lane
  const Report r = analyze(cfg);
  EXPECT_TRUE(r.has("BRD-LANE-RANGE"));
}

TEST(BoardRules, ZeroWidthSlice) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 0, {{1, 0, 0}}});
  const Report r = analyze(cfg);
  EXPECT_TRUE(r.has("BRD-WIDTH"));
  EXPECT_TRUE(r.has("BRD-LANE-RANGE"));
}

TEST(BoardRules, WidthSliceSumMismatch) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 8, {{1, 0, 4}}});  // declares 8, covers 4
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-WIDTH"));
  EXPECT_EQ(r.by_rule("BRD-WIDTH").front()->severity, Severity::kError);
}

TEST(BoardRules, PortWiderThan64Bits) {
  // Nine whole lanes: the slices agree with the width, but a port value is
  // one uint64_t.
  ConfigDataSet cfg;
  std::vector<board::LaneSlice> lanes;
  for (std::uint8_t l = 0; l < 9; ++l) lanes.push_back({l, 0, 8});
  cfg.inports.push_back({0, 72, lanes});
  cfg.ioports.push_back({0, 0, 0, 72, 1});
  const Report r = analyze(cfg);
  ASSERT_EQ(r.by_rule("BRD-WIDTH").size(), 2u) << r.to_text();
  EXPECT_EQ(r.by_rule("BRD-WIDTH").front()->severity, Severity::kError);
  EXPECT_EQ(r.by_rule("BRD-WIDTH").back()->location, "ioport #0");
}

TEST(BoardRules, OverlappingTesterDrivenPins) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 4, {{0, 4, 4}}});  // lane 0 bits 4..7 again? no:
  // base claims lane 0 bits 0..7, so bits 4..7 collide.
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-PIN-OVERLAP"));
  EXPECT_EQ(r.by_rule("BRD-PIN-OVERLAP").size(), 4u);  // one per pin
}

TEST(BoardRules, OppositeDirectionsMaySharePins) {
  // An outport on the same pins as an inport is the bidirectional-bus
  // pattern (paired through an ioport), not an overlap.
  ConfigDataSet cfg = base_config();
  cfg.outports.push_back({0, 8, {{0, 0, 8}}});
  const Report r = analyze(cfg);
  EXPECT_FALSE(r.has("BRD-PIN-OVERLAP"));
}

TEST(BoardRules, CtrlWriteValueOverflow) {
  ConfigDataSet cfg = base_config();
  cfg.ctrlports.push_back({0, 2, {{2, 0, 2}}, /*write_value=*/5});
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-VALUE-OVERFLOW"));
  EXPECT_EQ(r.by_rule("BRD-VALUE-OVERFLOW").front()->severity,
            Severity::kError);
}

TEST(BoardRules, DuplicatePortIds) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({0, 4, {{1, 0, 4}}});  // inport 0 declared twice
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-DUP-PORT"));
  EXPECT_EQ(r.by_rule("BRD-DUP-PORT").front()->severity, Severity::kError);
}

TEST(BoardRules, IoPortDanglingReferences) {
  ConfigDataSet cfg = base_config();
  cfg.ioports.push_back({/*inport=*/7, /*outport=*/8, /*ctrlport=*/9,
                         /*width=*/8});
  const Report r = analyze(cfg);
  EXPECT_EQ(r.by_rule("BRD-IO-REF").size(), 3u);  // in, out and ctrl dangle
}

TEST(BoardRules, IoPortWidthMismatch) {
  ConfigDataSet cfg = base_config();
  cfg.outports.push_back({0, 4, {{1, 0, 4}}});
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  cfg.ioports.push_back({0, 0, 0, /*width=*/8});  // outport is 4 bits wide
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-IO-WIDTH"));
}

TEST(BoardRules, UnreachableDirectionFlag) {
  ConfigDataSet cfg = base_config();
  cfg.outports.push_back({0, 8, {{1, 0, 8}}});
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  IoPortMapping io{0, 0, 0, 8};
  io.dut_drives_value = 2;  // needs 2 bits, ctrlport has 1
  cfg.ioports.push_back(io);
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-CTRL-CONFLICT"));
}

TEST(BoardRules, SharedCtrlportWithDisagreeingFlags) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 8, {{3, 0, 8}}});
  cfg.outports.push_back({0, 8, {{1, 0, 8}}});
  cfg.outports.push_back({1, 8, {{4, 0, 8}}});
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  cfg.ioports.push_back({0, 0, 0, 8});      // dut_drives_value = 1 (default)
  IoPortMapping io2{1, 1, 0, 8};
  io2.dut_drives_value = 0;                 // same ctrlport, opposite flag
  cfg.ioports.push_back(io2);
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-CTRL-CONFLICT"));
}

TEST(BoardRules, ZeroGatingFactor) {
  ConfigDataSet cfg = base_config();
  cfg.gating_factor = 0;
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-GATING"));
  EXPECT_EQ(r.by_rule("BRD-GATING").front()->severity, Severity::kError);
}

// --- pin remap proposals ----------------------------------------------------

TEST(BoardRemap, CleanConfigProposesNothing) {
  const PinRemap remap = propose_pin_remap(base_config());
  EXPECT_FALSE(remap.changed);
  EXPECT_TRUE(remap.complete);
  EXPECT_TRUE(remap.moves.empty());
}

TEST(BoardRemap, OverlapMovesSecondClaimantToFreeRun) {
  ConfigDataSet cfg = base_config();            // inport 0: lane 0 bits 0..8
  cfg.inports.push_back({1, 4, {{0, 4, 4}}});   // collides on bits 4..7
  const PinRemap remap = propose_pin_remap(cfg);
  ASSERT_TRUE(remap.changed);
  EXPECT_TRUE(remap.complete);
  ASSERT_EQ(remap.moves.size(), 1u);
  const SliceMove& m = remap.moves.front();
  EXPECT_EQ(m.port, "inport 1");
  EXPECT_EQ(m.slice_index, 0u);
  EXPECT_TRUE(m.ok);
  // First claimant keeps its pins; the mover lands outside lane 0's low 8.
  EXPECT_FALSE(m.to.byte_lane == 0 && m.to.start_bit < 8);
  // The patched config is actually fixed, not just annotated.
  const Report r = analyze(remap.patched);
  EXPECT_FALSE(r.has("BRD-PIN-OVERLAP"));
  EXPECT_FALSE(r.has("BRD-LANE-RANGE"));
}

TEST(BoardRemap, OutOfRangeLaneIsBroughtBackInRange) {
  ConfigDataSet cfg = base_config();
  cfg.outports.push_back({0, 4, {{99, 0, 4}}});  // lane 99 does not exist
  const PinRemap remap = propose_pin_remap(cfg);
  ASSERT_TRUE(remap.changed);
  ASSERT_EQ(remap.moves.size(), 1u);
  EXPECT_EQ(remap.moves.front().port, "outport 0");
  EXPECT_LT(remap.moves.front().to.byte_lane, board::kByteLanes);
  const Report r = analyze(remap.patched);
  EXPECT_FALSE(r.has("BRD-LANE-RANGE"));
  EXPECT_FALSE(r.has("BRD-PIN-OVERLAP"));
}

TEST(BoardRemap, InvalidWidthSliceCannotBePlaced) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 9, {{0, 4, 9}}});  // nbits > 8: no lane fits
  const PinRemap remap = propose_pin_remap(cfg);
  // Nothing was applied (changed stays false), but the failure is recorded:
  // the config cannot be auto-fixed.
  EXPECT_FALSE(remap.changed);
  EXPECT_FALSE(remap.complete);
  ASSERT_EQ(remap.moves.size(), 1u);
  EXPECT_FALSE(remap.moves.front().ok);
}

TEST(BoardRemap, OverlapDiagnosticCarriesTheProposal) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back({1, 4, {{0, 4, 4}}});
  const Report r = analyze(cfg);
  ASSERT_TRUE(r.has("BRD-PIN-OVERLAP"));
  const std::string& hint = r.by_rule("BRD-PIN-OVERLAP").front()->fix_hint;
  EXPECT_NE(hint.find("proposed remap"), std::string::npos);
  EXPECT_NE(hint.find("--fix-dry-run"), std::string::npos);
}

TEST(BoardRemap, RenderShowsEveryMapping) {
  ConfigDataSet cfg = base_config();
  cfg.outports.push_back({2, 4, {{1, 0, 4}}});
  const std::string text = render_board_config(cfg);
  EXPECT_NE(text.find("inport 0"), std::string::npos);
  EXPECT_NE(text.find("outport 2"), std::string::npos);
  EXPECT_NE(text.find("lane 0 bits [0..8)"), std::string::npos);
  EXPECT_NE(text.find("lane 1 bits [0..4)"), std::string::npos);
}

TEST(BoardRules, CollectsEveryFindingInsteadOfThrowing) {
  ConfigDataSet cfg;
  cfg.gating_factor = 0;
  cfg.inports.push_back({0, 8, {{16, 0, 8}}});
  cfg.inports.push_back({0, 0, {}});
  const Report r = analyze(cfg);
  // Three independent defect classes, one pass.
  EXPECT_TRUE(r.has("BRD-GATING"));
  EXPECT_TRUE(r.has("BRD-LANE-RANGE"));
  EXPECT_TRUE(r.has("BRD-WIDTH"));
  EXPECT_TRUE(r.has("BRD-DUP-PORT"));
}

}  // namespace
}  // namespace castanet::lint
