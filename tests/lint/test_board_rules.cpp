#include "src/lint/board_rules.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/castanet/board_driver.hpp"
#include "src/core/error.hpp"
#include "tests/board/adder_config.hpp"

namespace castanet::lint {
namespace {

using board::ConfigDataSet;
using board::InportMapping;
using board::IoPortMapping;
using board::OutportMapping;

Report analyze(const ConfigDataSet& cfg) {
  Report report;
  analyze_board_config(cfg, "", report);
  return report;
}

// --- fixtures: one configuration per defect ---------------------------------

/// A minimal valid config: one 8-bit inport on lane 0.
ConfigDataSet base_config() {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 8, {{0, 0, 8}}});
  return cfg;
}

ConfigDataSet with_inport(InportMapping m) {
  ConfigDataSet cfg = base_config();
  cfg.inports.push_back(std::move(m));
  return cfg;
}

ConfigDataSet with_outport(OutportMapping m) {
  ConfigDataSet cfg = base_config();
  cfg.outports.push_back(std::move(m));
  return cfg;
}

ConfigDataSet lane_out_of_range() {
  return with_inport({1, 8, {{16, 0, 8}}});  // lane 16 of 0..15
}

ConfigDataSet slice_overflows_lane() {
  return with_inport({1, 4, {{1, 6, 4}}});  // bits [6, 10) of an 8-pin lane
}

ConfigDataSet zero_width_slice() { return with_inport({1, 0, {{1, 0, 0}}}); }

ConfigDataSet width_slice_sum_mismatch() {
  return with_inport({1, 8, {{1, 0, 4}}});  // declares 8, covers 4
}

/// Nine whole lanes: the slices agree with the width, but a port value is
/// one uint64_t.
ConfigDataSet port_wider_than_64_bits() {
  ConfigDataSet cfg;
  std::vector<board::LaneSlice> lanes;
  for (std::uint8_t l = 0; l < 9; ++l) lanes.push_back({l, 0, 8});
  cfg.inports.push_back({0, 72, lanes});
  cfg.ioports.push_back({0, 0, 0, 72, 1});
  return cfg;
}

/// Inport 1 on lane 0 bits 4..7, which inport 0 already claims.
ConfigDataSet overlapping_tester_pins() {
  return with_inport({1, 4, {{0, 4, 4}}});
}

/// An outport on the same pins as an inport: the bidirectional-bus
/// pattern, not an overlap.
ConfigDataSet opposite_directions_on_shared_pins() {
  return with_outport({0, 8, {{0, 0, 8}}});
}

/// The same shared pins, paired through an I/O port with a 1-bit
/// direction ctrlport.
ConfigDataSet shared_bidirectional_pins() {
  ConfigDataSet cfg = opposite_directions_on_shared_pins();
  cfg.ctrlports.push_back({0, 1, {{1, 0, 1}}, 0});
  cfg.ioports.push_back({0, 0, 0, 8, 1});
  return cfg;
}

ConfigDataSet ctrl_write_value_overflow() {
  ConfigDataSet cfg = base_config();
  cfg.ctrlports.push_back({0, 2, {{2, 0, 2}}, /*write_value=*/5});
  return cfg;
}

ConfigDataSet duplicate_port_ids() {
  return with_inport({0, 4, {{1, 0, 4}}});  // inport 0 declared twice
}

ConfigDataSet io_port_dangling_references() {
  ConfigDataSet cfg = base_config();
  cfg.ioports.push_back({/*inport=*/7, /*outport=*/8, /*ctrlport=*/9,
                         /*width=*/8});
  return cfg;
}

ConfigDataSet io_port_width_mismatch() {
  ConfigDataSet cfg = with_outport({0, 4, {{1, 0, 4}}});
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  cfg.ioports.push_back({0, 0, 0, /*width=*/8});  // outport is 4 bits wide
  return cfg;
}

ConfigDataSet unreachable_direction_flag() {
  ConfigDataSet cfg = with_outport({0, 8, {{1, 0, 8}}});
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  IoPortMapping io{0, 0, 0, 8};
  io.dut_drives_value = 2;  // needs 2 bits, ctrlport has 1
  cfg.ioports.push_back(io);
  return cfg;
}

ConfigDataSet shared_ctrlport_with_disagreeing_flags() {
  ConfigDataSet cfg = with_inport({1, 8, {{3, 0, 8}}});
  cfg.outports.push_back({0, 8, {{1, 0, 8}}});
  cfg.outports.push_back({1, 8, {{4, 0, 8}}});
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  cfg.ioports.push_back({0, 0, 0, 8});  // dut_drives_value = 1 (default)
  IoPortMapping io2{1, 1, 0, 8};
  io2.dut_drives_value = 0;             // same ctrlport, opposite flag
  cfg.ioports.push_back(io2);
  return cfg;
}

/// Two ioports pair inport 0, each with its own direction ctrlport.
ConfigDataSet ioports_sharing_an_inport() {
  ConfigDataSet cfg = base_config();
  cfg.outports.push_back({0, 8, {{1, 0, 8}}});
  cfg.outports.push_back({1, 8, {{2, 0, 8}}});
  cfg.ctrlports.push_back({0, 1, {{3, 0, 1}}, 1});
  cfg.ctrlports.push_back({1, 1, {{3, 1, 1}}, 0});
  cfg.ioports.push_back({0, 0, 0, 8});
  cfg.ioports.push_back({0, 1, 1, 8});
  return cfg;
}

ConfigDataSet zero_gating_factor() {
  ConfigDataSet cfg = base_config();
  cfg.gating_factor = 0;
  return cfg;
}

ConfigDataSet outport_on_missing_lane() {
  return with_outport({0, 4, {{99, 0, 4}}});  // lane 99 does not exist
}

ConfigDataSet slice_wider_than_a_lane() {
  return with_inport({1, 9, {{0, 4, 9}}});  // nbits > 8: no lane fits
}

ConfigDataSet inport_and_outport() {
  return with_outport({2, 4, {{1, 0, 4}}});
}

/// Three independent defect classes at once.
ConfigDataSet many_defects() {
  ConfigDataSet cfg;
  cfg.gating_factor = 0;
  cfg.inports.push_back({0, 8, {{16, 0, 8}}});
  cfg.inports.push_back({0, 0, {}});
  return cfg;
}

// --- board rules ------------------------------------------------------------

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
  const Report r = analyze(lane_out_of_range());
  ASSERT_TRUE(r.has("BRD-LANE-RANGE"));
  EXPECT_EQ(r.by_rule("BRD-LANE-RANGE").front()->severity, Severity::kError);
}

TEST(BoardRules, SliceOverflowsLane) {
  const Report r = analyze(slice_overflows_lane());
  EXPECT_TRUE(r.has("BRD-LANE-RANGE"));
}

TEST(BoardRules, ZeroWidthSlice) {
  const Report r = analyze(zero_width_slice());
  EXPECT_TRUE(r.has("BRD-WIDTH"));
  EXPECT_TRUE(r.has("BRD-LANE-RANGE"));
}

TEST(BoardRules, WidthSliceSumMismatch) {
  const Report r = analyze(width_slice_sum_mismatch());
  ASSERT_TRUE(r.has("BRD-WIDTH"));
  EXPECT_EQ(r.by_rule("BRD-WIDTH").front()->severity, Severity::kError);
}

TEST(BoardRules, PortWiderThan64Bits) {
  const Report r = analyze(port_wider_than_64_bits());
  ASSERT_EQ(r.by_rule("BRD-WIDTH").size(), 2u) << r.to_text();
  EXPECT_EQ(r.by_rule("BRD-WIDTH").front()->severity, Severity::kError);
  EXPECT_EQ(r.by_rule("BRD-WIDTH").back()->location, "ioport #0");
}

TEST(BoardRules, OverlappingTesterDrivenPins) {
  const Report r = analyze(overlapping_tester_pins());
  ASSERT_TRUE(r.has("BRD-PIN-OVERLAP"));
  EXPECT_EQ(r.by_rule("BRD-PIN-OVERLAP").size(), 4u);  // one per pin
}

TEST(BoardRules, OppositeDirectionsMaySharePins) {
  const Report r = analyze(opposite_directions_on_shared_pins());
  EXPECT_FALSE(r.has("BRD-PIN-OVERLAP"));
}

TEST(BoardRules, CtrlWriteValueOverflow) {
  const Report r = analyze(ctrl_write_value_overflow());
  ASSERT_TRUE(r.has("BRD-VALUE-OVERFLOW"));
  EXPECT_EQ(r.by_rule("BRD-VALUE-OVERFLOW").front()->severity,
            Severity::kError);
}

TEST(BoardRules, DuplicatePortIds) {
  const Report r = analyze(duplicate_port_ids());
  ASSERT_TRUE(r.has("BRD-DUP-PORT"));
  EXPECT_EQ(r.by_rule("BRD-DUP-PORT").front()->severity, Severity::kError);
}

TEST(BoardRules, IoPortDanglingReferences) {
  const Report r = analyze(io_port_dangling_references());
  EXPECT_EQ(r.by_rule("BRD-IO-REF").size(), 3u);  // in, out and ctrl dangle
}

TEST(BoardRules, IoPortWidthMismatch) {
  const Report r = analyze(io_port_width_mismatch());
  ASSERT_TRUE(r.has("BRD-IO-WIDTH"));
}

TEST(BoardRules, UnreachableDirectionFlag) {
  const Report r = analyze(unreachable_direction_flag());
  ASSERT_TRUE(r.has("BRD-CTRL-CONFLICT"));
}

TEST(BoardRules, SharedCtrlportWithDisagreeingFlags) {
  const Report r = analyze(shared_ctrlport_with_disagreeing_flags());
  ASSERT_TRUE(r.has("BRD-CTRL-CONFLICT"));
}

TEST(BoardRules, IoPortsSharingAnInport) {
  const Report r = analyze(ioports_sharing_an_inport());
  ASSERT_EQ(r.diagnostics().size(), 1u) << r.to_text();
  const Diagnostic& d = r.diagnostics().front();
  EXPECT_EQ(d.rule, "BRD-IO-SHARED");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.location, "ioport #1");
}

TEST(BoardRules, ZeroGatingFactor) {
  const Report r = analyze(zero_gating_factor());
  ASSERT_TRUE(r.has("BRD-GATING"));
  EXPECT_EQ(r.by_rule("BRD-GATING").front()->severity, Severity::kError);
}

TEST(BoardRules, CollectsEveryFindingInsteadOfThrowing) {
  const Report r = analyze(many_defects());
  EXPECT_TRUE(r.has("BRD-GATING"));
  EXPECT_TRUE(r.has("BRD-LANE-RANGE"));
  EXPECT_TRUE(r.has("BRD-WIDTH"));
  EXPECT_TRUE(r.has("BRD-DUP-PORT"));
}

TEST(BoardRules, ValidateAgreesWithTheLint) {
  // One rule set: the runtime gate throws exactly when the lint reports,
  // and it throws the lint's first finding.
  const std::vector<std::function<ConfigDataSet()>> configs = {
      base_config,
      lane_out_of_range,
      slice_overflows_lane,
      zero_width_slice,
      width_slice_sum_mismatch,
      port_wider_than_64_bits,
      overlapping_tester_pins,
      opposite_directions_on_shared_pins,
      shared_bidirectional_pins,
      ctrl_write_value_overflow,
      duplicate_port_ids,
      io_port_dangling_references,
      io_port_width_mismatch,
      unreachable_direction_flag,
      shared_ctrlport_with_disagreeing_flags,
      ioports_sharing_an_inport,
      zero_gating_factor,
      outport_on_missing_lane,
      slice_wider_than_a_lane,
      inport_and_outport,
      many_defects,
      [] { return cosim::make_cell_stream_config(); },
      board::adder_config,
  };
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE("config #" + std::to_string(i));
    const ConfigDataSet cfg = configs[i]();
    const Report r = analyze(cfg);
    if (r.empty()) {
      EXPECT_NO_THROW(cfg.validate());
      continue;
    }
    const Diagnostic& first = r.diagnostics().front();
    try {
      cfg.validate();
      ADD_FAILURE() << "validate() accepted: " << r.to_text();
    } catch (const ConfigError& e) {
      EXPECT_EQ(std::string(e.what()), first.location + ": " + first.message);
    }
  }
}

// --- pin remap proposals ----------------------------------------------------

TEST(BoardRemap, CleanConfigProposesNothing) {
  const PinRemap remap = propose_pin_remap(base_config());
  EXPECT_FALSE(remap.changed);
  EXPECT_TRUE(remap.complete);
  EXPECT_TRUE(remap.moves.empty());
}

TEST(BoardRemap, SharedBidirectionalPinsProposeNothing) {
  // The board accepts opposite directions on one pin, so the remap must
  // not move either half of the bus.
  const ConfigDataSet cfg = shared_bidirectional_pins();
  ASSERT_NO_THROW(cfg.validate());
  const PinRemap remap = propose_pin_remap(cfg);
  EXPECT_FALSE(remap.changed);
  EXPECT_TRUE(remap.moves.empty());
}

TEST(BoardRemap, OverlapMovesSecondClaimantToFreeRun) {
  // inport 0 keeps lane 0 bits 0..8; inport 1 collides on bits 4..7.
  const PinRemap remap = propose_pin_remap(overlapping_tester_pins());
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
  const PinRemap remap = propose_pin_remap(outport_on_missing_lane());
  ASSERT_TRUE(remap.changed);
  ASSERT_EQ(remap.moves.size(), 1u);
  EXPECT_EQ(remap.moves.front().port, "outport 0");
  EXPECT_LT(remap.moves.front().to.byte_lane, board::kByteLanes);
  const Report r = analyze(remap.patched);
  EXPECT_FALSE(r.has("BRD-LANE-RANGE"));
  EXPECT_FALSE(r.has("BRD-PIN-OVERLAP"));
}

TEST(BoardRemap, InvalidWidthSliceCannotBePlaced) {
  const PinRemap remap = propose_pin_remap(slice_wider_than_a_lane());
  // Nothing was applied (changed stays false), but the failure is recorded:
  // the config cannot be auto-fixed.
  EXPECT_FALSE(remap.changed);
  EXPECT_FALSE(remap.complete);
  ASSERT_EQ(remap.moves.size(), 1u);
  EXPECT_FALSE(remap.moves.front().ok);
}

TEST(BoardRemap, OverlapDiagnosticCarriesTheProposal) {
  const Report r = analyze(overlapping_tester_pins());
  ASSERT_TRUE(r.has("BRD-PIN-OVERLAP"));
  const std::string& hint = r.by_rule("BRD-PIN-OVERLAP").front()->fix_hint;
  EXPECT_NE(hint.find("proposed remap"), std::string::npos);
  EXPECT_NE(hint.find("--fix-dry-run"), std::string::npos);
}

TEST(BoardRemap, RenderShowsEveryMapping) {
  const std::string text = render_board_config(inport_and_outport());
  EXPECT_NE(text.find("inport 0"), std::string::npos);
  EXPECT_NE(text.find("outport 2"), std::string::npos);
  EXPECT_NE(text.find("lane 0 bits [0..8)"), std::string::npos);
  EXPECT_NE(text.find("lane 1 bits [0..4)"), std::string::npos);
}

}  // namespace
}  // namespace castanet::lint
