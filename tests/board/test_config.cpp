#include "src/board/config.hpp"

#include <gtest/gtest.h>

#include "src/core/error.hpp"

namespace castanet::board {
namespace {

ConfigDataSet minimal_config() {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 8, {{0, 0, 8}}});
  cfg.outports.push_back({0, 8, {{1, 0, 8}}});
  return cfg;
}

TEST(BoardConfig, DimensionsMatchPaper) {
  EXPECT_EQ(kByteLanes, 16u);
  EXPECT_EQ(kPins, 128u);
  EXPECT_EQ(kMaxBoardClockHz, 20'000'000u);
  EXPECT_EQ(kMaxTestCycle, 1u << 20);
}

TEST(BoardConfig, MinimalValidates) {
  EXPECT_NO_THROW(minimal_config().validate());
}

TEST(BoardConfig, WidthMismatchRejected) {
  ConfigDataSet cfg = minimal_config();
  cfg.inports[0].width = 7;  // slices still cover 8 bits
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, LaneOutOfRangeRejected) {
  ConfigDataSet cfg = minimal_config();
  cfg.inports[0].slices[0].byte_lane = 16;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, SliceBeyondLaneWidthRejected) {
  ConfigDataSet cfg = minimal_config();
  cfg.inports[0].slices[0] = {0, 4, 6};  // bits 4..9 of an 8-bit lane
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, OverlappingTesterPinsRejected) {
  ConfigDataSet cfg = minimal_config();
  cfg.inports.push_back({1, 4, {{0, 4, 4}}});  // overlaps inport 0 bits 4..7
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, DuplicatePortIdRejected) {
  ConfigDataSet cfg = minimal_config();
  cfg.inports.push_back({0, 4, {{2, 0, 4}}});  // inport 0 declared twice
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, DisjointSlicesOnSameLaneAccepted) {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 4, {{0, 0, 4}}});
  cfg.inports.push_back({1, 4, {{0, 4, 4}}});
  EXPECT_NO_THROW(cfg.validate());
}

TEST(BoardConfig, MultiLanePortAccepted) {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 16, {{0, 0, 8}, {1, 0, 8}}});
  EXPECT_NO_THROW(cfg.validate());
}

/// A `width`-bit port on whole byte lanes from `first_lane` up.
std::vector<LaneSlice> whole_lanes(unsigned first_lane, unsigned width) {
  std::vector<LaneSlice> slices;
  for (unsigned b = 0; b < width; b += 8) {
    slices.push_back({static_cast<std::uint8_t>(first_lane + b / 8), 0, 8});
  }
  return slices;
}

TEST(BoardConfig, SixtyFourBitPortRoundTrips) {
  ConfigDataSet cfg;
  cfg.inports.push_back({0, 64, whole_lanes(0, 64)});
  EXPECT_NO_THROW(cfg.validate());
  std::uint8_t lanes[kByteLanes] = {};
  const std::uint64_t value = 0xF00DFACE12345678u;
  pack_slices(cfg.inports[0].slices, value, lanes);
  EXPECT_EQ(unpack_slices(cfg.inports[0].slices, lanes), value);
}

TEST(BoardConfig, PortsWiderThan64BitsRejected) {
  // 72 bits on nine lanes: the slices agree with the width, but a port
  // value is one uint64_t.
  ConfigDataSet in;
  in.inports.push_back({0, 72, whole_lanes(0, 72)});
  EXPECT_THROW(in.validate(), ConfigError);

  ConfigDataSet out;
  out.outports.push_back({0, 72, whole_lanes(0, 72)});
  EXPECT_THROW(out.validate(), ConfigError);

  ConfigDataSet ctrl;
  ctrl.ctrlports.push_back({0, 72, whole_lanes(0, 72), 0});
  EXPECT_THROW(ctrl.validate(), ConfigError);

  // The paired ports are legal; only the I/O-port's own width is too wide.
  ConfigDataSet io;
  io.inports.push_back({0, 8, {{0, 0, 8}}});
  io.outports.push_back({0, 8, {{1, 0, 8}}});
  io.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  io.ioports.push_back({0, 0, 0, 72, 1});
  EXPECT_THROW(io.validate(), ConfigError);
}

TEST(BoardConfig, CtrlWriteValueMustFitWidth) {
  ConfigDataSet cfg = minimal_config();
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 2});  // value 2 in 1 bit
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, IoPortMustReferenceExistingPorts) {
  ConfigDataSet cfg = minimal_config();
  cfg.ioports.push_back({0, 0, 0, 8, 1});  // ctrlport 0 does not exist
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, IoPortWidthsMustMatch) {
  ConfigDataSet cfg = minimal_config();
  cfg.ctrlports.push_back({0, 1, {{2, 0, 1}}, 0});
  cfg.ioports.push_back({0, 0, 0, 4, 1});  // in/out are 8 wide, io says 4
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, ZeroGatingFactorRejected) {
  ConfigDataSet cfg = minimal_config();
  cfg.gating_factor = 0;
  EXPECT_THROW(cfg.validate(), ConfigError);
}

TEST(BoardConfig, PackUnpackRoundTrip) {
  const std::vector<LaneSlice> slices = {{3, 2, 5}, {7, 0, 8}, {9, 6, 2}};
  std::uint8_t lanes[kByteLanes] = {};
  const std::uint64_t value = 0x5ABC & ((1u << 15) - 1);  // 15 bits
  pack_slices(slices, value, lanes);
  EXPECT_EQ(unpack_slices(slices, lanes), value);
}

TEST(BoardConfig, PackPreservesUnrelatedBits) {
  std::uint8_t lanes[kByteLanes] = {};
  lanes[0] = 0xFF;
  pack_slices({{0, 2, 4}}, 0b0000, lanes);
  EXPECT_EQ(lanes[0], 0b11000011);
}

TEST(BoardConfig, UnpackExtractsLsbFirstAcrossSlices) {
  std::uint8_t lanes[kByteLanes] = {};
  lanes[0] = 0x0F;  // slice A: bits 0..3 = 0xF
  lanes[1] = 0x03;  // slice B: bits 0..1 = 0x3
  EXPECT_EQ(unpack_slices({{0, 0, 4}, {1, 0, 2}}, lanes), 0x3Fu);
}

}  // namespace
}  // namespace castanet::board
