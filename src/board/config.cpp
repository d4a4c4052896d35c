#include "src/board/config.hpp"

#include <algorithm>
#include <array>

#include "src/core/error.hpp"

namespace castanet::board {

namespace {

unsigned total_bits(const std::vector<LaneSlice>& slices) {
  unsigned n = 0;
  for (const LaneSlice& s : slices) n += s.nbits;
  return n;
}

// Port values travel as one uint64_t (pack_slices/unpack_slices, the
// DUT's pin words), so no port may be wider than 64 bits.
void check_width(unsigned width, const std::string& what, unsigned port) {
  if (width > 64) {
    throw ConfigError(what + " " + std::to_string(port) + ": width " +
                      std::to_string(width) + " exceeds 64 bits");
  }
}

void check_slice(const LaneSlice& s, const std::string& what) {
  if (s.byte_lane >= kByteLanes) {
    throw ConfigError(what + ": byte lane " + std::to_string(s.byte_lane) +
                      " out of range");
  }
  if (s.nbits == 0 || s.nbits > kPinsPerLane ||
      s.start_bit + s.nbits > kPinsPerLane) {
    throw ConfigError(what + ": slice bits [" + std::to_string(s.start_bit) +
                      "+" + std::to_string(s.nbits) + ") exceed lane width");
  }
}

// Marks the pins of `slices` in `used`, complaining about double use.
void claim_pins(const std::vector<LaneSlice>& slices,
                std::array<bool, kPins>& used, const std::string& what) {
  for (const LaneSlice& s : slices) {
    for (unsigned b = 0; b < s.nbits; ++b) {
      const std::size_t pin = s.byte_lane * kPinsPerLane + s.start_bit + b;
      if (used[pin]) {
        throw ConfigError(what + ": pin " + std::to_string(pin) +
                          " mapped twice in the same direction");
      }
      used[pin] = true;
    }
  }
}

// Port IDs are the lookup keys of the mapping tables: a duplicate silently
// shadows its twin on lookup, so reject it outright.
template <typename Mapping, typename Id>
void check_unique_ids(const std::vector<Mapping>& maps, Id Mapping::*id,
                      const std::string& what) {
  for (std::size_t i = 0; i < maps.size(); ++i) {
    for (std::size_t j = i + 1; j < maps.size(); ++j) {
      if (maps[i].*id == maps[j].*id) {
        throw ConfigError(what + " " + std::to_string(maps[i].*id) +
                          " declared more than once");
      }
    }
  }
}

}  // namespace

void ConfigDataSet::validate() const {
  if (gating_factor == 0) {
    throw ConfigError("ConfigDataSet: gating factor must be >= 1");
  }
  check_unique_ids(inports, &InportMapping::inport, "inport");
  check_unique_ids(outports, &OutportMapping::outport, "outport");
  check_unique_ids(ctrlports, &CtrlportMapping::ctrlport, "ctrlport");
  std::array<bool, kPins> tester_driven{};
  std::array<bool, kPins> dut_driven{};

  for (const InportMapping& m : inports) {
    if (m.width == 0 || m.width != total_bits(m.slices)) {
      throw ConfigError("inport " + std::to_string(m.inport) +
                        ": width does not match slices");
    }
    check_width(m.width, "inport", m.inport);
    for (const LaneSlice& s : m.slices) check_slice(s, "inport");
    claim_pins(m.slices, tester_driven, "inport");
  }
  for (const CtrlportMapping& m : ctrlports) {
    if (m.width == 0 || m.width != total_bits(m.slices)) {
      throw ConfigError("ctrlport " + std::to_string(m.ctrlport) +
                        ": width does not match slices");
    }
    check_width(m.width, "ctrlport", m.ctrlport);
    if (m.width < 64 && m.write_value >> m.width != 0) {
      throw ConfigError("ctrlport " + std::to_string(m.ctrlport) +
                        ": write value exceeds width");
    }
    for (const LaneSlice& s : m.slices) check_slice(s, "ctrlport");
    claim_pins(m.slices, tester_driven, "ctrlport");
  }
  for (const OutportMapping& m : outports) {
    if (m.width == 0 || m.width != total_bits(m.slices)) {
      throw ConfigError("outport " + std::to_string(m.outport) +
                        ": width does not match slices");
    }
    check_width(m.width, "outport", m.outport);
    for (const LaneSlice& s : m.slices) check_slice(s, "outport");
    claim_pins(m.slices, dut_driven, "outport");
    // Outport pins must not collide with tester-driven pins (unless paired
    // through an I/O-port mapping — those share the pins by design and are
    // validated below by construction of the in/out pair).
  }
  for (const IoPortMapping& m : ioports) {
    check_width(m.width, "ioport pairing inport", m.inport);
    const auto in_it =
        std::find_if(inports.begin(), inports.end(),
                     [&](const InportMapping& i) { return i.inport == m.inport; });
    const auto out_it = std::find_if(
        outports.begin(), outports.end(),
        [&](const OutportMapping& o) { return o.outport == m.outport; });
    const auto ctl_it = std::find_if(
        ctrlports.begin(), ctrlports.end(),
        [&](const CtrlportMapping& c) { return c.ctrlport == m.ctrlport; });
    if (in_it == inports.end() || out_it == outports.end() ||
        ctl_it == ctrlports.end()) {
      throw ConfigError("ioport: references unknown in/out/ctrl port");
    }
    if (in_it->width != m.width || out_it->width != m.width) {
      throw ConfigError("ioport: width mismatch between paired ports");
    }
  }
}

void pack_slices(const std::vector<LaneSlice>& slices, std::uint64_t value,
                 std::uint8_t lane_bytes[kByteLanes]) {
  unsigned consumed = 0;
  for (const LaneSlice& s : slices) {
    const auto chunk =
        static_cast<std::uint8_t>(value >> consumed & ((1u << s.nbits) - 1));
    const std::uint8_t mask =
        static_cast<std::uint8_t>(((1u << s.nbits) - 1) << s.start_bit);
    lane_bytes[s.byte_lane] = static_cast<std::uint8_t>(
        (lane_bytes[s.byte_lane] & ~mask) |
        (static_cast<std::uint8_t>(chunk << s.start_bit) & mask));
    consumed += s.nbits;
  }
}

std::uint64_t unpack_slices(const std::vector<LaneSlice>& slices,
                            const std::uint8_t lane_bytes[kByteLanes]) {
  std::uint64_t value = 0;
  unsigned consumed = 0;
  for (const LaneSlice& s : slices) {
    const std::uint8_t chunk = static_cast<std::uint8_t>(
        lane_bytes[s.byte_lane] >> s.start_bit & ((1u << s.nbits) - 1));
    value |= static_cast<std::uint64_t>(chunk) << consumed;
    consumed += s.nbits;
  }
  return value;
}

}  // namespace castanet::board
