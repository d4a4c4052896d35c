#include "src/board/config.hpp"

#include <array>
#include <utility>

#include "src/core/error.hpp"

namespace castanet::board {

namespace {

using Findings = std::vector<ConfigFinding>;

unsigned total_bits(const std::vector<LaneSlice>& slices) {
  unsigned n = 0;
  for (const LaneSlice& s : slices) n += s.nbits;
  return n;
}

/// A mapping as findings name it ("inport 3").  The label is built only
/// for a finding, so a valid configuration builds no string.
struct PortRef {
  const char* kind = nullptr;  ///< nullptr: no port (a free pin)
  unsigned id = 0;
  std::string label() const {
    return std::string(kind) + " " + std::to_string(id);
  }
};

/// The port that claimed each pin, for one drive direction.
using PinOwners = std::array<PortRef, kPins>;

// Port values travel as one uint64_t (pack_slices/unpack_slices, the DUT's
// pin words), so no port may be wider than 64 bits.
ConfigFinding too_wide(std::string port, unsigned width) {
  return {"BRD-WIDTH", std::move(port), std::nullopt,
          "declared width " + std::to_string(width) +
              " exceeds the 64 bits a port value can carry",
          "split the port into ports of at most 64 bits"};
}

void check_slices(Findings& out, PortRef port,
                  const std::vector<LaneSlice>& slices, unsigned width,
                  PinOwners& owners) {
  const unsigned covered = total_bits(slices);
  if (width == 0 || width != covered) {
    out.push_back({"BRD-WIDTH", port.label(), std::nullopt,
                   "declared width " + std::to_string(width) +
                       " does not match the " + std::to_string(covered) +
                       " bit(s) covered by its lane slices",
                   "make width the sum of the slice widths (and non-zero)"});
  }
  if (width > 64) out.push_back(too_wide(port.label(), width));
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const LaneSlice& s = slices[i];
    if (s.byte_lane >= kByteLanes) {
      out.push_back({"BRD-LANE-RANGE", port.label(), i,
                     "slice references byte lane " +
                         std::to_string(s.byte_lane) + "; the board has " +
                         std::to_string(kByteLanes) + " lanes (0..15)",
                     "use a lane ID below " + std::to_string(kByteLanes)});
      continue;  // pin math below would index out of the pin array
    }
    if (s.nbits == 0 || s.nbits > kPinsPerLane ||
        s.start_bit + s.nbits > kPinsPerLane) {
      out.push_back({"BRD-LANE-RANGE", port.label(), i,
                     "slice bits [" + std::to_string(s.start_bit) + ", " +
                         std::to_string(s.start_bit + s.nbits) +
                         ") on lane " + std::to_string(s.byte_lane) +
                         " exceed the " + std::to_string(kPinsPerLane) +
                         "-pin lane width",
                     "keep start_bit + nbits <= " +
                         std::to_string(kPinsPerLane) + " and nbits >= 1"});
      continue;
    }
    for (unsigned b = 0; b < s.nbits; ++b) {
      const std::size_t pin = s.byte_lane * kPinsPerLane + s.start_bit + b;
      if (owners[pin].kind == nullptr) {
        owners[pin] = port;
        continue;
      }
      out.push_back({"BRD-PIN-OVERLAP", port.label(), i,
                     "pin " + std::to_string(pin) + " (lane " +
                         std::to_string(s.byte_lane) + " bit " +
                         std::to_string(s.start_bit + b) +
                         ") is already claimed by " + owners[pin].label() +
                         " in the same drive direction",
                     "move one of the overlapping slices to free pins"});
    }
  }
}

// Port IDs are the lookup keys of the mapping tables: a duplicate silently
// shadows its twin on lookup.
template <typename Mapping>
void check_unique_ids(Findings& out, const std::vector<Mapping>& maps,
                      const char* kind, unsigned Mapping::*id) {
  for (std::size_t i = 0; i < maps.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (maps[i].*id != maps[j].*id) continue;
      out.push_back({"BRD-DUP-PORT", PortRef{kind, maps[i].*id}.label(),
                     std::nullopt,
                     "duplicate " + std::string(kind) + " ID: mappings #" +
                         std::to_string(j) + " and #" + std::to_string(i) +
                         " both declare it",
                     "give every " + std::string(kind) + " a unique ID"});
      break;  // one finding per duplicated entry is enough
    }
  }
}

template <typename Mapping>
const Mapping* find_port(const std::vector<Mapping>& maps,
                         unsigned Mapping::*id, unsigned want) {
  for (const Mapping& m : maps) {
    if (m.*id == want) return &m;
  }
  return nullptr;
}

void check_ioports(Findings& out, const ConfigDataSet& cfg) {
  for (std::size_t i = 0; i < cfg.ioports.size(); ++i) {
    const IoPortMapping& m = cfg.ioports[i];
    const auto port = [i] { return "ioport #" + std::to_string(i); };
    if (m.width > 64) out.push_back(too_wide(port(), m.width));
    const auto* in = find_port(cfg.inports, &InportMapping::inport, m.inport);
    const auto* outp =
        find_port(cfg.outports, &OutportMapping::outport, m.outport);
    const auto* ctl =
        find_port(cfg.ctrlports, &CtrlportMapping::ctrlport, m.ctrlport);
    const auto dangling = [&](PortRef ref) {
      out.push_back({"BRD-IO-REF", port(), std::nullopt,
                     "references " + ref.label() + ", which is not declared",
                     "declare the " + std::string(ref.kind) +
                         " mapping or fix the reference"});
    };
    if (in == nullptr) dangling({"inport", m.inport});
    if (outp == nullptr) dangling({"outport", m.outport});
    if (ctl == nullptr) dangling({"ctrlport", m.ctrlport});
    const auto paired_width = [&](PortRef ref, unsigned width) {
      if (width == m.width) return;
      out.push_back({"BRD-IO-WIDTH", port(), std::nullopt,
                     "width " + std::to_string(m.width) +
                         " disagrees with paired " + ref.label() +
                         " (width " + std::to_string(width) + ")",
                     "the in, out and I/O widths of a bus port must match"});
    };
    if (in != nullptr) paired_width({"inport", m.inport}, in->width);
    if (outp != nullptr) paired_width({"outport", m.outport}, outp->width);
    if (ctl != nullptr && ctl->width < 64 &&
        (m.dut_drives_value >> ctl->width) != 0) {
      out.push_back(
          {"BRD-CTRL-CONFLICT", port(), std::nullopt,
           "direction flag value " + std::to_string(m.dut_drives_value) +
               " cannot be expressed on ctrlport " +
               std::to_string(m.ctrlport) + " (width " +
               std::to_string(ctl->width) +
               "): the DUT-drives state is unreachable",
           "widen the ctrlport or pick a flag value within its width"});
    }
    for (std::size_t j = 0; j < i; ++j) {
      const IoPortMapping& o = cfg.ioports[j];
      // A bus half takes its drive direction from the one ioport that
      // pairs it; a second pairing would give it two.
      const auto shared = [&](PortRef ref) {
        out.push_back({"BRD-IO-SHARED", port(), std::nullopt,
                       "pairs " + ref.label() + ", which ioport #" +
                           std::to_string(j) +
                           " already pairs: the port would take its drive "
                           "direction from two ioports",
                       "pair each inport and outport in at most one ioport"});
      };
      if (o.inport == m.inport) shared({"inport", m.inport});
      if (o.outport == m.outport) shared({"outport", m.outport});
      if (o.ctrlport != m.ctrlport ||
          o.dut_drives_value == m.dut_drives_value) {
        continue;
      }
      out.push_back(
          {"BRD-CTRL-CONFLICT", port(), std::nullopt,
           "shares ctrlport " + std::to_string(m.ctrlport) + " with ioport #" +
               std::to_string(j) +
               " but disagrees on the DUT-drives flag value (" +
               std::to_string(m.dut_drives_value) + " vs " +
               std::to_string(o.dut_drives_value) +
               "): one direction decode is always wrong",
           "use one flag convention per shared ctrlport, or separate "
           "ctrlports"});
    }
  }
}

}  // namespace

std::vector<ConfigFinding> ConfigDataSet::findings() const {
  Findings out;
  if (gating_factor == 0) {
    out.push_back({"BRD-GATING", "config", std::nullopt,
                   "clock gating factor is 0; the effective DUT clock (board "
                   "clock / gating factor) is undefined",
                   "use a gating factor >= 1"});
  }
  PinOwners tester_driven{};
  PinOwners dut_driven{};
  for (const InportMapping& m : inports) {
    check_slices(out, {"inport", m.inport}, m.slices, m.width, tester_driven);
  }
  for (const CtrlportMapping& m : ctrlports) {
    const PortRef port{"ctrlport", m.ctrlport};
    check_slices(out, port, m.slices, m.width, tester_driven);
    if (m.width < 64 && (m.write_value >> m.width) != 0) {
      out.push_back({"BRD-VALUE-OVERFLOW", port.label(), std::nullopt,
                     "write value " + std::to_string(m.write_value) +
                         " does not fit in the port's " +
                         std::to_string(m.width) + " bit(s)",
                     "truncate the write value or widen the ctrlport"});
    }
  }
  for (const OutportMapping& m : outports) {
    check_slices(out, {"outport", m.outport}, m.slices, m.width, dut_driven);
  }
  check_unique_ids(out, inports, "inport", &InportMapping::inport);
  check_unique_ids(out, outports, "outport", &OutportMapping::outport);
  check_unique_ids(out, ctrlports, "ctrlport", &CtrlportMapping::ctrlport);
  check_ioports(out, *this);
  return out;
}

void ConfigDataSet::validate() const {
  const std::vector<ConfigFinding> found = findings();
  if (!found.empty()) {
    throw ConfigError(found.front().port + ": " + found.front().message);
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
