#include "src/lint/board_rules.hpp"

#include <array>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

namespace castanet::lint {

namespace {

constexpr const char* kFamily = "board";

using board::CtrlportMapping;
using board::InportMapping;
using board::IoPortMapping;
using board::kByteLanes;
using board::kPins;
using board::kPinsPerLane;
using board::LaneSlice;
using board::OutportMapping;

std::string qualify(const std::string& scope, std::string loc) {
  if (scope.empty()) return loc;
  return scope + ": " + loc;
}

std::string slice_str(const LaneSlice& s) {
  return "lane " + std::to_string(s.byte_lane) + " bits [" +
         std::to_string(s.start_bit) + ".." +
         std::to_string(s.start_bit + s.nbits) + ")";
}

/// The concrete relocation the proposed remap found for this slice (if
/// any), rendered for a fix hint.
std::string remap_hint(const PinRemap& remap, const std::string& port,
                       std::size_t slice_index) {
  for (const SliceMove& m : remap.moves) {
    if (m.ok && m.port == port && m.slice_index == slice_index) {
      return "; proposed remap: " + slice_str(m.from) + " -> " +
             slice_str(m.to) + " (--fix-dry-run prints the patched config)";
    }
  }
  return "";
}

}  // namespace

PinRemap propose_pin_remap(const board::ConfigDataSet& cfg) {
  PinRemap out;
  out.patched = cfg;
  std::array<bool, kPins> tester{};
  std::array<bool, kPins> dut{};

  const auto free_in = [](const LaneSlice& s,
                          const std::array<bool, kPins>& used) {
    for (unsigned b = 0; b < s.nbits; ++b) {
      if (used[s.byte_lane * kPinsPerLane + s.start_bit + b]) return false;
    }
    return true;
  };
  const auto in_range = [](const LaneSlice& s) {
    return s.byte_lane < kByteLanes && s.nbits >= 1 &&
           s.nbits <= kPinsPerLane && s.start_bit + s.nbits <= kPinsPerLane;
  };
  // Lowest free contiguous run of the slice's width, scanning lanes then
  // start bits (runs never span a lane: the board packs per byte lane).  A
  // moved DUT-driven slice also keeps off tester pins.
  const auto relocate = [&](LaneSlice& s, bool dut_driven) {
    for (std::uint8_t lane = 0; lane < kByteLanes; ++lane) {
      for (std::uint8_t start = 0; start + s.nbits <= kPinsPerLane; ++start) {
        const LaneSlice cand{lane, start, s.nbits};
        if (free_in(cand, tester) && (!dut_driven || free_in(cand, dut))) {
          s = cand;
          return true;
        }
      }
    }
    return false;
  };
  const auto claim = [&](const LaneSlice& s, bool dut_driven) {
    for (unsigned b = 0; b < s.nbits; ++b) {
      (dut_driven ? dut : tester)[s.byte_lane * kPinsPerLane + s.start_bit +
                                  b] = true;
    }
  };
  const auto handle = [&](std::vector<LaneSlice>& slices,
                          const std::string& port, bool dut_driven) {
    for (std::size_t i = 0; i < slices.size(); ++i) {
      LaneSlice& s = slices[i];
      // The board's overlap rule: only slices of the same drive direction
      // conflict, and the first claimant keeps its pins.
      if (in_range(s) && free_in(s, dut_driven ? dut : tester)) {
        claim(s, dut_driven);
        continue;
      }
      SliceMove mv{port, i, s, s, false};
      if (s.nbits >= 1 && s.nbits <= kPinsPerLane) {
        LaneSlice target = s;
        if (relocate(target, dut_driven)) {
          mv.to = target;
          mv.ok = true;
          s = target;
          claim(s, dut_driven);
        }
      }
      out.changed |= mv.ok;
      out.complete &= mv.ok;
      out.moves.push_back(std::move(mv));
    }
  };

  for (auto& m : out.patched.inports) {
    handle(m.slices, "inport " + std::to_string(m.inport),
           /*dut_driven=*/false);
  }
  for (auto& m : out.patched.ctrlports) {
    handle(m.slices, "ctrlport " + std::to_string(m.ctrlport),
           /*dut_driven=*/false);
  }
  for (auto& m : out.patched.outports) {
    handle(m.slices, "outport " + std::to_string(m.outport),
           /*dut_driven=*/true);
  }
  return out;
}

std::string render_board_config(const board::ConfigDataSet& cfg) {
  std::ostringstream os;
  const auto slices_str = [](const std::vector<LaneSlice>& slices) {
    std::string out = "{";
    for (std::size_t i = 0; i < slices.size(); ++i) {
      if (i) out += ",";
      out += " " + slice_str(slices[i]);
    }
    return out + " }";
  };
  os << "gating_factor " << cfg.gating_factor << "\n";
  for (const InportMapping& m : cfg.inports) {
    os << "inport " << m.inport << " width " << m.width << " "
       << slices_str(m.slices) << "\n";
  }
  for (const CtrlportMapping& m : cfg.ctrlports) {
    os << "ctrlport " << m.ctrlport << " width " << m.width << " "
       << slices_str(m.slices) << " write_value " << m.write_value << "\n";
  }
  for (const OutportMapping& m : cfg.outports) {
    os << "outport " << m.outport << " width " << m.width << " "
       << slices_str(m.slices) << "\n";
  }
  for (const IoPortMapping& m : cfg.ioports) {
    os << "ioport in " << m.inport << " out " << m.outport << " ctrl "
       << m.ctrlport << " width " << m.width << " dut_drives_value "
       << m.dut_drives_value << "\n";
  }
  return os.str();
}

void analyze_board_config(const board::ConfigDataSet& cfg,
                          const std::string& scope, Report& report) {
  const std::vector<board::ConfigFinding> findings = cfg.findings();
  if (findings.empty()) return;
  const PinRemap remap = propose_pin_remap(cfg);
  for (const board::ConfigFinding& f : findings) {
    std::string hint = f.fix_hint;
    if (f.slice) hint += remap_hint(remap, f.port, *f.slice);
    report.add(f.rule, Severity::kError, kFamily, qualify(scope, f.port),
               f.message, std::move(hint));
  }
}

}  // namespace castanet::lint
