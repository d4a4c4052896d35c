#include "src/lint/board_rules.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
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

unsigned total_bits(const std::vector<LaneSlice>& slices) {
  unsigned n = 0;
  for (const LaneSlice& s : slices) n += s.nbits;
  return n;
}

struct Ctx {
  const std::string& scope;
  Report& report;
  const PinRemap* remap = nullptr;
  /// Per-pin owner label ("inport 3", ...) for the two direction classes;
  /// empty string = unclaimed.
  std::array<std::string, kPins> tester_owner{};
  std::array<std::string, kPins> dut_owner{};
};

std::string slice_str(const LaneSlice& s) {
  return "lane " + std::to_string(s.byte_lane) + " bits [" +
         std::to_string(s.start_bit) + ".." +
         std::to_string(s.start_bit + s.nbits) + ")";
}

/// The concrete relocation the proposed remap found for this slice (if
/// any), rendered for a fix hint.
std::string remap_hint(const Ctx& ctx, const std::string& port,
                       std::size_t slice_index) {
  if (ctx.remap == nullptr) return "";
  for (const SliceMove& m : ctx.remap->moves) {
    if (m.ok && m.port == port && m.slice_index == slice_index) {
      return "; proposed remap: " + slice_str(m.from) + " -> " +
             slice_str(m.to) + " (--fix-dry-run prints the patched config)";
    }
  }
  return "";
}

// A port value is one uint64_t on the board and at the DUT's pins.
void check_port_width(Ctx& ctx, const std::string& port, unsigned width) {
  if (width > 64) {
    ctx.report.add("BRD-WIDTH", Severity::kError, kFamily,
                   qualify(ctx.scope, port),
                   "declared width " + std::to_string(width) +
                       " exceeds the 64 bits a port value can carry",
                   "split the port into ports of at most 64 bits");
  }
}

void check_slices(Ctx& ctx, const std::string& port,
                  const std::vector<LaneSlice>& slices, unsigned width,
                  bool dut_driven) {
  if (width == 0 || width != total_bits(slices)) {
    ctx.report.add("BRD-WIDTH", Severity::kError, kFamily,
                   qualify(ctx.scope, port),
                   "declared width " + std::to_string(width) +
                       " does not match the " +
                       std::to_string(total_bits(slices)) +
                       " bit(s) covered by its lane slices",
                   "make width the sum of the slice widths (and non-zero)");
  }
  check_port_width(ctx, port, width);
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const LaneSlice& s = slices[i];
    if (s.byte_lane >= kByteLanes) {
      ctx.report.add("BRD-LANE-RANGE", Severity::kError, kFamily,
                     qualify(ctx.scope, port),
                     "slice references byte lane " +
                         std::to_string(s.byte_lane) + "; the board has " +
                         std::to_string(kByteLanes) + " lanes (0..15)",
                     "use a lane ID below " + std::to_string(kByteLanes) +
                         remap_hint(ctx, port, i));
      continue;  // pin math below would index out of the pin array
    }
    if (s.nbits == 0 || s.nbits > kPinsPerLane ||
        s.start_bit + s.nbits > kPinsPerLane) {
      ctx.report.add(
          "BRD-LANE-RANGE", Severity::kError, kFamily,
          qualify(ctx.scope, port),
          "slice bits [" + std::to_string(s.start_bit) + ", " +
              std::to_string(s.start_bit + s.nbits) + ") on lane " +
              std::to_string(s.byte_lane) + " exceed the " +
              std::to_string(kPinsPerLane) + "-pin lane width",
          "keep start_bit + nbits <= " + std::to_string(kPinsPerLane) +
              " and nbits >= 1" + remap_hint(ctx, port, i));
      continue;
    }
    auto& owner = dut_driven ? ctx.dut_owner : ctx.tester_owner;
    for (unsigned b = 0; b < s.nbits; ++b) {
      const std::size_t pin = s.byte_lane * kPinsPerLane + s.start_bit + b;
      if (!owner[pin].empty()) {
        ctx.report.add("BRD-PIN-OVERLAP", Severity::kError, kFamily,
                       qualify(ctx.scope, port),
                       "pin " + std::to_string(pin) + " (lane " +
                           std::to_string(s.byte_lane) + " bit " +
                           std::to_string(s.start_bit + b) +
                           ") is already claimed by " + owner[pin] +
                           " in the same drive direction",
                       "move one of the overlapping slices to free pins" +
                           remap_hint(ctx, port, i));
      } else {
        owner[pin] = port;
      }
    }
  }
}

template <typename Mapping>
void check_duplicate_ids(Ctx& ctx, const std::vector<Mapping>& maps,
                         const char* kind, unsigned Mapping::*id) {
  for (std::size_t i = 0; i < maps.size(); ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (maps[i].*id == maps[j].*id) {
        ctx.report.add("BRD-DUP-PORT", Severity::kError, kFamily,
                       qualify(ctx.scope, std::string(kind) + " " +
                                              std::to_string(maps[i].*id)),
                       "duplicate " + std::string(kind) +
                           " ID: mappings #" + std::to_string(j) + " and #" +
                           std::to_string(i) + " both declare it",
                       "give every " + std::string(kind) + " a unique ID");
        break;  // one diagnostic per duplicated entry is enough
      }
    }
  }
}

void check_ioports(Ctx& ctx, const board::ConfigDataSet& cfg) {
  for (std::size_t i = 0; i < cfg.ioports.size(); ++i) {
    const IoPortMapping& m = cfg.ioports[i];
    const std::string port = "ioport #" + std::to_string(i);
    check_port_width(ctx, port, m.width);
    const auto in_it = std::find_if(
        cfg.inports.begin(), cfg.inports.end(),
        [&](const InportMapping& p) { return p.inport == m.inport; });
    const auto out_it = std::find_if(
        cfg.outports.begin(), cfg.outports.end(),
        [&](const OutportMapping& p) { return p.outport == m.outport; });
    const auto ctl_it = std::find_if(
        cfg.ctrlports.begin(), cfg.ctrlports.end(),
        [&](const CtrlportMapping& p) { return p.ctrlport == m.ctrlport; });
    if (in_it == cfg.inports.end()) {
      ctx.report.add("BRD-IO-REF", Severity::kError, kFamily,
                     qualify(ctx.scope, port),
                     "references inport " + std::to_string(m.inport) +
                         ", which is not declared",
                     "declare the inport mapping or fix the reference");
    }
    if (out_it == cfg.outports.end()) {
      ctx.report.add("BRD-IO-REF", Severity::kError, kFamily,
                     qualify(ctx.scope, port),
                     "references outport " + std::to_string(m.outport) +
                         ", which is not declared",
                     "declare the outport mapping or fix the reference");
    }
    if (ctl_it == cfg.ctrlports.end()) {
      ctx.report.add("BRD-IO-REF", Severity::kError, kFamily,
                     qualify(ctx.scope, port),
                     "references ctrlport " + std::to_string(m.ctrlport) +
                         ", which is not declared",
                     "declare the ctrlport mapping or fix the reference");
    }
    if (in_it != cfg.inports.end() && in_it->width != m.width) {
      ctx.report.add("BRD-IO-WIDTH", Severity::kError, kFamily,
                     qualify(ctx.scope, port),
                     "width " + std::to_string(m.width) +
                         " disagrees with paired inport " +
                         std::to_string(m.inport) + " (width " +
                         std::to_string(in_it->width) + ")",
                     "the in, out and I/O widths of a bus port must match");
    }
    if (out_it != cfg.outports.end() && out_it->width != m.width) {
      ctx.report.add("BRD-IO-WIDTH", Severity::kError, kFamily,
                     qualify(ctx.scope, port),
                     "width " + std::to_string(m.width) +
                         " disagrees with paired outport " +
                         std::to_string(m.outport) + " (width " +
                         std::to_string(out_it->width) + ")",
                     "the in, out and I/O widths of a bus port must match");
    }
    if (ctl_it != cfg.ctrlports.end() && ctl_it->width < 64 &&
        (m.dut_drives_value >> ctl_it->width) != 0) {
      ctx.report.add(
          "BRD-CTRL-CONFLICT", Severity::kError, kFamily,
          qualify(ctx.scope, port),
          "direction flag value " + std::to_string(m.dut_drives_value) +
              " cannot be expressed on ctrlport " +
              std::to_string(m.ctrlport) + " (width " +
              std::to_string(ctl_it->width) +
              "): the DUT-drives state is unreachable",
          "widen the ctrlport or pick a flag value within its width");
    }
    for (std::size_t j = 0; j < i; ++j) {
      const IoPortMapping& o = cfg.ioports[j];
      if (o.ctrlport == m.ctrlport &&
          o.dut_drives_value != m.dut_drives_value) {
        ctx.report.add(
            "BRD-CTRL-CONFLICT", Severity::kError, kFamily,
            qualify(ctx.scope, port),
            "shares ctrlport " + std::to_string(m.ctrlport) +
                " with ioport #" + std::to_string(j) +
                " but disagrees on the DUT-drives flag value (" +
                std::to_string(m.dut_drives_value) + " vs " +
                std::to_string(o.dut_drives_value) +
                "): one direction decode is always wrong",
            "use one flag convention per shared ctrlport, or separate "
            "ctrlports");
      }
    }
  }
}

}  // namespace

PinRemap propose_pin_remap(const board::ConfigDataSet& cfg) {
  PinRemap out;
  out.patched = cfg;
  std::array<bool, kPins> tester{};
  std::array<bool, kPins> dut{};

  const auto pins_free = [&](const LaneSlice& s, bool dut_driven) {
    for (unsigned b = 0; b < s.nbits; ++b) {
      const std::size_t pin = s.byte_lane * kPinsPerLane + s.start_bit + b;
      if (dut_driven ? (dut[pin] || tester[pin]) : tester[pin]) return false;
    }
    return true;
  };
  const auto claim = [&](const LaneSlice& s, bool dut_driven) {
    for (unsigned b = 0; b < s.nbits; ++b) {
      const std::size_t pin = s.byte_lane * kPinsPerLane + s.start_bit + b;
      (dut_driven ? dut : tester)[pin] = true;
    }
  };
  const auto in_range = [](const LaneSlice& s) {
    return s.byte_lane < kByteLanes && s.nbits >= 1 &&
           s.nbits <= kPinsPerLane && s.start_bit + s.nbits <= kPinsPerLane;
  };
  // Lowest free contiguous run of the slice's width, scanning lanes then
  // start bits (runs never span a lane: the board packs per byte lane).
  const auto relocate = [&](LaneSlice& s, bool dut_driven) {
    for (std::uint8_t lane = 0; lane < kByteLanes; ++lane) {
      for (std::uint8_t start = 0; start + s.nbits <= kPinsPerLane; ++start) {
        const LaneSlice cand{lane, start, s.nbits};
        if (pins_free(cand, dut_driven)) {
          s = cand;
          return true;
        }
      }
    }
    return false;
  };
  const auto handle = [&](std::vector<LaneSlice>& slices,
                          const std::string& port, bool dut_driven) {
    for (std::size_t i = 0; i < slices.size(); ++i) {
      LaneSlice& s = slices[i];
      if (in_range(s) && pins_free(s, dut_driven)) {
        claim(s, dut_driven);  // first claimant keeps its pins
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
  const PinRemap remap = propose_pin_remap(cfg);
  Ctx ctx{scope, report, remap.changed ? &remap : nullptr, {}, {}};

  if (cfg.gating_factor == 0) {
    report.add("BRD-GATING", Severity::kError, kFamily,
               qualify(scope, "config"),
               "clock gating factor is 0; the effective DUT clock (board "
               "clock / gating factor) is undefined",
               "use a gating factor >= 1");
  }

  for (const InportMapping& m : cfg.inports) {
    check_slices(ctx, "inport " + std::to_string(m.inport), m.slices, m.width,
                 /*dut_driven=*/false);
  }
  for (const CtrlportMapping& m : cfg.ctrlports) {
    const std::string port = "ctrlport " + std::to_string(m.ctrlport);
    check_slices(ctx, port, m.slices, m.width, /*dut_driven=*/false);
    if (m.width < 64 && (m.write_value >> m.width) != 0) {
      report.add("BRD-VALUE-OVERFLOW", Severity::kError, kFamily,
                 qualify(scope, port),
                 "write value " + std::to_string(m.write_value) +
                     " does not fit in the port's " +
                     std::to_string(m.width) + " bit(s)",
                 "truncate the write value or widen the ctrlport");
    }
  }
  for (const OutportMapping& m : cfg.outports) {
    check_slices(ctx, "outport " + std::to_string(m.outport), m.slices,
                 m.width, /*dut_driven=*/true);
  }

  check_duplicate_ids(ctx, cfg.inports, "inport", &InportMapping::inport);
  check_duplicate_ids(ctx, cfg.outports, "outport", &OutportMapping::outport);
  check_duplicate_ids(ctx, cfg.ctrlports, "ctrlport",
                      &CtrlportMapping::ctrlport);

  check_ioports(ctx, cfg);
}

}  // namespace castanet::lint
