// Board-configuration analyzers over a board::ConfigDataSet (DESIGN.md §10).
//
// The BRD-* rules live once, in ConfigDataSet::findings().  validate(), the
// runtime gate, throws the first finding when a board is programmed; the
// lint reports every finding as an error diagnostic, so a review sees the
// whole configuration data set, not just what the board refused first.
#pragma once

#include <string>

#include "src/board/config.hpp"
#include "src/lint/diagnostic.hpp"

namespace castanet::lint {

/// Appends one error diagnostic per ConfigDataSet::findings() entry to
/// `report`.  `scope` prefixes locations when several configs share one
/// report (may be empty).  Never throws on config defects — inspect the
/// report.  When a BRD-PIN-OVERLAP or BRD-LANE-RANGE finding has a concrete
/// relocation in the proposed remap (propose_pin_remap), the fix hint names
/// it.
void analyze_board_config(const board::ConfigDataSet& cfg,
                          const std::string& scope, Report& report);

/// One slice relocation in a proposed pin remap.
struct SliceMove {
  std::string port;            ///< "inport 3", "ctrlport 1", "outport 0"
  std::size_t slice_index = 0; ///< index into that mapping's slices
  board::LaneSlice from;
  board::LaneSlice to;         ///< == from when no free run was found
  bool ok = true;
};

/// A concrete, non-overlapping lane remap for a defective configuration.
struct PinRemap {
  board::ConfigDataSet patched;  ///< cfg with every `ok` move applied
  std::vector<SliceMove> moves;
  bool changed = false;   ///< at least one move was proposed
  bool complete = true;   ///< every conflicting slice found a free run
};

/// Proposes a remap for the overlap/range defects BRD-PIN-OVERLAP and
/// BRD-LANE-RANGE report: walk the mappings in declaration order
/// (inports, ctrlports, then outports), let the first claimant of a pin
/// keep it, and move each conflicting or out-of-range slice to the lowest
/// free contiguous run of its width.  A slice conflicts by the board's own
/// overlap rule: only with slices of the same drive direction.  A moved
/// tester-driven slice avoids tester pins; a moved DUT-driven slice avoids
/// both planes.  Slices whose width itself is invalid (nbits 0 or > 8)
/// cannot be relocated and are left in place with `ok = false`.
PinRemap propose_pin_remap(const board::ConfigDataSet& cfg);

/// Renders a configuration data set as the text `castanet_lint
/// --fix-dry-run` prints (one line per mapping, slices as
/// "lane N bits [a..b)").
std::string render_board_config(const board::ConfigDataSet& cfg);

}  // namespace castanet::lint
