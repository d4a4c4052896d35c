// Netlist topology analysis for the lint analyzers (DESIGN.md §7.7, §13).
//
// CCSS-style co-simulation (PAPERS.md) splits hardware evaluation into
// combinational-logic computing plus sequential-logic synchronization at
// clock boundaries.  This pass derives that split from the elaborated
// process/signal graph the kernel exposes:
//
//   * every process is classified (sequential = all sensitivity entries
//     edge-restricted, combinational = at least one level-sensitive entry),
//   * the combinational dependency subgraph (P -> Q when P drives a signal
//     Q is level-sensitive to) is topologically levelized with Kahn ranks,
//     which order the dataflow engine's cone fixpoint,
//   * processes on combinational cycles — genuine delta feedback, latches
//     modelled as level-sensitive self-loops — are grouped into fallback
//     regions (strongly connected components).
//
// Driver edges are harvested from execution (a driver slot appears the
// first time a process writes a signal), so a schedule is only as complete
// as the runs behind it.  The kernel itself evaluates every time point
// with the delta loop and never consults this schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/rtl/simulator.hpp"

namespace castanet::rtl {

/// Scheduling class of one process slot (parallel to Simulator process ids).
enum class ProcKind : std::uint8_t {
  kExternal = 0,       ///< reserved slot 0 (test-bench writes)
  kSequential = 1,     ///< woken only by edges (clocked processes)
  kCombinational = 2,  ///< level-sensitive, acyclic: has a Kahn rank
  kFallback = 3,       ///< level-sensitive on a combinational cycle
};

/// One cyclic region of the combinational graph (an SCC with a back edge).
struct FallbackRegion {
  std::vector<ProcessId> members;
};

/// The process classification and combinational ranks of one elaborated
/// simulator.
struct LevelSchedule {
  std::vector<ProcKind> kind;       ///< per process slot (index 0 included)
  std::vector<std::uint32_t> rank;  ///< Kahn rank; meaningful for kCombinational
  std::uint32_t max_rank = 0;
  std::vector<FallbackRegion> fallback_regions;
  std::size_t sequential_count = 0;
  std::size_t combinational_count = 0;
  std::size_t fallback_count = 0;
};

/// Builds the levelized schedule from the simulator's current structure
/// (sensitivity lists, edge restrictions, harvested driver slots).
LevelSchedule levelize(const Simulator& sim);

/// Finds one zero-delay combinational loop (P drives a signal Q is
/// *sensitive* to, around to P) and returns it as alternating
/// process/signal path elements, or empty when the comb graph is acyclic.
/// Used by the NET-COMB-LOOP lint rule.
std::vector<std::string> find_combinational_cycle(const Simulator& sim);

}  // namespace castanet::rtl
