// Per-flow cell statistics for the network simulator (PR 8).
//
// The mchang6137-style oracle validation the ROADMAP asks for needs to know,
// per ATM flow, how many cells went in, how many came out, how long each one
// took and how deep the queues sat — aggregate counters can't distinguish a
// switch that drops one VC's cells from one that reorders another's.  A flow
// is identified by (VPI, VCI, stream id): the VPI/VCI pair is the cell's
// routing identity, the stream id separates ports that legitimately carry
// the same VC.
//
// Switches TRANSLATE headers (the 4-port rig maps input VC {1, 100+p} to
// output VC {2, 200+p} on another port), so the flow a cell leaves on is not
// the flow it entered on.  alias() lets the component that knows the routing
// (the rig/scenario) declare "cells leaving on `out` entered on `in`";
// note_out() then charges the latency and the cells-out count to the INPUT
// flow, where the oracle compares them against cells_in.
//
// Disabled-path contract (guarded by a unit test): every note_* call starts
// with one relaxed-atomic telemetry::enabled() check and does nothing else
// while telemetry is off — no map lookups, no allocations.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "src/core/histogram.hpp"
#include "src/core/stats.hpp"
#include "src/core/telemetry.hpp"
#include "src/dsim/time.hpp"

namespace castanet::netsim {

/// Flow identity, packed for map keys: VPI and VCI as transmitted, plus a
/// stream id distinguishing physical ports carrying the same VC.
struct FlowKey {
  std::uint16_t vpi = 0;
  std::uint16_t vci = 0;
  std::uint32_t stream = 0;

  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(vpi) << 48) |
           (static_cast<std::uint64_t>(vci) << 32) | stream;
  }
  bool operator<(const FlowKey& o) const { return packed() < o.packed(); }
  bool operator==(const FlowKey& o) const { return packed() == o.packed(); }
  std::string to_string() const;  ///< "vpi/vci@stream"
};

/// Accumulated statistics of one flow.  Latency pairing is FIFO: cells of
/// one flow may not overtake each other (ATM guarantees cell ordering per
/// VC), so the i-th cell out is matched to the i-th cell in.
struct FlowStats {
  std::uint64_t cells_in = 0;
  std::uint64_t cells_out = 0;
  Log2Histogram latency;       ///< end-to-end cell latency, seconds
  TimeAverageStat in_flight;   ///< cells inside the DUT over time
  std::deque<SimTime> pending; ///< entry stamps of cells not yet out
};

/// Registry of per-flow statistics, owned by the Simulation.  Single-writer
/// (the simulation thread); reads happen at quiescent points.
class FlowRegistry {
 public:
  /// Records a cell entering the measured region at simulation time `now`.
  void note_in(const FlowKey& key, SimTime now) {
    if (!telemetry::enabled()) return;
    note_in_slow(key, now);
  }
  /// Records a cell leaving at `now`, stamped `ts` by the producer (the
  /// response's message timestamp).  Charged to alias(key) when set.
  void note_out(const FlowKey& key, SimTime now) {
    if (!telemetry::enabled()) return;
    note_out_slow(key, now);
  }

  /// Declares that cells observed leaving on `out` entered on `in` (header
  /// translation).  Installed by whoever knows the routing table.
  void alias(const FlowKey& out, const FlowKey& in);

  const FlowStats* find(const FlowKey& key) const;
  const std::map<FlowKey, FlowStats>& flows() const { return flows_; }
  bool empty() const { return flows_.empty(); }

  /// Publishes one row set per flow into the Hub:
  ///   flow.<key>.cells_in / cells_out   counters
  ///   flow.<key>.latency_seconds        histogram
  ///   flow.<key>.in_flight              time average
  void publish(const std::string& prefix, double now_seconds) const;

  void clear() { flows_.clear(); aliases_.clear(); }

 private:
  void note_in_slow(const FlowKey& key, SimTime now);
  void note_out_slow(const FlowKey& key, SimTime now);
  FlowKey resolve(const FlowKey& key) const;

  std::map<FlowKey, FlowStats> flows_;
  std::map<FlowKey, FlowKey> aliases_;  ///< out-flow -> in-flow
};

}  // namespace castanet::netsim
