// Netsim adapters: wraps a CellSource as an OPNET-style generator process,
// plus a measuring sink.  These are the "traffic source" node models of the
// network domain (§2).
#pragma once

#include <memory>

#include "src/core/stats.hpp"
#include "src/netsim/process.hpp"
#include "src/traffic/sources.hpp"

namespace castanet::traffic {

using netsim::Interrupt;

/// Emits the cells of a CellSource on output stream 0 as packets, pacing
/// itself with self interrupts at the source's time stamps.
class GeneratorProcess : public netsim::FsmProcess {
 public:
  /// Stops after `max_cells` (0 = unbounded).
  GeneratorProcess(std::unique_ptr<CellSource> source,
                   std::uint64_t max_cells = 0);

  std::uint64_t cells_sent() const { return sent_; }

 private:
  void arm_next();
  void emit(const Interrupt& intr);

  std::unique_ptr<CellSource> source_;
  std::uint64_t max_cells_;
  std::uint64_t sent_ = 0;
  CellArrival pending_{};
  bool has_pending_ = false;
};

/// Counts and timestamps arriving cells and records their end-to-end delay
/// (arrival time minus packet creation time, in seconds).
class SinkProcess : public netsim::FsmProcess {
 public:
  SinkProcess();

  std::uint64_t cells_received() const { return received_; }
  const SampleStat& delay() const { return delay_; }
  const std::vector<CellArrival>& log() const { return log_; }
  /// Keeps a copy of every received cell for comparison (default on).
  void set_keep_log(bool keep) { keep_log_ = keep; }

 private:
  std::uint64_t received_ = 0;
  SampleStat delay_;
  bool keep_log_ = true;
  std::vector<CellArrival> log_;
};

}  // namespace castanet::traffic
