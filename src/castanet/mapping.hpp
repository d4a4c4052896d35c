// §3.2 — abstraction interfaces: conversion between the network simulator's
// instantaneous C-structure packets and cycle-timed bit-level signals.
//
// "The user has to specify how high-level protocol data units and abstract
// data types has to be mapped to bit-level signals using appropriate
// conversion functions that are provided in the CASTANET library."  The
// library has two parts:
//   * the Fig. 4 cell lane — a 53-octet ATM cell onto an 8-, 16- or 32-bit
//     `atmdata` lane plus a generated `cellsync` — is hw::CellPortDriver /
//     hw::CellPortMonitor (src/hw/cell_port.hpp), shared by every rig;
//   * BusMaster, below — register transactions over the three-signal bus
//     scheme (§3.3: input, output and a direction control) against a DUT's
//     µP port.
#pragma once

#include <deque>
#include <functional>

#include "src/rtl/module.hpp"

namespace castanet::cosim {

/// Microprocessor-bus master executing queued register reads/writes against
/// a slave with {addr, bidirectional data, cs, rw} — the bus-interface
/// modeling of §3.3.  Transactions respect bus turnaround: the master only
/// drives `data` during write cycles and samples reads two clocks after
/// asserting cs.
class BusMaster : public rtl::Module {
 public:
  BusMaster(rtl::Simulator& sim, std::string name, rtl::Signal clk,
            rtl::Bus addr, rtl::Bus data, rtl::Signal cs, rtl::Signal rw);

  /// Queues a register write.
  void write(std::uint8_t addr, std::uint16_t value);
  /// Queues a register read; `done` fires with the sampled value.
  void read(std::uint8_t addr, std::function<void(std::uint16_t)> done);

  bool idle() const { return ops_.empty() && phase_ == 0; }
  std::uint64_t transactions() const { return transactions_; }

 private:
  struct Op {
    bool is_read;
    std::uint8_t addr;
    std::uint16_t value;
    std::function<void(std::uint16_t)> done;
  };

  void on_clk();

  rtl::Signal clk_;
  rtl::Bus addr_;
  rtl::Bus data_;
  rtl::Signal cs_;
  rtl::Signal rw_;
  std::deque<Op> ops_;
  unsigned phase_ = 0;
  std::uint64_t transactions_ = 0;
};

}  // namespace castanet::cosim
