// SCSI bus transfer-time model.
//
// The test board hangs off the workstation's SCSI bus (Fig. 2).  For the
// throughput experiments we model each software-activity transfer as
// per-command setup latency plus payload over the bus bandwidth — the
// quantities that make short hardware test cycles overhead-dominated.
#pragma once

#include <cstdint>

#include "src/dsim/time.hpp"

namespace castanet::board {

class ScsiChannel {
 public:
  struct Params {
    SimTime command_overhead = SimTime::from_us(500);  ///< per transfer
    std::uint64_t bandwidth_bytes_per_sec = 10'000'000; ///< fast SCSI-2
  };

  ScsiChannel() = default;
  explicit ScsiChannel(Params p) : p_(p) {}

  /// Models one transfer of `bytes`; returns its duration and accumulates
  /// totals.
  SimTime transfer(std::uint64_t bytes);

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t transfers() const { return transfers_; }

 private:
  Params p_;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t transfers_ = 0;
};

}  // namespace castanet::board
