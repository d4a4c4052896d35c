// SCSI bus transfer-time model.
//
// The test board hangs off the workstation's SCSI bus (Fig. 2).  For the
// throughput experiments we model each software-activity transfer as
// per-command setup latency (500 us) plus payload over the bus bandwidth
// (fast SCSI-2, 10 MB/s) — the quantities that make short hardware test
// cycles overhead-dominated.
#pragma once

#include <cstdint>

#include "src/dsim/time.hpp"

namespace castanet::board {

class ScsiChannel {
 public:
  /// Models one transfer of `bytes`; returns its duration and accumulates
  /// totals.
  SimTime transfer(std::uint64_t bytes);

  std::uint64_t total_bytes() const { return total_bytes_; }
  std::uint64_t transfers() const { return transfers_; }

 private:
  std::uint64_t total_bytes_ = 0;
  std::uint64_t transfers_ = 0;
};

}  // namespace castanet::board
