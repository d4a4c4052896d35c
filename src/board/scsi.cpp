#include "src/board/scsi.hpp"

namespace castanet::board {

namespace {

constexpr SimTime kCommandOverhead = SimTime::from_us(500);  // per transfer
constexpr std::uint64_t kBandwidthBytesPerSec = 10'000'000;  // fast SCSI-2

}  // namespace

SimTime ScsiChannel::transfer(std::uint64_t bytes) {
  const SimTime payload = SimTime::from_ps(static_cast<std::int64_t>(
      static_cast<double>(bytes) /
      static_cast<double>(kBandwidthBytesPerSec) * 1e12));
  total_bytes_ += bytes;
  ++transfers_;
  return kCommandOverhead + payload;
}

}  // namespace castanet::board
