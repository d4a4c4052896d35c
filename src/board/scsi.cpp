#include "src/board/scsi.hpp"

namespace castanet::board {

SimTime ScsiChannel::transfer(std::uint64_t bytes) {
  const SimTime payload = SimTime::from_ps(static_cast<std::int64_t>(
      static_cast<double>(bytes) /
      static_cast<double>(p_.bandwidth_bytes_per_sec) * 1e12));
  total_bytes_ += bytes;
  ++transfers_;
  return p_.command_overhead + payload;
}

}  // namespace castanet::board
