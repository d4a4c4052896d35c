// Host-speed calibration for the benchmark's rates.
//
// A shared host's CPUs run the same code at speeds that differ by tens of
// percent from minute to minute (other tenants on the sibling hyperthread,
// in the caches, in the memory system), far more than most optimisations
// the benchmark has to show.  Every session therefore runs a fixed pass of
// calibration work on its own thread right before and right after it; the
// calibration code is the benchmark's own and never changes with the
// library, so the ratio of its nominal time to its measured time is the
// host's speed over the session, and multiplying the session's measured
// time by it gives the time the session would have taken on the nominal
// host.  The nominal host runs a pass in 8 ms of thread CPU time, about what
// a quiet 4-vCPU Xeon (Sapphire Rapids) guest takes.
//
// Over four minutes of back-to-back rounds on such a shared guest, the
// spread of 25-second windows (quartile distance over median) fell from
// 0.07-0.12 with raw wall time to 0.02-0.05 with scaled CPU time.  With
// three busy loops started on the guest's other vCPUs, the scaled rates
// moved by at most 2.5 % where wall-time rates fell by 9-37 %.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace perfbench {

/// CPU time of the calling thread.  The kernel leaves out the time the
/// hypervisor gave the vCPU to someone else (steal), which wall time on a
/// shared host is full of.
double thread_cpu_s();
/// CPU time of the whole process, every thread, kernel time included.
double process_cpu_s();

class Calibrator {
 public:
  /// Thread CPU time one pass takes on the nominal host.
  static constexpr double kNominalPassS = 0.008;

  Calibrator();

  /// Runs one fixed pass; returns its thread CPU time.
  double pass() const;

 private:
  std::vector<std::uint32_t> next_;  ///< one random cycle over the table
  std::vector<std::uint64_t> state_;
  mutable std::atomic<std::uint64_t> sink_{0};  ///< keeps the pass's result live
};

/// The process's calibrator.  Built on first use; the benchmark builds it
/// before any round, so farm workers inherit it instead of building their
/// own on the clock.
const Calibrator& calibrator();

}  // namespace perfbench
