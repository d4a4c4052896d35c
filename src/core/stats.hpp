// Component-local statistics used by the network simulator and the benches.
//
// OPNET-style models record scalar samples ("sample statistics") and
// time-weighted values such as queue occupancy ("time-average statistics").
// Components own these as members; distributions use Log2Histogram
// (core/histogram.hpp), and everything that leaves the process goes through
// the telemetry Hub's snapshot (core/telemetry.hpp).
#pragma once

#include <cstdint>
#include <limits>

namespace castanet {

/// Running mean/min/max/sum over discrete samples (Welford mean).
class SampleStat {
 public:
  void record(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  /// NaN while empty: an empty stat has no extrema, and a fake 0.0 would be
  /// indistinguishable from a real measurement in exports.  Check count()
  /// (or isnan) before treating the value as data.
  double min() const {
    return count_ ? min_ : std::numeric_limits<double>::quiet_NaN();
  }
  double max() const {
    return count_ ? max_ : std::numeric_limits<double>::quiet_NaN();
  }
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double sum_ = 0.0;
};

/// Time-weighted average of a piecewise-constant value (e.g. queue length).
/// Call set(t, v) at every change; read average(t_now).
class TimeAverageStat {
 public:
  void set(double time, double value);
  /// Time-weighted mean over [first set, now]; 0 if never set.
  double average(double now) const;
  double current() const { return value_; }
  double max() const { return max_; }

 private:
  bool started_ = false;
  double last_time_ = 0.0;
  double value_ = 0.0;
  double weighted_sum_ = 0.0;
  double start_time_ = 0.0;
  double max_ = 0.0;
};

}  // namespace castanet
