#include "src/core/stats.hpp"

#include <algorithm>

namespace castanet {

void SampleStat::record(double x) {
  ++count_;
  sum_ += x;
  mean_ += (x - mean_) / static_cast<double>(count_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void TimeAverageStat::set(double time, double value) {
  if (!started_) {
    started_ = true;
    start_time_ = time;
  } else if (time > last_time_) {
    weighted_sum_ += value_ * (time - last_time_);
  }
  last_time_ = std::max(last_time_, time);
  value_ = value;
  max_ = std::max(max_, value);
}

double TimeAverageStat::average(double now) const {
  if (!started_ || now <= start_time_) return 0.0;
  double ws = weighted_sum_;
  if (now > last_time_) ws += value_ * (now - last_time_);
  return ws / (now - start_time_);
}

}  // namespace castanet
