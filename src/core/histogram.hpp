// Log2-bucketed latency histogram — the distribution-valued metric of the
// cross-process telemetry layer (PR 8).
//
// Counters survive a farm merge because addition is exact; a quantile does
// not, unless the *buckets* merge exactly.  Log2Histogram fixes the bucket
// edges globally (powers of two over [2^-64, 2^64)), so merging two
// histograms is an elementwise count addition and a farmed run's merged
// histogram reports exactly the quantiles of the single-process histogram of
// the same samples (buckets, count, min/max are integer/extremum-exact; only
// the sum, a float accumulation, depends on merge order and agrees to
// rounding).  The price is resolution: a quantile is reported as its bucket's
// upper edge, so it overestimates the true order statistic by at most one
// octave (factor of 2), clamped into the exact [min, max] envelope which is
// tracked sample-exactly alongside the buckets.
//
// Components own their histograms (ConservativeSync lag, per-flow cell
// latency) and publish them into the telemetry Hub's snapshot at quiescent
// points (Hub::publish_histogram).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace castanet {

class Log2Histogram {
 public:
  /// Bucket i covers [2^(i + kMinExp), 2^(i + 1 + kMinExp)); kMinExp = -64
  /// reaches down to sub-attosecond latencies, kBuckets = 128 up to 2^64.
  /// Samples <= 0 land in a dedicated zero bucket (a latency of exactly
  /// zero is a real observation, not an underflow).
  static constexpr int kMinExp = -64;
  static constexpr int kBuckets = 128;

  void record(double v);

  /// Elementwise bucket addition plus exact count/sum/min/max combination.
  /// Associative and commutative; merging an empty histogram is a no-op and
  /// preserves NaN-when-empty min/max semantics.
  void merge(const Log2Histogram& other);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// NaN while empty (see SampleStat::min for the rationale).
  double min() const;
  double max() const;
  double mean() const;
  std::uint64_t zero_count() const { return zero_; }
  /// Count in bucket i (0 for out-of-range i or never-touched buckets).
  std::uint64_t bucket_count(int i) const;

  static int bucket_of(double v);  ///< -1 for the zero bucket
  static double bucket_lo(int i);
  static double bucket_hi(int i);

  /// Upper edge of the bucket holding the q-th order statistic, clamped
  /// into [min(), max()] (the exact envelope).  Guarantees
  ///   true_quantile <= quantile(q) <= 2 * true_quantile
  /// for positive samples.  NaN while empty; q outside [0,1] throws.
  double quantile(double q) const;

  /// Non-empty buckets as (bucket index, count) pairs, ascending; the zero
  /// bucket is reported separately via zero_count().
  std::vector<std::pair<int, std::uint64_t>> nonzero_buckets() const;

  /// Reconstructs a histogram from its serialized parts (wire / JSON
  /// decode).  `min`/`max` may be NaN when `count` is zero.
  static Log2Histogram from_parts(
      std::uint64_t count, double sum, double min, double max,
      std::uint64_t zero,
      const std::vector<std::pair<int, std::uint64_t>>& buckets);

  /// Exact structural equality (buckets, zero bucket, count, sum, min/max
  /// with NaN == NaN) — the merged-vs-single-process identity witness.
  bool identical(const Log2Histogram& other) const;

  std::string to_string() const;  ///< one "[lo,hi) count" line per bucket

 private:
  void touch_counts();  ///< materializes counts_ (lazy: empty until first use)

  /// Lazily sized to kBuckets on first positive sample, so an unused
  /// histogram member costs no allocation.
  std::vector<std::uint64_t> counts_;
  std::uint64_t zero_ = 0;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;  ///< valid only when count_ > 0
  double max_ = 0.0;
};

}  // namespace castanet
