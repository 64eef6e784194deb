// Experiment statistics: counters and latency aggregation with percentiles.
#ifndef SLICE_SIM_STATS_H_
#define SLICE_SIM_STATS_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <utility>

#include "src/sim/event_queue.h"

namespace slice {

// Fixed-memory latency aggregator: count/sum/min/max are exact; percentiles
// come from a log-scale histogram (32 sub-buckets per power of two), so the
// relative quantile error is bounded by ~3% regardless of how many samples
// are recorded. Memory is a constant ~15 KB per instance — long-running
// workload generators no longer grow without bound.
class LatencyStats {
 public:
  void Record(SimTime latency) {
    ++count_;
    sum_ += latency;
    min_ = std::min(min_, latency);
    max_ = std::max(max_, latency);
    ++buckets_[BucketIndex(latency)];
  }

  uint64_t count() const { return count_; }
  SimTime sum() const { return sum_; }
  SimTime min() const { return count_ ? min_ : 0; }
  SimTime max() const { return max_; }
  double MeanMillis() const {
    if (count_ == 0) {
      return 0.0;
    }
    return ToMillis(sum_) / static_cast<double>(count_);
  }
  // p in [0, 100]. Interpolated within the containing bucket and clamped to
  // the exact [min, max] envelope.
  SimTime Percentile(double p) const;

  // Combines another aggregator into this one; with identical fixed bucket
  // layouts the merge is a bucket-wise sum and loses no precision relative
  // to recording every sample here directly.
  void Merge(const LatencyStats& other) {
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  void Reset() {
    count_ = 0;
    sum_ = 0;
    min_ = std::numeric_limits<SimTime>::max();
    max_ = 0;
    buckets_.fill(0);
  }

 private:
  // Sub-bucket resolution: 2^kSubBits linear sub-buckets per octave.
  static constexpr uint32_t kSubBits = 5;
  static constexpr uint32_t kSub = 1u << kSubBits;
  // Values < kSub get exact unit-width buckets; each of the 59 remaining
  // octaves (up to 2^64) contributes kSub sub-buckets.
  static constexpr size_t kNumBuckets = kSub + 59 * kSub;

  static size_t BucketIndex(SimTime v);
  // Inclusive-exclusive value range [lo, hi) covered by a bucket.
  static std::pair<SimTime, SimTime> BucketBounds(size_t index);

  uint64_t count_ = 0;
  SimTime sum_ = 0;
  SimTime min_ = std::numeric_limits<SimTime>::max();
  SimTime max_ = 0;
  std::array<uint64_t, kNumBuckets> buckets_{};
};

// Per-category operation counters with pretty-printing, used to report
// request routing distributions (how many ops each server class absorbed).
// Backed by an ordered map: O(log n) Add/Get and naturally deterministic
// (lexicographic) ToString() ordering. Heterogeneous (string_view) lookup
// means Add/Get on an existing key never allocates — metrics providers poll
// Get() at scrape time at zero amortized cost.
class OpCounters {
 public:
  void Add(std::string_view name, uint64_t delta = 1);
  uint64_t Get(std::string_view name) const;
  std::string ToString() const;
  const std::map<std::string, uint64_t, std::less<>>& entries() const { return entries_; }

 private:
  std::map<std::string, uint64_t, std::less<>> entries_;
};

}  // namespace slice

#endif  // SLICE_SIM_STATS_H_
