#ifndef EDUCE_OBS_HISTOGRAM_H_
#define EDUCE_OBS_HISTOGRAM_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace educe::obs {

/// Log-bucketed histogram of non-negative 64-bit samples (nanoseconds,
/// bytes, counts). Buckets are one octave split into 4 sub-buckets, so
/// any percentile estimate is within ~12.5% of the true sample value
/// while the whole histogram stays a fixed 2 KiB — cheap enough to keep
/// one per procedure.
///
/// Merging is plain bucket-wise addition, which makes it exactly
/// associative and commutative: instances merge in any order and produce
/// identical counts (tests/obs_test.cc asserts this).
///
/// Not internally synchronized: owners guard their instances (the
/// loader's per-procedure histograms) or hand out snapshots. Many
/// threads recording into one histogram use AtomicHistogram.
class Histogram {
 public:
  /// 2 sub-bucket bits -> 4 sub-buckets per octave. 64 octaves of 4
  /// plus the exact [0,4) range fit comfortably in 256 buckets.
  static constexpr int kSubBits = 2;
  static constexpr size_t kBuckets = 256;

  void Record(uint64_t value);
  void Merge(const Histogram& other);
  void Reset();

  uint64_t count() const { return count_; }
  uint64_t sum() const { return sum_; }
  uint64_t min() const { return count_ == 0 ? 0 : min_; }
  uint64_t max() const { return max_; }
  double Mean() const;

  /// Value at percentile `p` in [0,100]. Returns the lower bound of the
  /// bucket holding the p-th sample (deterministic across merges); p=100
  /// returns the exact maximum. Zero when empty.
  uint64_t Percentile(double p) const;

  /// {"count":N,"min":..,"mean":..,"p50":..,"p90":..,"p95":..,
  ///  "p99":..,"max":..} — all values in the recorded unit.
  std::string ToJson() const;

  /// Buckets holding at least one sample, for tests and dump tooling.
  const std::array<uint64_t, kBuckets>& buckets() const { return buckets_; }

  static size_t BucketIndex(uint64_t value);
  static uint64_t BucketLowerBound(size_t index);

 private:
  friend class AtomicHistogram;

  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t min_ = UINT64_MAX;
  uint64_t max_ = 0;
};

/// Concurrent sibling of Histogram: identical bucket layout, but every
/// counter is a relaxed atomic so many threads can record without any
/// lock (the lock-site profiler records into these from inside lock
/// acquisition paths, where taking another mutex would deadlock or
/// serialize the very contention being measured; every query, on any
/// session, records its latency into the engine's). Snapshot() folds the
/// counters into a plain Histogram for percentiles and JSON; under
/// concurrent recording the snapshot is a consistent-enough view (each
/// counter is read once, tearing across counters is possible but each
/// value is itself exact).
class AtomicHistogram {
 public:
  void Record(uint64_t value);
  Histogram Snapshot() const;
  /// Zeroes all counters. Not atomic as a whole: samples recorded while
  /// a reset is in flight may land on either side of it.
  void Reset();

 private:
  std::array<std::atomic<uint64_t>, Histogram::kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> min_{UINT64_MAX};
  std::atomic<uint64_t> max_{0};
};

}  // namespace educe::obs

#endif  // EDUCE_OBS_HISTOGRAM_H_
