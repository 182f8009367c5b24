// Log-bucketed latency histogram (HdrHistogram-style, base-2 buckets with
// linear sub-buckets).  Used to report loaded-latency distributions for the
// Table 2 reproduction, and as the distribution instrument behind
// MetricsRegistry::GetHistogram (flow durations, drain completion times,
// recovery TTR) exported into the metrics JSON with p50/p99/p999.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace lmp {

class Histogram {
 public:
  // Tracks values in [1, max_value] with ~1.5% relative error.
  explicit Histogram(std::uint64_t max_value = 1ull << 40);

  void Record(std::uint64_t value);
  void RecordMany(std::uint64_t value, std::uint64_t count);

  std::uint64_t count() const { return count_; }
  std::uint64_t min() const;
  std::uint64_t max() const;
  double mean() const;

  // p in [0, 100].  The target rank is interpolated linearly inside its
  // bucket (ranks spread uniformly over [low, high]), then clamped to the
  // recorded [min, max] so a single value reports itself exactly.
  std::uint64_t Percentile(double p) const;

  std::uint64_t p50() const { return Percentile(50); }
  std::uint64_t p99() const { return Percentile(99); }
  std::uint64_t p999() const { return Percentile(99.9); }

  void Reset();

  // "count=... mean=... p50=... p99=... max=..."
  std::string Summary() const;

  // Non-empty buckets, ascending, for structured exporters.  `high` is the
  // largest value the bucket can hold (inclusive).
  struct Bucket {
    std::uint64_t low = 0;
    std::uint64_t high = 0;
    std::uint64_t count = 0;
  };
  std::vector<Bucket> NonZeroBuckets() const;

 private:
  static constexpr int kSubBucketBits = 6;  // 64 linear sub-buckets/octave
  std::size_t BucketIndex(std::uint64_t value) const;
  std::uint64_t BucketLow(std::size_t index) const;
  std::uint64_t BucketHigh(std::size_t index) const;

  std::uint64_t max_value_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
  double sum_ = 0.0;
};

}  // namespace lmp
