#include "common/histogram.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <sstream>

namespace lmp {

Histogram::Histogram(std::uint64_t max_value) : max_value_(max_value) {
  assert(max_value >= 1);
  buckets_.resize(BucketIndex(max_value_) + 1, 0);
}

std::size_t Histogram::BucketIndex(std::uint64_t value) const {
  if (value == 0) value = 1;
  // Octave = position of the highest set bit; linear sub-bucket inside it.
  const int octave = 63 - std::countl_zero(value);
  if (octave <= kSubBucketBits) {
    // Small values resolve exactly.
    return static_cast<std::size_t>(value);
  }
  const int shift = octave - kSubBucketBits;
  const auto sub = static_cast<std::size_t>(value >> shift) -
                   (1ull << kSubBucketBits);
  const std::size_t base =
      (1ull << kSubBucketBits) +
      static_cast<std::size_t>(octave - kSubBucketBits) *
          (1ull << (kSubBucketBits - 1));
  // Each octave above the exact range contributes 2^(bits-1) buckets
  // (the top half of the sub-bucket range).
  return base + (sub >> 1);
}

std::uint64_t Histogram::BucketLow(std::size_t index) const {
  const std::size_t exact = 1ull << kSubBucketBits;
  if (index <= exact) return index;
  const std::size_t per_octave = 1ull << (kSubBucketBits - 1);
  const std::size_t rel = index - exact;
  const std::size_t octave = rel / per_octave;
  const std::size_t sub = rel % per_octave;
  const int shift = static_cast<int>(octave) + 1;
  const std::uint64_t base = 1ull << (kSubBucketBits + octave);
  return base + (static_cast<std::uint64_t>(sub) << shift);
}

std::uint64_t Histogram::BucketHigh(std::size_t index) const {
  // The bucket holds [low(i), low(i+1) - 1]; the last bucket is capped at
  // max_value_ (RecordMany clamps values there).
  if (index + 1 >= buckets_.size()) return max_value_;
  return BucketLow(index + 1) - 1;
}

void Histogram::Record(std::uint64_t value) { RecordMany(value, 1); }

void Histogram::RecordMany(std::uint64_t value, std::uint64_t n) {
  if (n == 0) return;
  value = std::min(value, max_value_);
  const std::size_t idx = BucketIndex(value);
  buckets_[idx] += n;
  count_ += n;
  min_ = std::min(min_, value);
  max_ = std::max(max_, value);
  sum_ += static_cast<double>(value) * static_cast<double>(n);
}

std::uint64_t Histogram::min() const { return count_ == 0 ? 0 : min_; }
std::uint64_t Histogram::max() const { return max_; }

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

std::uint64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  p = std::clamp(p, 0.0, 100.0);
  const double target = p / 100.0 * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const auto prev = static_cast<double>(seen);
    seen += buckets_[i];
    if (static_cast<double>(seen) >= target) {
      const std::uint64_t low = BucketLow(i);
      const std::uint64_t high = BucketHigh(i);
      const double frac = std::clamp(
          (target - prev) / static_cast<double>(buckets_[i]), 0.0, 1.0);
      const auto value = static_cast<std::uint64_t>(
          static_cast<double>(low) +
          frac * static_cast<double>(high - low) + 0.5);
      return std::clamp(value, min(), max());
    }
  }
  return max_;
}

std::vector<Histogram::Bucket> Histogram::NonZeroBuckets() const {
  std::vector<Bucket> out;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    out.push_back(Bucket{BucketLow(i), BucketHigh(i), buckets_[i]});
  }
  return out;
}

void Histogram::Reset() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
  min_ = UINT64_MAX;
  max_ = 0;
  sum_ = 0.0;
}

std::string Histogram::Summary() const {
  std::ostringstream os;
  os << "count=" << count_ << " mean=" << mean() << " p50=" << Percentile(50)
     << " p99=" << Percentile(99) << " max=" << max();
  return os.str();
}

}  // namespace lmp
