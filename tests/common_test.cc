// Tests for common/: Status, StatusOr, units, RNG, Zipf, histogram, table
// printer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "common/units.h"

namespace lmp {
namespace {

// --- Status ---------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = OutOfMemoryError("pool full");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(s.message(), "pool full");
  EXPECT_EQ(s.ToString(), "OUT_OF_MEMORY: pool full");
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(IsOutOfMemory(OutOfMemoryError("")));
  EXPECT_FALSE(IsOutOfMemory(NotFoundError("")));
  EXPECT_TRUE(IsNotFound(NotFoundError("")));
  EXPECT_TRUE(IsUnavailable(UnavailableError("")));
}

TEST(StatusTest, EveryCodeHasAName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnimplemented); ++c) {
    EXPECT_NE(StatusCodeName(static_cast<StatusCode>(c)), "UNKNOWN");
  }
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  EXPECT_EQ(v.value_or(0), 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = NotFoundError("nope");
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(v.value_or(7), 7);
}

TEST(StatusOrTest, MoveOnlyValue) {
  StatusOr<std::unique_ptr<int>> v = std::make_unique<int>(5);
  ASSERT_TRUE(v.ok());
  std::unique_ptr<int> p = std::move(v).value();
  EXPECT_EQ(*p, 5);
}

StatusOr<int> Half(int x) {
  if (x % 2 != 0) return InvalidArgumentError("odd");
  return x / 2;
}

Status UseHalf(int x, int* out) {
  LMP_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::Ok();
}

TEST(StatusMacrosTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseHalf(8, &out).ok());
  EXPECT_EQ(out, 4);
  EXPECT_EQ(UseHalf(7, &out).code(), StatusCode::kInvalidArgument);
}

// --- Units ------------------------------------------------------------------

TEST(UnitsTest, ByteMultiples) {
  EXPECT_EQ(KiB(1), 1024u);
  EXPECT_EQ(MiB(1), 1024u * 1024);
  EXPECT_EQ(GiB(96), 96ull * 1024 * 1024 * 1024);
}

TEST(UnitsTest, BandwidthConversionRoundTrips) {
  // 97 GB/s moving 97e9 bytes takes one simulated second.
  EXPECT_DOUBLE_EQ(ToGBps(97e9, Seconds(1)), 97.0);
  EXPECT_DOUBLE_EQ(ToGBps(0, Seconds(1)), 0.0);
  EXPECT_DOUBLE_EQ(ToGBps(100, 0), 0.0);
}

TEST(UnitsTest, TimeHelpers) {
  EXPECT_DOUBLE_EQ(Microseconds(1), 1000.0);
  EXPECT_DOUBLE_EQ(Milliseconds(2), 2e6);
  EXPECT_DOUBLE_EQ(Seconds(1), 1e9);
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicFromSeed) {
  Rng a(123), b(123), c(456);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(123);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, BoundedStaysInBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextInRange(-2, 2));
  EXPECT_EQ(seen.size(), 5u);  // all of -2..2 hit
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(4);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) heads += rng.NextBernoulli(0.3);
  EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(6);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

// --- Zipf -----------------------------------------------------------------------

TEST(ZipfTest, StaysInRange) {
  ZipfGenerator zipf(100, 0.9, 7);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_LT(zipf.Next(), 100u);
  }
}

TEST(ZipfTest, SkewConcentratesOnSmallKeys) {
  ZipfGenerator zipf(1000, 0.99, 8);
  int head = 0;
  const int kSamples = 20000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next() < 10) ++head;
  }
  // With theta=0.99, the top-10 of 1000 keys should draw a large share.
  EXPECT_GT(head, kSamples / 4);
}

TEST(ZipfTest, LowThetaIsFlatter) {
  ZipfGenerator skewed(1000, 0.99, 9), flat(1000, 0.2, 9);
  auto head_share = [](ZipfGenerator& g) {
    int head = 0;
    for (int i = 0; i < 10000; ++i) {
      if (g.Next() < 10) ++head;
    }
    return head;
  };
  EXPECT_GT(head_share(skewed), head_share(flat));
}

// --- Histogram ------------------------------------------------------------------

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.Percentile(50), 0u);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Record(163);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 163u);
  EXPECT_EQ(h.max(), 163u);
  EXPECT_NEAR(h.Percentile(50), 163, 5);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 10000; ++v) h.Record(v);
  const auto p50 = h.Percentile(50);
  const auto p90 = h.Percentile(90);
  const auto p99 = h.Percentile(99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(static_cast<double>(p50), 5000, 200);
  EXPECT_NEAR(static_cast<double>(p99), 9900, 300);
}

TEST(HistogramTest, MeanIsExact) {
  Histogram h;
  h.Record(100);
  h.Record(300);
  EXPECT_DOUBLE_EQ(h.mean(), 200.0);
}

TEST(HistogramTest, RecordManyCounts) {
  Histogram h;
  h.RecordMany(50, 10);
  EXPECT_EQ(h.count(), 10u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.0);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

TEST(HistogramTest, SingleValueReportsItselfExactly) {
  // Within-bucket interpolation clamps to [min, max], so a lone sample is
  // reported exactly at every percentile — not smeared across its bucket.
  Histogram h;
  h.Record(163);
  for (const double p : {0.0, 50.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 163u) << "p=" << p;
  }
}

TEST(HistogramTest, RepeatedLargeValueExactViaClamp) {
  // A large value lands in a wide bucket; the [min, max] clamp keeps the
  // report exact even when every sample is identical.
  Histogram h;
  h.RecordMany(1'000'000, 100);
  EXPECT_EQ(h.Percentile(50), 1'000'000u);
  EXPECT_EQ(h.p999(), 1'000'000u);
}

TEST(HistogramTest, P999TracksTheTail) {
  Histogram h;
  for (std::uint64_t v = 1; v <= 100000; ++v) h.Record(v);
  EXPECT_LE(h.p99(), h.p999());
  EXPECT_LE(h.p999(), h.max());
  EXPECT_NEAR(static_cast<double>(h.p999()), 99900, 2000);
}

TEST(HistogramTest, ValuesAboveMaxClampToMax) {
  Histogram h(1000);
  h.Record(50000);
  EXPECT_EQ(h.max(), 1000u);
  EXPECT_EQ(h.Percentile(100), 1000u);
}

TEST(HistogramTest, NonZeroBucketsCoverRecordedValues) {
  Histogram h;
  const std::vector<std::uint64_t> values = {1, 7, 500, 40000, 1ull << 30};
  for (const std::uint64_t v : values) h.Record(v);
  const auto buckets = h.NonZeroBuckets();
  std::uint64_t total = 0;
  std::uint64_t prev_high = 0;
  for (const auto& b : buckets) {
    EXPECT_LE(b.low, b.high);
    if (total > 0) {
      EXPECT_GT(b.low, prev_high);  // ascending, disjoint
    }
    prev_high = b.high;
    total += b.count;
  }
  EXPECT_EQ(total, h.count());
  for (const std::uint64_t v : values) {
    const bool covered =
        std::any_of(buckets.begin(), buckets.end(), [v](const auto& b) {
          return b.low <= v && v <= b.high;
        });
    EXPECT_TRUE(covered) << v;
  }
}

TEST(HistogramTest, LargeValuesBounded) {
  Histogram h(1ull << 40);
  h.Record(1ull << 39);
  const double rel_err =
      std::abs(static_cast<double>(h.Percentile(100)) -
               static_cast<double>(1ull << 39)) /
      static_cast<double>(1ull << 39);
  EXPECT_LT(rel_err, 0.05);
}

// --- TablePrinter --------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"A", "Long header"});
  t.AddRow({"xx", "1"});
  const std::string s = t.ToString();
  EXPECT_NE(s.find("| A  | Long header |"), std::string::npos);
  EXPECT_NE(s.find("| xx | 1           |"), std::string::npos);
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(97.0), "97.0");
}

TEST(TablePrinterTest, ShortRowsPadded) {
  TablePrinter t({"A", "B"});
  t.AddRow({"only"});
  EXPECT_NO_FATAL_FAILURE(t.ToString());
}

}  // namespace
}  // namespace lmp
