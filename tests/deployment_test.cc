// Integration tests over the timing layer: the paper's Figures 2–5 and the
// §4.3/§4.4/§4.5 headline claims, asserted as test invariants.  A
// parameterized sweep checks the cross-cutting shape properties on every
// (vector size, link) combination.
#include <gtest/gtest.h>

#include "baselines/logical.h"
#include "baselines/physical.h"

namespace lmp::baselines {
namespace {

using fabric::LinkProfile;

VectorSumResult RunSum(MemoryDeployment& deployment, Bytes bytes,
                    int reps = 10) {
  VectorSumParams params;
  params.vector_bytes = bytes;
  params.repetitions = reps;
  auto result = deployment.RunVectorSum(params);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.value_or(VectorSumResult{});
}

// --- SliceForCores ------------------------------------------------------------

TEST(SliceForCoresTest, CoversExactlyOnce) {
  const auto slices = SliceForCores(GiB(8) + 5, 14);
  ASSERT_EQ(slices.size(), 14u);
  Bytes pos = 0;
  for (const auto& s : slices) {
    EXPECT_EQ(s.offset, pos);
    pos += s.length;
  }
  EXPECT_EQ(pos, GiB(8) + 5);
}

TEST(SliceForCoresTest, SingleCoreGetsAll) {
  const auto slices = SliceForCores(1000, 1);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].length, 1000u);
}

// --- Figure 2/3: vectors that fit one LMP server's local memory ---------------

TEST(FigureTest, Fig2LogicalRunsAtLocalSpeed) {
  LogicalDeployment logical(LinkProfile::Link0());
  const auto r = RunSum(logical, GiB(8));
  EXPECT_DOUBLE_EQ(r.local_fraction, 1.0);
  EXPECT_NEAR(r.avg_bandwidth_gbps, 97.0, 0.5);
}

TEST(FigureTest, Fig3HeadlineRatioVsNoCache) {
  // §4.3: "up to 4.7x improved bandwidth compared to Physical no-cache".
  LogicalDeployment logical(LinkProfile::Link1());
  PhysicalDeployment nocache(LinkProfile::Link1(), false);
  const double ratio = RunSum(logical, GiB(24)).avg_bandwidth_gbps /
                       RunSum(nocache, GiB(24)).avg_bandwidth_gbps;
  EXPECT_NEAR(ratio, 4.7, 0.3);
}

TEST(FigureTest, Fig3HeadlineRatioVsCache) {
  // §4.3: "up to 3.4x compared to Physical cache for the 24GB vector".
  LogicalDeployment logical(LinkProfile::Link1());
  PhysicalDeployment cache(LinkProfile::Link1(), true);
  const double ratio = RunSum(logical, GiB(24)).avg_bandwidth_gbps /
                       RunSum(cache, GiB(24)).avg_bandwidth_gbps;
  EXPECT_NEAR(ratio, 3.4, 0.4);
}

TEST(FigureTest, Fig2CacheBeatsNoCacheWhenVectorFits) {
  // 8 GiB fits the 8 GiB local cache: after the fill repetition, reads are
  // local, so the caching baseline clearly wins over no-cache.
  PhysicalDeployment cache(LinkProfile::Link0(), true);
  PhysicalDeployment nocache(LinkProfile::Link0(), false);
  EXPECT_GT(RunSum(cache, GiB(8)).avg_bandwidth_gbps,
            RunSum(nocache, GiB(8)).avg_bandwidth_gbps * 1.5);
}

TEST(FigureTest, Fig2CacheFirstRepIsFillBound) {
  PhysicalDeployment cache(LinkProfile::Link0(), true);
  const auto r = RunSum(cache, GiB(8));
  EXPECT_NEAR(r.first_rep_gbps, 34.5, 1.0);   // upfront memcpy at link speed
  EXPECT_NEAR(r.steady_rep_gbps, 97.0, 1.0);  // subsequent reads local
}

// --- Figure 4: 64 GiB, partial locality -----------------------------------------

TEST(FigureTest, Fig4LocalFractionIsThreeEighths) {
  LogicalDeployment logical(LinkProfile::Link1());
  const auto r = RunSum(logical, GiB(64));
  EXPECT_DOUBLE_EQ(r.local_fraction, 0.375);  // 24/64, §4.3's "3/8"
}

TEST(FigureTest, Fig4LogicalBeatsCacheBy42PercentOnLink1) {
  // §4.3: "Logical providing 42% higher bandwidth than Physical cache on
  // Link1".
  LogicalDeployment logical(LinkProfile::Link1());
  PhysicalDeployment cache(LinkProfile::Link1(), true);
  const double ratio = RunSum(logical, GiB(64)).avg_bandwidth_gbps /
                       RunSum(cache, GiB(64)).avg_bandwidth_gbps;
  EXPECT_NEAR(ratio, 1.42, 0.08);
}

// --- Figure 5: 96 GiB feasibility ------------------------------------------------

TEST(FigureTest, Fig5PhysicalInfeasibleLogicalFeasible) {
  for (const auto& link : {LinkProfile::Link0(), LinkProfile::Link1()}) {
    LogicalDeployment logical(link);
    PhysicalDeployment cache(link, true);
    PhysicalDeployment nocache(link, false);
    EXPECT_TRUE(RunSum(logical, GiB(96)).feasible);
    const auto rc = RunSum(cache, GiB(96));
    EXPECT_FALSE(rc.feasible);
    EXPECT_FALSE(rc.infeasible_reason.empty());
    EXPECT_FALSE(RunSum(nocache, GiB(96)).feasible);
  }
}

TEST(FigureTest, Fig5LogicalUsesWholePool) {
  LogicalDeployment logical(LinkProfile::Link0());
  const auto r = RunSum(logical, GiB(96));
  EXPECT_DOUBLE_EQ(r.local_fraction, 0.25);  // 24 of 96 local
  EXPECT_GT(r.avg_bandwidth_gbps, 34.5);     // still beats pure-remote
}

// --- §4.4 near-memory computing -----------------------------------------------------

TEST(NearMemoryTest, DistributedSumRunsAtAggregateLocalSpeed) {
  LogicalDeployment logical(LinkProfile::Link1());
  VectorSumParams params;
  params.vector_bytes = GiB(96);
  params.repetitions = 3;
  auto shipped = logical.RunDistributedSum(params);
  ASSERT_TRUE(shipped.ok());
  EXPECT_DOUBLE_EQ(shipped->local_fraction, 1.0);
  // All four servers stream locally: ~4 x 97 GB/s aggregate.
  EXPECT_NEAR(shipped->avg_bandwidth_gbps, 4 * 97.0, 5.0);
}

TEST(NearMemoryTest, ShippingBeatsSingleServerPull) {
  VectorSumParams params;
  params.vector_bytes = GiB(64);
  params.repetitions = 3;
  LogicalDeployment pull(LinkProfile::Link1());
  LogicalDeployment ship(LinkProfile::Link1());
  auto pulled = pull.RunVectorSum(params);
  auto shipped = ship.RunDistributedSum(params);
  ASSERT_TRUE(pulled.ok() && shipped.ok());
  EXPECT_GT(shipped->avg_bandwidth_gbps,
            pulled->avg_bandwidth_gbps * 2);
}

// --- Parameterized shape sweep -------------------------------------------------------

struct SweepCase {
  Bytes vector_bytes;
  bool link1;
};

// Without this, gtest prints the struct's raw bytes, padding included, so the
// case names (and the ctest names built from them) change from run to run.
void PrintTo(const SweepCase& c, std::ostream* os) {
  *os << c.vector_bytes / GiB(1) << "GiB_" << (c.link1 ? "Link1" : "Link0");
}

class ShapeSweepTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(ShapeSweepTest, LogicalNeverLosesToPhysical) {
  // §4.3: "Accessing disaggregated memory in LMPs is at least as fast as
  // accessing a physical pool in all cases."
  const auto [bytes, link1] = GetParam();
  const LinkProfile link =
      link1 ? LinkProfile::Link1() : LinkProfile::Link0();
  LogicalDeployment logical(link);
  PhysicalDeployment cache(link, true);
  PhysicalDeployment nocache(link, false);
  const auto rl = RunSum(logical, bytes, 5);
  const auto rc = RunSum(cache, bytes, 5);
  const auto rn = RunSum(nocache, bytes, 5);
  ASSERT_TRUE(rl.feasible);
  if (rc.feasible) {
    EXPECT_GE(rl.avg_bandwidth_gbps, rc.avg_bandwidth_gbps * 0.999);
  }
  if (rn.feasible) {
    EXPECT_GE(rl.avg_bandwidth_gbps, rn.avg_bandwidth_gbps * 0.999);
  }
}

TEST_P(ShapeSweepTest, NoCacheIsLinkBound) {
  const auto [bytes, link1] = GetParam();
  const LinkProfile link =
      link1 ? LinkProfile::Link1() : LinkProfile::Link0();
  PhysicalDeployment nocache(link, false);
  const auto r = RunSum(nocache, bytes, 3);
  if (!r.feasible) return;  // 96 GiB case
  EXPECT_NEAR(r.avg_bandwidth_gbps, link.bandwidth / 1e9, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ShapeSweepTest,
    ::testing::Values(SweepCase{GiB(8), false}, SweepCase{GiB(8), true},
                      SweepCase{GiB(24), false}, SweepCase{GiB(24), true},
                      SweepCase{GiB(64), false}, SweepCase{GiB(64), true},
                      SweepCase{GiB(96), false}, SweepCase{GiB(96), true}));

// --- LRU cache-policy ablation ---------------------------------------------------

TEST(CachePolicyAblationTest, LruThrashesOnOversizedSweep) {
  // With classic LRU, a 24 GiB cyclic sweep through an 8 GiB cache never
  // hits; the pinned policy retains an 8/24 hit rate.
  PhysicalDeployment pinned(LinkProfile::Link1(), true, CachePolicy::kPinned);
  PhysicalDeployment lru(LinkProfile::Link1(), true, CachePolicy::kLru);
  const auto rp = RunSum(pinned, GiB(24), 5);
  const auto rl = RunSum(lru, GiB(24), 5);
  EXPECT_GT(rp.cache_hit_rate, 0.3);
  EXPECT_LT(rl.cache_hit_rate, 0.05);
  EXPECT_GT(rp.avg_bandwidth_gbps, rl.avg_bandwidth_gbps);
}

TEST(CachePolicyAblationTest, LruStillWinsWhenVectorFits) {
  PhysicalDeployment lru(LinkProfile::Link0(), true, CachePolicy::kLru);
  PhysicalDeployment nocache(LinkProfile::Link0(), false);
  EXPECT_GT(RunSum(lru, GiB(8), 5).avg_bandwidth_gbps,
            RunSum(nocache, GiB(8), 5).avg_bandwidth_gbps * 1.5);
}

TEST(CachePolicyAblationTest, DirtyEvictionsChargeWritebackTraffic) {
  // Regression: dirty LRU evictions were counted in cache stats but never
  // charged as fabric traffic, so a write workload that thrashes the cache
  // ran exactly as fast as a read workload.  A 24 GiB sweep through the
  // 8 GiB cache evicts (almost) every page; in write mode each of those
  // evictions must flush 64 KiB back to the pool box.
  VectorSumParams write_params;
  write_params.vector_bytes = GiB(24);
  write_params.repetitions = 3;
  write_params.write = true;

  PhysicalDeployment writer(LinkProfile::Link1(), true, CachePolicy::kLru);
  auto w = writer.RunVectorSum(write_params);
  ASSERT_TRUE(w.ok()) << w.status();
  ASSERT_TRUE(w->feasible);
  EXPECT_GT(w->writeback_bytes, 0u);
  // Nearly every page beyond the cache's capacity gets written back: the
  // sweep dirties all 24 GiB and the cache retains at most 8 GiB.
  EXPECT_GE(w->writeback_bytes, GiB(24));

  PhysicalDeployment reader(LinkProfile::Link1(), true, CachePolicy::kLru);
  VectorSumParams read_params = write_params;
  read_params.write = false;
  auto r = reader.RunVectorSum(read_params);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r->writeback_bytes, 0u);
  // Writebacks contend for the fabric, so the write run must be slower.
  EXPECT_GT(w->total_time_ns, r->total_time_ns);
}

}  // namespace
}  // namespace lmp::baselines
