// Integration tests over the timing layer: the paper's Figures 2–5 and the
// §4.3/§4.4/§4.5 headline claims, asserted as test invariants.  A
// parameterized sweep checks the cross-cutting shape properties on every
// (vector size, link) combination.
#include <gtest/gtest.h>

#include <memory>

#include "baselines/logical.h"
#include "baselines/physical.h"
#include "baselines/software_swap.h"
#include "core/placement.h"

namespace lmp::baselines {
namespace {

using fabric::LinkProfile;

VectorSumResult RunSum(MemoryDeployment& deployment, Bytes bytes,
                    int reps = 10) {
  VectorSumParams params;
  params.vector_bytes = bytes;
  params.repetitions = reps;
  auto result = deployment.RunWorkload({.vector = params});
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? result->vector : VectorSumResult{};
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
  auto pulled = pull.RunWorkload({.vector = params});
  auto shipped = ship.RunDistributedSum(params);
  ASSERT_TRUE(pulled.ok() && shipped.ok());
  EXPECT_GT(shipped->avg_bandwidth_gbps,
            pulled->vector.avg_bandwidth_gbps * 2);
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

// --- Golden pin --------------------------------------------------------------
//
// Exact results for one small cell per vector-sum path.  The figure tests
// above check ratios within tolerances; these pin every simulated number
// bit for bit, so a refactor of the deployment harness that changes any
// result (flow order, span coalescing, repetition accounting) fails here.

struct Golden {
  SimTime total_time_ns;
  double avg_gbps;
  double first_gbps;
  double steady_gbps;
  double cache_hit_rate;
};

void ExpectGolden(const VectorSumResult& r, const Golden& g) {
  EXPECT_TRUE(r.feasible);
  EXPECT_EQ(r.total_time_ns, g.total_time_ns);
  EXPECT_EQ(r.avg_bandwidth_gbps, g.avg_gbps);
  EXPECT_EQ(r.first_rep_gbps, g.first_gbps);
  EXPECT_EQ(r.steady_rep_gbps, g.steady_gbps);
  EXPECT_EQ(r.cache_hit_rate, g.cache_hit_rate);
}

VectorSumResult RunGolden(MemoryDeployment& deployment,
                          const VectorSumParams& params) {
  auto r = deployment.RunWorkload({.vector = params});
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->vector : VectorSumResult{};
}

VectorSumParams GoldenParams(Bytes bytes, bool balanced = false) {
  return VectorSumParams{.vector_bytes = bytes,
                         .repetitions = 3,
                         .balanced_slices = balanced};
}

TEST(VectorSumGoldenTest, LogicalContiguous) {
  LogicalDeployment logical(LinkProfile::Link1());
  ExpectGolden(RunGolden(logical, GoldenParams(GiB(64))),
               Golden{0x1.6db6db6e92492p+32, 0x1.0ccccccc2b852p+5,
                      0x1.0ccccccc2b852p+5, 0x1.0ccccccc2b851p+5, 0});
}

TEST(VectorSumGoldenTest, LogicalBalanced) {
  LogicalDeployment logical(LinkProfile::Link1());
  ExpectGolden(RunGolden(logical, GoldenParams(GiB(64), true)),
               Golden{0x1.9d382d3e35899p+32, 0x1.dbcbadc7f10d2p+4,
                      0x1.dbcbadc7f10cfp+4, 0x1.dbcbadc7f10d1p+4, 0});
}

TEST(VectorSumGoldenTest, LogicalSecondRunOnSameDeployment) {
  LogicalDeployment logical(LinkProfile::Link0());
  RunGolden(logical, GoldenParams(GiB(64)));
  ExpectGolden(RunGolden(logical, GoldenParams(GiB(96))),
               Golden{0x1.90b21644bd378p+32, 0x1.6ffffffe34002p+5,
                      0x1.6ffffffe34001p+5, 0x1.6ffffffe34004p+5, 0});
}

TEST(VectorSumGoldenTest, DistributedSum) {
  // Every server sums its own part, so the runner does not matter.
  for (const int runner : {0, 2}) {
    LogicalDeployment logical(LinkProfile::Link1());
    VectorSumParams params = GoldenParams(GiB(64));
    params.runner = runner;
    auto r = logical.RunDistributedSum(params);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(r->local_fraction, 1.0);
    ExpectGolden(*r, Golden{0x1.7c0a8e957c0a9p+29, 0x1.02aaaa9ebcf68p+8,
                            0x1.02aaaa9ebcf68p+8, 0x1.02aaaa9ebcf68p+8, 0});
  }
}

TEST(VectorSumGoldenTest, PhysicalNoCache) {
  PhysicalDeployment nocache(LinkProfile::Link0(), false);
  ExpectGolden(RunGolden(nocache, GoldenParams(GiB(24))),
               Golden{0x1.0b21642fc8591p+31, 0x1.13fffffca18p+5,
                      0x1.13fffffca17ffp+5, 0x1.13fffffca18p+5, 0});
}

TEST(VectorSumGoldenTest, PhysicalPinnedCache) {
  PhysicalDeployment pinned(LinkProfile::Link1(), true);
  ExpectGolden(RunGolden(pinned, GoldenParams(GiB(24))),
               Golden{0x1.5555555779e7ap+31, 0x1.affffffd49b6ep+4,
                      0x1.4ffffffe5cp+4, 0x1.f7fffffc4effdp+4,
                      0x1.5555555555555p-2});
}

TEST(VectorSumGoldenTest, SoftwareSwap) {
  SoftwareSwapDeployment swap(LinkProfile::Link0());
  ExpectGolden(RunGolden(swap, GoldenParams(GiB(96))),
               Golden{0x1.416db6e397p+34, 0x1.cac08306c8b44p+3,
                      0x1.cac08306c8b44p+3, 0x1.cac08306c8b44p+3, 0});
}

TEST(VectorSumGoldenTest, CrashWithReplication) {
  cluster::ClusterConfig config;
  config.server_total_memory = MiB(4);
  config.server_shared_memory = MiB(4);
  config.frame_size = KiB(4);
  LogicalDeployment logical(
      LinkProfile::Link0(), config,
      std::make_unique<core::RoundRobinPlacement>(KiB(512)));
  WorkloadSpec spec;
  spec.vector = VectorSumParams{.vector_bytes = MiB(2), .repetitions = 4};
  spec.replication_factor = 1;
  spec.faults.DegradeLinkAt(Microseconds(10), 0, 0.5, 2.0)
      .CrashAt(Microseconds(30), 1)
      .RestoreLinkAt(Microseconds(120), 0);
  auto r = logical.RunWorkload(spec);
  ASSERT_TRUE(r.ok()) << r.status();
  ExpectGolden(r->vector, Golden{0x1.b1ea5cc0ed72fp+17, 0x1.2e116b62b2851p+5,
                              0x1.7087aa7519b1fp+4, 0x1.b3f2bb313b584p+5, 0});
  EXPECT_EQ(r->reps_unavailable, 0);
  EXPECT_EQ(r->reps_degraded, 1);
  EXPECT_EQ(r->chaos.crashes, 1);
  EXPECT_EQ(r->chaos.link_degrades, 1);
  EXPECT_EQ(r->chaos.link_restores, 1);
  EXPECT_EQ(r->chaos.segments_lost, 0);
  EXPECT_EQ(r->chaos.replicas_recreated, 2);
  EXPECT_EQ(r->chaos.bytes_rereplicated, MiB(1));
  EXPECT_EQ(r->chaos.max_time_to_redundancy, 0x1.7343b8a49873fp+17);
  EXPECT_EQ(r->chaos.total_unavailability, 0);
  EXPECT_EQ(r->chaos.degraded_bytes_served, 0x1.cf41cp+20);
}

// --- Parameter validation ----------------------------------------------------

enum class Path { kLogical, kDistributed, kCache, kNoCache, kSoftwareSwap };

void PrintTo(Path path, std::ostream* os) {
  constexpr const char* kNames[] = {"Logical", "Distributed", "Cache",
                                    "NoCache", "SoftwareSwap"};
  *os << kNames[static_cast<int>(path)];
}

Status RunPath(Path path, const VectorSumParams& params) {
  const LinkProfile link = LinkProfile::Link0();
  switch (path) {
    case Path::kLogical:
      return LogicalDeployment(link).RunWorkload({.vector = params}).status();
    case Path::kDistributed:
      return LogicalDeployment(link).RunDistributedSum(params).status();
    case Path::kCache:
    case Path::kNoCache:
      return PhysicalDeployment(link, path == Path::kCache)
          .RunWorkload({.vector = params})
          .status();
    case Path::kSoftwareSwap:
      return SoftwareSwapDeployment(link)
          .RunWorkload({.vector = params})
          .status();
  }
  return InternalError("unknown path");
}

class ParamValidationTest : public ::testing::TestWithParam<Path> {};

TEST_P(ParamValidationTest, BadParamsAreInvalidArgument) {
  // Every paper config has 4 servers x 14 cores.
  const VectorSumParams ok{.vector_bytes = GiB(1), .repetitions = 1};
  auto with = [&](auto field, auto value) {
    VectorSumParams p = ok;
    p.*field = value;
    return p;
  };
  const std::pair<const char*, VectorSumParams> bad[] = {
      {"vector_bytes", with(&VectorSumParams::vector_bytes, Bytes{0})},
      {"repetitions", with(&VectorSumParams::repetitions, 0)},
      {"repetitions", with(&VectorSumParams::repetitions, -1)},
      {"cores", with(&VectorSumParams::cores, 0)},
      {"cores", with(&VectorSumParams::cores, 15)},
      {"cores", with(&VectorSumParams::cores, 20)},
      {"runner", with(&VectorSumParams::runner, -1)},
      {"runner", with(&VectorSumParams::runner, 4)},
  };
  for (const auto& [field, params] : bad) {
    const Status st = RunPath(GetParam(), params);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << field << ": " << st;
    EXPECT_NE(st.message().find(field), std::string::npos) << st;
  }
  // The edges of each range are accepted.
  VectorSumParams edge = ok;
  edge.cores = 14;
  edge.runner = 3;
  EXPECT_TRUE(RunPath(GetParam(), edge).ok());
  edge.cores = 1;
  edge.runner = 0;
  EXPECT_TRUE(RunPath(GetParam(), edge).ok());
}

INSTANTIATE_TEST_SUITE_P(AllDeployments, ParamValidationTest,
                         ::testing::Values(Path::kLogical, Path::kDistributed,
                                           Path::kCache, Path::kNoCache,
                                           Path::kSoftwareSwap));

// --- Contracts of the shared entry point -------------------------------------

TEST(PhysicalChaosTest, InfeasibleRunStillDrainsItsFaultPlan) {
  // 96 GiB does not fit the 64 GiB pool box; the plan still runs out.
  PhysicalDeployment cache(LinkProfile::Link0(), true);
  WorkloadSpec spec{.vector = {.vector_bytes = GiB(96)}};
  spec.faults.CrashAt(Microseconds(10), 1);
  auto r = cache.RunWorkload(spec);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->vector.feasible);
  EXPECT_FALSE(r->vector.infeasible_reason.empty());
  EXPECT_GE(cache.simulator().now(), Microseconds(10));
  EXPECT_EQ(r->chaos.crashes, 1);
}

TEST(LogicalReplicationTest, EnableReplicationAfterAnyRunFails) {
  // Every run binds the injector, so a replication layer attached later
  // would have its recovery traffic unpriced.
  LogicalDeployment logical(LinkProfile::Link0());
  ASSERT_TRUE(
      logical.RunWorkload({.vector = {.vector_bytes = GiB(1)}}).ok());
  EXPECT_EQ(logical.EnableReplication(1).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace lmp::baselines
