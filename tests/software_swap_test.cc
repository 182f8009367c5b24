// Tests for the software-disaggregation baseline (§2.1): fault-overhead
// throttling, resident-set behaviour, and the hardware-vs-software gap.
#include <gtest/gtest.h>

#include "baselines/logical.h"
#include "baselines/software_swap.h"

namespace lmp::baselines {
namespace {

using fabric::LinkProfile;

VectorSumResult RunSwap(SoftwareSwapDeployment& d, Bytes bytes) {
  VectorSumParams params;
  params.vector_bytes = bytes;
  params.repetitions = 3;
  auto r = d.RunWorkload({.vector = params});
  EXPECT_TRUE(r.ok()) << r.status();
  return r.ok() ? r->vector : VectorSumResult{};
}

TEST(SoftwareSwapTest, ResidentWorkingSetRunsAtDramSpeed) {
  SoftwareSwapDeployment swap(LinkProfile::Link0());
  const auto r = RunSwap(swap, GiB(8));  // fits the 24 GiB resident set
  EXPECT_NEAR(r.avg_bandwidth_gbps, 97.0, 1.0);
  EXPECT_DOUBLE_EQ(r.local_fraction, 1.0);
}

TEST(SoftwareSwapTest, SwappedPortionIsFaultBound) {
  SoftwareSwapDeployment swap(LinkProfile::Link0());
  const auto r = RunSwap(swap, GiB(96));
  // 14 cores x (4 KiB / 4 us) ~ 14.3 GB/s fault ceiling on the swapped
  // 3/4 of the vector; way below the 34.5 GB/s the link could carry.
  EXPECT_LT(r.avg_bandwidth_gbps, 20.0);
  EXPECT_GT(r.avg_bandwidth_gbps, 10.0);
}

TEST(SoftwareSwapTest, HardwareDisaggregationWins) {
  // §2.1: load/store (CXL) beats software paging for the same workload.
  SoftwareSwapDeployment swap(LinkProfile::Link1());
  LogicalDeployment logical(LinkProfile::Link1());
  VectorSumParams params;
  params.vector_bytes = GiB(96);
  params.repetitions = 3;
  auto sw = swap.RunWorkload({.vector = params});
  auto hw = logical.RunWorkload({.vector = params});
  ASSERT_TRUE(sw.ok() && hw.ok());
  EXPECT_GT(hw->vector.avg_bandwidth_gbps,
            sw->vector.avg_bandwidth_gbps * 1.5);
}

TEST(SoftwareSwapTest, SmallerPagesFaultMore) {
  SoftwareSwapParams big_pages{.page_size = KiB(64),
                               .fault_overhead_ns = Microseconds(4)};
  SoftwareSwapParams small_pages{.page_size = KiB(4),
                                 .fault_overhead_ns = Microseconds(4)};
  SoftwareSwapDeployment big(LinkProfile::Link0(), big_pages);
  SoftwareSwapDeployment small(LinkProfile::Link0(), small_pages);
  EXPECT_GT(RunSwap(big, GiB(96)).avg_bandwidth_gbps,
            RunSwap(small, GiB(96)).avg_bandwidth_gbps);
}

TEST(SoftwareSwapTest, LatencyGapIsOrdersOfMagnitude) {
  SoftwareSwapDeployment swap(LinkProfile::Link0());
  EXPECT_NEAR(swap.ResidentReadLatency(), 82.0, 1.0);
  // Fault path: ~4 us overhead dominates the wire time.
  EXPECT_GT(swap.SwappedReadLatency(), 4000.0);
  EXPECT_GT(swap.SwappedReadLatency() / swap.ResidentReadLatency(), 40.0);
}

TEST(SoftwareSwapTest, FaultPlanOrReplicationIsUnimplemented) {
  // No failure model: the swap baseline runs healthy workloads only.
  SoftwareSwapDeployment swap(LinkProfile::Link0());
  WorkloadSpec faulty{.vector = {.vector_bytes = GiB(8)}};
  faulty.faults.CrashAt(Microseconds(10), 1);
  EXPECT_EQ(swap.RunWorkload(faulty).status().code(),
            StatusCode::kUnimplemented);
  WorkloadSpec replicated{.vector = {.vector_bytes = GiB(8)},
                          .replication_factor = 1};
  EXPECT_EQ(swap.RunWorkload(replicated).status().code(),
            StatusCode::kUnimplemented);
}

TEST(SoftwareSwapTest, OversizedWorkingSetInfeasible) {
  SoftwareSwapDeployment swap(LinkProfile::Link0());
  const auto r = RunSwap(swap, GiB(120));  // 24 resident + 96 > 3x24 far
  EXPECT_FALSE(r.feasible);
}

}  // namespace
}  // namespace lmp::baselines
