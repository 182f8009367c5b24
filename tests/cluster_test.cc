// Tests for cluster/: server private/shared split, resize semantics, the
// paper deployment configs, crash/recover, and the §4.2 cost model.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/cost_model.h"

namespace lmp::cluster {
namespace {

TEST(ServerTest, SplitAccounting) {
  Server s(0, GiB(24), GiB(16), 14, mem::kDefaultFrameSize, false);
  EXPECT_EQ(s.total_memory(), GiB(24));
  EXPECT_EQ(s.shared_bytes(), GiB(16));
  EXPECT_EQ(s.private_bytes(), GiB(8));
  EXPECT_EQ(s.cores(), 14);
}

TEST(ServerTest, GrowSharedRegion) {
  Server s(0, GiB(24), GiB(8), 14, mem::kDefaultFrameSize, false);
  ASSERT_TRUE(s.ResizeShared(GiB(20)).ok());
  EXPECT_EQ(s.shared_bytes(), GiB(20));
  EXPECT_EQ(s.private_bytes(), GiB(4));
}

TEST(ServerTest, SharedCannotExceedTotal) {
  Server s(0, GiB(24), GiB(8), 14, mem::kDefaultFrameSize, false);
  EXPECT_FALSE(s.ResizeShared(GiB(25)).ok());
  EXPECT_EQ(s.shared_bytes(), GiB(8));
}

TEST(ServerTest, ShrinkBlockedByLiveData) {
  Server s(0, MiB(64), MiB(64), 4, KiB(4), false);
  auto runs = s.shared_allocator().Allocate(mem::AllocRequest::Of(
      mem::FramesForBytes(MiB(48), KiB(4))));
  ASSERT_TRUE(runs.ok());
  EXPECT_FALSE(s.ResizeShared(MiB(16)).ok());  // live frames in the tail
  ASSERT_TRUE(s.shared_allocator().Free(*runs).ok());
  EXPECT_TRUE(s.ResizeShared(MiB(16)).ok());
}

TEST(ServerTest, RecoverClearsAllocations) {
  Server s(0, MiB(4), MiB(4), 4, KiB(4), true);
  ASSERT_TRUE(s.shared_allocator().Allocate(mem::AllocRequest::Of(10)).ok());
  ASSERT_TRUE(s.Crash().ok());
  EXPECT_TRUE(s.crashed());
  // Double crash / double recover are state errors, not silent no-ops.
  EXPECT_EQ(s.Crash().code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(s.Recover().ok());
  EXPECT_EQ(s.Recover().code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(s.crashed());
  EXPECT_EQ(s.shared_allocator().free_frames(),
            s.shared_allocator().num_frames());
}

TEST(ServerTest, BackingOnlyWhenRequested) {
  Server with(0, MiB(1), MiB(1), 1, KiB(4), true);
  Server without(1, MiB(1), MiB(1), 1, KiB(4), false);
  EXPECT_TRUE(with.has_backing());
  EXPECT_FALSE(without.has_backing());
}

TEST(PoolDeviceTest, CapacityAndCrash) {
  PoolDevice pool(GiB(64), mem::kDefaultFrameSize, false);
  EXPECT_EQ(pool.capacity(), GiB(64));
  EXPECT_EQ(pool.allocator().capacity_bytes(), GiB(64));
  EXPECT_FALSE(pool.has_backing());
}

// --- Paper configurations (§4.1) ---------------------------------------------

TEST(ClusterConfigTest, PaperDeploymentsHoldTotalMemoryEqual) {
  const auto logical = ClusterConfig::PaperLogical();
  const auto physical = ClusterConfig::PaperPhysical();
  EXPECT_EQ(logical.TotalMemory(), GiB(96));
  EXPECT_EQ(physical.TotalMemory(), GiB(96));
}

TEST(ClusterConfigTest, PaperPoolSizes) {
  EXPECT_EQ(ClusterConfig::PaperLogical().TotalPooledMemory(), GiB(96));
  EXPECT_EQ(ClusterConfig::PaperPhysical().TotalPooledMemory(), GiB(64));
}

TEST(ClusterTest, BuildsLogical) {
  Cluster c(ClusterConfig::PaperLogical());
  EXPECT_EQ(c.num_servers(), 4);
  EXPECT_FALSE(c.has_pool());
  EXPECT_EQ(c.PooledCapacityBytes(), GiB(96));
  EXPECT_EQ(c.PooledFreeBytes(), GiB(96));
}

TEST(ClusterTest, BuildsPhysical) {
  Cluster c(ClusterConfig::PaperPhysical());
  EXPECT_TRUE(c.has_pool());
  EXPECT_EQ(c.pool().capacity(), GiB(64));
  EXPECT_EQ(c.PooledCapacityBytes(), GiB(64));
}

TEST(ClusterTest, CrashReducesPooledCapacity) {
  Cluster c(ClusterConfig::PaperLogical());
  ASSERT_TRUE(c.server(1).Crash().ok());
  EXPECT_EQ(c.PooledCapacityBytes(), GiB(72));
}

// --- Cost model (§4.2) -----------------------------------------------------------

TEST(CostModelTest, LogicalNeedsNoPoolChassis) {
  const auto cost = LogicalDeploymentCost(4, GiB(24), GiB(24));
  EXPECT_EQ(cost.inventory.pool_chassis, 0);
  EXPECT_EQ(cost.inventory.switch_ports, 4);
  EXPECT_EQ(cost.inventory.fabric_adapters, 4);
}

TEST(CostModelTest, PhysicalNeedsExtraComponents) {
  const auto cost = PhysicalDeploymentCost(4, GiB(8), GiB(64));
  EXPECT_EQ(cost.inventory.pool_chassis, 1);
  EXPECT_EQ(cost.inventory.switch_ports, 5);     // +1 pool link
  EXPECT_GT(cost.inventory.rack_units, 4);       // pool takes rack space
}

TEST(CostModelTest, EqualTotalMemoryLogicalIsCheaper) {
  // Scenario 2 of §4.2: equal total memory (96 GB each).
  const auto logical = LogicalDeploymentCost(4, GiB(24), GiB(24));
  const auto physical = PhysicalDeploymentCost(4, GiB(8), GiB(64));
  EXPECT_EQ(logical.inventory.total_memory, physical.inventory.total_memory);
  EXPECT_LT(logical.total_usd, physical.total_usd);
}

TEST(CostModelTest, EqualDisaggregatedMemoryPhysicalNeedsMoreDimms) {
  // Scenario 1 of §4.2: equal disaggregated memory (64 GB pooled each);
  // the physical deployment needs extra DIMMs for server-local memory.
  const auto logical = LogicalDeploymentCost(4, GiB(16), GiB(16));
  const auto physical = PhysicalDeploymentCost(4, GiB(8), GiB(64));
  EXPECT_EQ(logical.inventory.disaggregated_memory,
            physical.inventory.disaggregated_memory);
  EXPECT_GT(physical.inventory.dimms, logical.inventory.dimms);
  EXPECT_LT(logical.total_usd, physical.total_usd);
}

TEST(CostModelTest, MultiplePoolLinksRaiseCost) {
  const auto one = PhysicalDeploymentCost(4, GiB(8), GiB(64), 1);
  const auto four = PhysicalDeploymentCost(4, GiB(8), GiB(64), 4);
  EXPECT_GT(four.total_usd, one.total_usd);
  EXPECT_EQ(four.inventory.switch_ports, 8);
}

TEST(CostModelTest, InventoryToStringMentionsKeyFields) {
  const auto cost = PhysicalDeploymentCost(4, GiB(8), GiB(64));
  const std::string s = cost.inventory.ToString();
  EXPECT_NE(s.find("pool_chassis=1"), std::string::npos);
  EXPECT_NE(s.find("servers=4"), std::string::npos);
}

}  // namespace
}  // namespace lmp::cluster
