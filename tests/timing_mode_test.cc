// Tests for timing-only (no backing store) operation: the mode the
// paper-scale benches run in.  Every control-plane operation must work on
// pure accounting; only data-plane Read/Write require real bytes.
#include <gtest/gtest.h>

#include "baselines/logical.h"
#include "core/erasure.h"
#include "core/replication.h"

namespace lmp::core {
namespace {

cluster::ClusterConfig BarePaperConfig() {
  // The real paper-scale config: 96 GiB of accounting, zero real bytes.
  return cluster::ClusterConfig::PaperLogical();
}

TEST(TimingModeTest, PaperScaleAllocationIsPureAccounting) {
  cluster::Cluster cluster(BarePaperConfig());
  PoolManager manager(&cluster);
  auto buf = manager.Allocate(GiB(96), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(cluster.PooledFreeBytes(), 0u);
  ASSERT_TRUE(manager.Free(*buf).ok());
  EXPECT_EQ(cluster.PooledFreeBytes(), GiB(96));
}

TEST(TimingModeTest, MigrationWorksWithoutBacking) {
  cluster::Cluster cluster(BarePaperConfig());
  PoolManager manager(&cluster);
  auto buf = manager.Allocate(GiB(4), 0);
  ASSERT_TRUE(buf.ok());
  const auto seg = manager.Describe(*buf)->segments[0];
  auto rec = manager.MigrateSegment(seg, 2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->bytes, GiB(4));
  EXPECT_DOUBLE_EQ(manager.LocalFraction(*buf, 2).value_or(0), 1.0);
}

TEST(TimingModeTest, ReplicationFailoverWithoutBacking) {
  cluster::Cluster cluster(BarePaperConfig());
  PoolManager manager(&cluster);
  ReplicationManager repl(&manager, 1);
  auto buf = manager.Allocate(GiB(2), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(repl.ProtectBuffer(*buf).ok());
  const auto lost = manager.OnServerCrash(0);
  ASSERT_TRUE(lost.ok());
  EXPECT_TRUE(lost->empty());
  // Spans still resolve (to the promoted replica's home).
  EXPECT_TRUE(manager.Spans(*buf, 0, GiB(2)).ok());
}

TEST(TimingModeTest, ErasureRecoveryWithoutBacking) {
  cluster::Cluster cluster(BarePaperConfig());
  PoolManager manager(&cluster);
  XorErasureManager erasure(&manager, 2);
  std::vector<SegmentId> segments;
  std::vector<BufferId> buffers;
  for (int s = 0; s < 2; ++s) {
    auto buf = manager.Allocate(GiB(2),
                                static_cast<cluster::ServerId>(s));
    ASSERT_TRUE(buf.ok());
    buffers.push_back(*buf);
    segments.push_back(manager.Describe(*buf)->segments[0]);
  }
  ASSERT_TRUE(erasure.ProtectSegments(segments).ok());
  ASSERT_TRUE(manager.OnServerCrash(0).ok());
  auto recovered = erasure.RecoverAllLost();
  ASSERT_TRUE(recovered.ok());
  EXPECT_GE(*recovered, 1);
  EXPECT_TRUE(manager.Spans(buffers[0], 0, GiB(2)).ok());
}

TEST(TimingModeTest, SplitGrowShrinkWithoutBacking) {
  cluster::Cluster cluster(BarePaperConfig());
  PoolManager manager(&cluster);
  auto buf = manager.Allocate(GiB(8), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager.SplitSegmentAt(*buf, GiB(4)).ok());
  ASSERT_TRUE(manager.Grow(*buf, GiB(8), 1).ok());
  ASSERT_TRUE(manager.Shrink(*buf, GiB(4)).ok());
  EXPECT_EQ(manager.Describe(*buf)->size, GiB(4));
}

TEST(TimingModeTest, ReadRequiresBackingButTouchDoesNot) {
  cluster::Cluster cluster(BarePaperConfig());
  PoolManager manager(&cluster);
  auto buf = manager.Allocate(GiB(1), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_TRUE(manager.Touch(1, *buf, 0, GiB(1), 0).ok());
  std::vector<std::byte> out(64);
  EXPECT_EQ(manager.Read(1, *buf, 0, out).code(),
            StatusCode::kFailedPrecondition);
}

// The deployment abstraction generalizes to the Table-1 CXL profiles.
TEST(TimingModeTest, PondAndFpgaProfilesRunFigures) {
  for (const auto& link :
       {fabric::LinkProfile::PondCxl(), fabric::LinkProfile::FpgaCxl()}) {
    baselines::LogicalDeployment logical(link);
    baselines::VectorSumParams params;
    params.vector_bytes = GiB(64);
    params.repetitions = 2;
    auto r = logical.RunWorkload({.vector = params});
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->vector.feasible);
    // Remote portion bound by the profile's bandwidth; local still 97.
    EXPECT_GT(r->vector.avg_bandwidth_gbps, link.bandwidth / 1e9);
    EXPECT_LT(r->vector.avg_bandwidth_gbps, 97.0);
  }
}

}  // namespace
}  // namespace lmp::core
