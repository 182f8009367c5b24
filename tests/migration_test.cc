// Tests for MigrationEngine: candidate selection, benefit gating, caps,
// and end-to-end hot-data locality improvement.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/migration.h"
#include "core/pool_manager.h"

namespace lmp::core {
namespace {

cluster::ClusterConfig Config() {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = MiB(4);
  config.server_shared_memory = MiB(4);
  config.frame_size = KiB(4);
  config.with_backing = true;
  return config;
}

class MigrationTest : public ::testing::Test {
 protected:
  MigrationTest() : cluster_(Config()), manager_(&cluster_) {}

  SegmentId AllocOn(cluster::ServerId server, Bytes size = KiB(64)) {
    auto buf = manager_.Allocate(size, server);
    EXPECT_TRUE(buf.ok());
    return manager_.Describe(*buf)->segments[0];
  }

  cluster::Cluster cluster_;
  PoolManager manager_;
};

TEST_F(MigrationTest, MigratesSegmentTowardDominantRemoteAccessor) {
  const SegmentId seg = AllocOn(0);
  // Server 2 hammers it remotely, far beyond the copy cost.
  manager_.access_tracker().RecordAccess(seg, 2, double(MiB(2)), 0);
  MigrationEngine engine(&manager_);
  std::vector<MigrationRecord> records;
  const auto stats = engine.RunOnce(0, &records);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->migrated, 1);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].segment, seg);
  EXPECT_EQ(records[0].to.server, 2u);
  EXPECT_EQ(manager_.segment_map().Find(seg)->home.server, 2u);
}

TEST_F(MigrationTest, LocalDominantAccessorIsNotACandidate) {
  const SegmentId seg = AllocOn(1);
  manager_.access_tracker().RecordAccess(seg, 1, double(MiB(2)), 0);
  MigrationEngine engine(&manager_);
  const auto stats = engine.RunOnce(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->candidates, 0);
  EXPECT_EQ(manager_.segment_map().Find(seg)->home.server, 1u);
}

TEST_F(MigrationTest, InsufficientTrafficDoesNotPayCopyCost) {
  const SegmentId seg = AllocOn(0, KiB(64));
  // Remote traffic below benefit_factor * size.
  manager_.access_tracker().RecordAccess(seg, 2, double(KiB(32)), 0);
  MigrationEngine engine(&manager_);
  EXPECT_EQ(engine.RunOnce(0)->candidates, 0);
}

TEST_F(MigrationTest, NonDominantSharesDoNotTrigger) {
  const SegmentId seg = AllocOn(0);
  // Three servers split traffic evenly: nobody dominates.
  for (cluster::ServerId s : {1u, 2u, 3u}) {
    manager_.access_tracker().RecordAccess(seg, s, double(MiB(1)), 0);
  }
  MigrationConfig config;
  config.dominance_threshold = 0.55;
  MigrationEngine engine(&manager_, config);
  EXPECT_EQ(engine.RunOnce(0)->candidates, 0);
}

TEST_F(MigrationTest, RoundCapLimitsMigrations) {
  MigrationConfig config;
  config.max_migrations_per_round = 2;
  MigrationEngine engine(&manager_, config);
  for (int i = 0; i < 5; ++i) {
    const SegmentId seg = AllocOn(0, KiB(16));
    manager_.access_tracker().RecordAccess(seg, 1, double(MiB(1)), 0);
  }
  const auto stats = engine.RunOnce(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->candidates, 5);
  EXPECT_EQ(stats->migrated, 2);
}

TEST_F(MigrationTest, HighestNetBenefitMovesFirst) {
  MigrationConfig config;
  config.max_migrations_per_round = 1;
  MigrationEngine engine(&manager_, config);
  const SegmentId cool = AllocOn(0, KiB(16));
  const SegmentId hot = AllocOn(0, KiB(16));
  manager_.access_tracker().RecordAccess(cool, 1, double(KiB(64)), 0);
  manager_.access_tracker().RecordAccess(hot, 1, double(MiB(1)), 0);
  std::vector<MigrationRecord> records;
  ASSERT_TRUE(engine.RunOnce(0, &records).ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].segment, hot);
}

TEST_F(MigrationTest, EqualScoresMigrateLowestSegmentFirst) {
  MigrationConfig config;
  config.max_migrations_per_round = 1;
  MigrationEngine engine(&manager_, config);
  std::vector<SegmentId> segs;
  for (int i = 0; i < 6; ++i) {
    segs.push_back(AllocOn(0, KiB(16)));
    manager_.access_tracker().RecordAccess(segs.back(), 1, double(MiB(1)), 0);
  }
  std::vector<MigrationRecord> records;
  const auto stats = engine.RunOnce(0, &records);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->candidates, 6);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].segment, *std::min_element(segs.begin(), segs.end()));
}

TEST_F(MigrationTest, SkipsWhenDestinationFull) {
  // Fill server 1 completely.
  ASSERT_TRUE(manager_.Allocate(MiB(4), 1).ok());
  const SegmentId seg = AllocOn(0);
  manager_.access_tracker().RecordAccess(seg, 1, double(MiB(2)), 0);
  MigrationEngine engine(&manager_);
  const auto stats = engine.RunOnce(0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->migrated, 0);
  EXPECT_EQ(stats->skipped_capacity, 1);
}

TEST_F(MigrationTest, MigrationPreservesDataEndToEnd) {
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  std::vector<std::byte> in(KiB(32), std::byte{0x5A});
  ASSERT_TRUE(manager_.Write(0, *buf, 0, in).ok());
  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  manager_.access_tracker().RecordAccess(seg, 3, double(MiB(2)), 0);
  MigrationEngine engine(&manager_);
  ASSERT_EQ(engine.RunOnce(0)->migrated, 1);
  std::vector<std::byte> out(KiB(32));
  ASSERT_TRUE(manager_.Read(3, *buf, 0, out).ok());
  EXPECT_EQ(in, out);
}

TEST_F(MigrationTest, RepeatedRoundsConverge) {
  const SegmentId seg = AllocOn(0);
  manager_.access_tracker().RecordAccess(seg, 2, double(MiB(2)), 0);
  MigrationEngine engine(&manager_);
  EXPECT_EQ(engine.RunOnce(0)->migrated, 1);
  // Traffic profile unchanged; segment already at its dominant accessor.
  EXPECT_EQ(engine.RunOnce(0)->migrated, 0);
}

}  // namespace
}  // namespace lmp::core
