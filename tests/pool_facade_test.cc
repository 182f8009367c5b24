// Tests for the lmp::Pool facade.
#include <gtest/gtest.h>

#include "core/lmp.h"

namespace lmp {
namespace {

TEST(PoolFacadeTest, CreateSmallAndRoundTrip) {
  auto pool_or = Pool::Create(PoolOptions::Small());
  ASSERT_TRUE(pool_or.ok());
  Pool& pool = **pool_or;
  auto buf = pool.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  std::vector<double> in(100, 2.5);
  ASSERT_TRUE(pool.WriteArray<double>(0, *buf, 0,
                                      std::span<const double>(in)).ok());
  std::vector<double> out(100);
  ASSERT_TRUE(pool.ReadArray<double>(1, *buf, 0,
                                     std::span<double>(out)).ok());
  EXPECT_EQ(in, out);
  EXPECT_TRUE(pool.Free(*buf).ok());
}

TEST(PoolFacadeTest, RejectsBadOptions) {
  PoolOptions opts = PoolOptions::Small();
  opts.cluster.num_servers = 0;
  EXPECT_FALSE(Pool::Create(opts).ok());
  opts = PoolOptions::Small();
  opts.cluster.num_servers = 100;
  EXPECT_FALSE(Pool::Create(opts).ok());
  opts = PoolOptions::Small();
  opts.coherent_bytes = 100;  // not a multiple of the 16-byte granularity
  EXPECT_TRUE(IsInvalidArgument(Pool::Create(opts).status()));
  opts = PoolOptions::Small();
  opts.coherent_bytes = 0;  // no region to track
  EXPECT_TRUE(IsInvalidArgument(Pool::Create(opts).status()));
}

TEST(PoolFacadeTest, PaperOptionsMatchSection41) {
  const PoolOptions opts = PoolOptions::Paper();
  EXPECT_EQ(opts.cluster.num_servers, 4);
  EXPECT_EQ(opts.cluster.server_total_memory, GiB(24));
  EXPECT_EQ(opts.cluster.server_shared_memory, GiB(24));
  EXPECT_FALSE(opts.cluster.physical_pool);
}

TEST(PoolFacadeTest, TickDrivesMigration) {
  auto pool_or = Pool::Create(PoolOptions::Small());
  ASSERT_TRUE(pool_or.ok());
  Pool& pool = **pool_or;
  auto buf = pool.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  const auto seg = pool.manager().Describe(*buf)->segments[0];
  pool.manager().access_tracker().RecordAccess(seg, 3, double(MiB(1)), 0);
  const auto records = pool.Tick(0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].to.server, 3u);
}

TEST(PoolFacadeTest, ComponentsAccessible) {
  auto pool_or = Pool::Create(PoolOptions::Small());
  ASSERT_TRUE(pool_or.ok());
  Pool& pool = **pool_or;
  EXPECT_EQ(pool.cluster().num_servers(), 4);
  EXPECT_EQ(pool.coherent().num_hosts(), 4);
  EXPECT_EQ(pool.replication().replication_factor(), 1);
}

}  // namespace
}  // namespace lmp
