// Tests for segment splitting and the metrics registry.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
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

class SplitTest : public ::testing::Test {
 protected:
  SplitTest() : cluster_(Config()), manager_(&cluster_) {
    manager_.set_metrics(&metrics_);
  }

  std::vector<std::byte> Pattern(std::size_t n) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::byte>((i * 7) & 0xFF);
    }
    return v;
  }

  MetricsRegistry metrics_;
  cluster::Cluster cluster_;
  PoolManager manager_;
};

TEST_F(SplitTest, SplitPreservesDataAndSpans) {
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  const auto data = Pattern(KiB(64));
  ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());

  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(24)).ok());
  auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->segments.size(), 2u);
  EXPECT_EQ(info->size, KiB(64));
  EXPECT_EQ(manager_.segment_map().Find(info->segments[0])->size, KiB(24));
  EXPECT_EQ(manager_.segment_map().Find(info->segments[1])->size, KiB(40));

  std::vector<std::byte> out(KiB(64));
  ASSERT_TRUE(manager_.Read(2, *buf, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SplitTest, SplitEnablesPartialMigration) {
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  const auto data = Pattern(KiB(64));
  ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());

  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(32)).ok());
  const auto tail = manager_.Describe(*buf)->segments[1];
  ASSERT_TRUE(manager_.MigrateSegment(tail, 2).ok());

  // Half local to 0, half local to 2; data intact end to end.
  auto frac0 = manager_.LocalFraction(*buf, 0);
  auto frac2 = manager_.LocalFraction(*buf, 2);
  ASSERT_TRUE(frac0.ok() && frac2.ok());
  EXPECT_DOUBLE_EQ(*frac0, 0.5);
  EXPECT_DOUBLE_EQ(*frac2, 0.5);
  std::vector<std::byte> out(KiB(64));
  ASSERT_TRUE(manager_.Read(1, *buf, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(SplitTest, BoundaryOffsetsAreNoOps) {
  auto buf = manager_.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(8)).ok());
  const auto before = manager_.Describe(*buf)->segments.size();
  // Splitting at an existing boundary changes nothing.
  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(8)).ok());
  EXPECT_EQ(manager_.Describe(*buf)->segments.size(), before);
}

TEST_F(SplitTest, InvalidOffsetsRejected) {
  auto buf = manager_.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_FALSE(manager_.SplitSegmentAt(*buf, 0).ok());
  EXPECT_FALSE(manager_.SplitSegmentAt(*buf, KiB(16)).ok());
  EXPECT_FALSE(manager_.SplitSegmentAt(*buf, 100).ok());  // unaligned
  EXPECT_FALSE(manager_.SplitSegmentAt(999, KiB(4)).ok());
}

TEST_F(SplitTest, FreeAfterSplitReleasesEverything) {
  const Bytes before = cluster_.PooledFreeBytes();
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(16)).ok());
  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(48)).ok());
  ASSERT_TRUE(manager_.Free(*buf).ok());
  EXPECT_EQ(cluster_.PooledFreeBytes(), before);
}

TEST_F(SplitTest, MetricsTrackOperations) {
  auto buf = manager_.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(metrics_.Counter("lmp.alloc.buffers"), 1u);
  EXPECT_EQ(metrics_.Counter("lmp.alloc.bytes"), KiB(16));
  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(8)).ok());
  EXPECT_EQ(metrics_.Counter("lmp.segment.splits"), 1u);
  const auto seg = manager_.Describe(*buf)->segments[1];
  ASSERT_TRUE(manager_.MigrateSegment(seg, 1).ok());
  EXPECT_EQ(metrics_.Counter("lmp.migrate.segments"), 1u);
  EXPECT_EQ(metrics_.Counter("lmp.migrate.bytes"), KiB(8));
  ASSERT_TRUE(manager_.Free(*buf).ok());
  EXPECT_EQ(metrics_.Counter("lmp.free.buffers"), 1u);
}

}  // namespace
}  // namespace lmp::core

namespace lmp {
namespace {

TEST(MetricsTest, CountersAccumulate) {
  MetricsRegistry registry;
  registry.Increment("x");
  registry.Increment("x", 4);
  EXPECT_EQ(registry.Counter("x"), 5u);
  EXPECT_EQ(registry.Counter("absent"), 0u);
}

TEST(MetricsTest, GaugesOverwrite) {
  MetricsRegistry registry;
  registry.SetGauge("g", 1.5);
  registry.SetGauge("g", 2.5);
  EXPECT_DOUBLE_EQ(registry.Gauge("g"), 2.5);
}

TEST(MetricsTest, HasAndReset) {
  MetricsRegistry registry;
  registry.Increment("a");
  registry.SetGauge("b", 1);
  EXPECT_TRUE(registry.Has("a"));
  EXPECT_TRUE(registry.Has("b"));
  EXPECT_EQ(registry.size(), 2u);
  registry.Reset();
  EXPECT_FALSE(registry.Has("a"));
  EXPECT_EQ(registry.size(), 0u);
}

TEST(MetricsTest, ReportListsAll) {
  MetricsRegistry registry;
  registry.Increment("lmp.ops", 3);
  registry.SetGauge("lmp.util", 0.5);
  const std::string report = registry.Report();
  EXPECT_NE(report.find("lmp.ops"), std::string::npos);
  EXPECT_NE(report.find("counter"), std::string::npos);
  EXPECT_NE(report.find("gauge"), std::string::npos);
}

TEST(MetricsTest, WallPrefixMarksWallMetrics) {
  MetricsRegistry registry;
  registry.SetGauge("wall.elapsed", 1000.0);
  // Host-clock readings go in the "wall." namespace, which the
  // deterministic JSON export excludes; only the full prefix counts.
  EXPECT_TRUE(registry.Has("wall.elapsed"));
  EXPECT_TRUE(MetricsRegistry::IsWallMetric("wall.elapsed"));
  EXPECT_FALSE(MetricsRegistry::IsWallMetric("elapsed"));
  EXPECT_FALSE(MetricsRegistry::IsWallMetric("wallclock.elapsed"));
  EXPECT_EQ(trace::MetricsJson(registry).find("wall."), std::string::npos);
}

TEST(MetricsTest, GlobalIsSingleton) {
  EXPECT_EQ(&MetricsRegistry::Global(), &MetricsRegistry::Global());
}

}  // namespace
}  // namespace lmp
