// Tests for buffer Grow/Shrink and the pool snapshot.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
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

class GrowShrinkTest : public ::testing::Test {
 protected:
  GrowShrinkTest() : cluster_(Config()), manager_(&cluster_) {}
  cluster::Cluster cluster_;
  PoolManager manager_;
};

TEST_F(GrowShrinkTest, GrowPreservesExistingData) {
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  std::vector<std::byte> data(KiB(32), std::byte{0x77});
  ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());

  ASSERT_TRUE(manager_.Grow(*buf, KiB(32), 1).ok());
  auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, KiB(64));

  // Old range intact; new range writable.
  std::vector<std::byte> out(KiB(32));
  ASSERT_TRUE(manager_.Read(2, *buf, 0, out).ok());
  EXPECT_EQ(out, data);
  std::vector<std::byte> tail(KiB(32), std::byte{0x11});
  ASSERT_TRUE(manager_.Write(1, *buf, KiB(32), tail).ok());
}

TEST_F(GrowShrinkTest, GrowBeyondPoolIsOutOfMemory) {
  auto buf = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_TRUE(IsOutOfMemory(manager_.Grow(*buf, MiB(16), 0)));
  // Original buffer untouched.
  EXPECT_EQ(manager_.Describe(*buf)->size, MiB(1));
}

TEST_F(GrowShrinkTest, ShrinkAtSegmentBoundaryFreesTail) {
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.Grow(*buf, KiB(32), 1).ok());  // 2 segments
  const Bytes free_before = cluster_.PooledFreeBytes();
  ASSERT_TRUE(manager_.Shrink(*buf, KiB(32)).ok());
  EXPECT_EQ(manager_.Describe(*buf)->size, KiB(32));
  EXPECT_EQ(cluster_.PooledFreeBytes(), free_before + KiB(32));
}

TEST_F(GrowShrinkTest, ShrinkInsideSegmentNeedsSplit) {
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_EQ(manager_.Shrink(*buf, KiB(16)).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(manager_.SplitSegmentAt(*buf, KiB(16)).ok());
  EXPECT_TRUE(manager_.Shrink(*buf, KiB(16)).ok());
  EXPECT_EQ(manager_.Describe(*buf)->size, KiB(16));
}

TEST_F(GrowShrinkTest, ShrinkValidation) {
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_FALSE(manager_.Shrink(*buf, 0).ok());
  EXPECT_FALSE(manager_.Shrink(*buf, KiB(64)).ok());
  EXPECT_TRUE(manager_.Shrink(*buf, KiB(32)).ok());  // no-op
  EXPECT_FALSE(manager_.Shrink(999, KiB(1)).ok());
  EXPECT_FALSE(manager_.Grow(999, KiB(1), 0).ok());
  EXPECT_FALSE(manager_.Grow(*buf, 0, 0).ok());
}

TEST_F(GrowShrinkTest, GrowShrinkRoundTripConservesCapacity) {
  const Bytes before = cluster_.PooledFreeBytes();
  auto buf = manager_.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(manager_.Grow(*buf, KiB(16), std::nullopt).ok());
  }
  ASSERT_TRUE(manager_.Shrink(*buf, KiB(16)).ok());
  ASSERT_TRUE(manager_.Free(*buf).ok());
  EXPECT_EQ(cluster_.PooledFreeBytes(), before);
}

// The located spans of [offset, offset+len), by a linear walk over the
// buffer's segments in the segment map: the reference the prefix-sum
// lookup must match.
std::vector<LocatedSpan> LinearSpans(const PoolManager& manager,
                                     const BufferInfo& info, Bytes offset,
                                     Bytes len) {
  std::vector<LocatedSpan> spans;
  Bytes seg_start = 0;
  for (const SegmentId seg : info.segments) {
    const SegmentInfo* si = manager.segment_map().Find(seg);
    const Bytes seg_end = seg_start + si->size;
    const Bytes lo = std::max(offset, seg_start);
    const Bytes hi = std::min(offset + len, seg_end);
    if (lo < hi) {
      if (!spans.empty() && spans.back().location == si->home) {
        spans.back().bytes += hi - lo;
      } else {
        spans.push_back(LocatedSpan{si->home, hi - lo, seg});
      }
    }
    seg_start = seg_end;
  }
  return spans;
}

TEST(GrowShrinkPropertyTest, EndsAndSpansMatchALinearWalkUnderChurn) {
  const Bytes frame = KiB(4);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    cluster::Cluster cluster(Config());
    PoolManager manager(&cluster);
    Rng rng(seed);
    std::vector<BufferId> buffers;
    auto server = [&] {
      return static_cast<cluster::ServerId>(rng.NextBounded(4));
    };
    for (int step = 0; step < 400; ++step) {
      const std::uint64_t action = buffers.empty() ? 0 : rng.NextBounded(6);
      const BufferId buf =
          buffers.empty() ? kInvalidBuffer
                          : buffers[rng.NextBounded(buffers.size())];
      const BufferInfo info =
          buf == kInvalidBuffer ? BufferInfo{} : *manager.Describe(buf);
      switch (action) {
        case 0: {  // Allocate
          auto b =
              manager.Allocate((1 + rng.NextBounded(64)) * frame, server());
          if (b.ok()) buffers.push_back(*b);
          break;
        }
        case 1:  // Grow (may run out of memory)
          (void)manager.Grow(buf, (1 + rng.NextBounded(32)) * frame, server());
          break;
        case 2: {  // SplitSegmentAt a frame boundary inside the buffer
          const Bytes at = rng.NextBounded(info.size / frame) * frame;
          if (at == 0) break;
          const bool boundary =
              std::find(info.ends.begin(), info.ends.end(), at) !=
              info.ends.end();
          ASSERT_TRUE(manager.SplitSegmentAt(buf, at).ok());
          EXPECT_EQ(manager.Describe(buf)->segments.size(),
                    info.segments.size() + (boundary ? 0 : 1));
          break;
        }
        case 3: {  // Shrink: succeeds exactly at a segment boundary
          const Bytes to = (1 + rng.NextBounded(info.size / frame)) * frame;
          const bool boundary =
              std::find(info.ends.begin(), info.ends.end(), to) !=
              info.ends.end();
          const Status st = manager.Shrink(buf, to);
          EXPECT_EQ(st.code(), boundary ? StatusCode::kOk
                                        : StatusCode::kFailedPrecondition);
          break;
        }
        case 4:  // MigrateSegment (may be refused)
          (void)manager.MigrateSegment(
              info.segments[rng.NextBounded(info.segments.size())], server());
          break;
        default:  // Free, keeping the pool from filling up
          ASSERT_TRUE(manager.Free(buf).ok());
          std::erase(buffers, buf);
          break;
      }

      for (const BufferId b : buffers) {
        const auto now = manager.Describe(b);
        ASSERT_TRUE(now.ok());
        ASSERT_EQ(now->ends.size(), now->segments.size());
        Bytes sum = 0;
        for (std::size_t i = 0; i < now->segments.size(); ++i) {
          sum += manager.segment_map().Find(now->segments[i])->size;
          ASSERT_EQ(now->ends[i], sum) << "buffer " << b << " segment " << i;
        }
        ASSERT_EQ(sum, now->size);
        const Bytes offset = rng.NextBounded(now->size + 1);
        const Bytes len = rng.NextBounded(now->size - offset + 1);
        const auto spans = manager.Spans(b, offset, len);
        ASSERT_TRUE(spans.ok());
        const auto want = LinearSpans(manager, *now, offset, len);
        ASSERT_EQ(spans->size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ((*spans)[i].location, want[i].location);
          EXPECT_EQ((*spans)[i].bytes, want[i].bytes);
          EXPECT_EQ((*spans)[i].segment, want[i].segment);
        }
      }
    }
  }
}

TEST_F(GrowShrinkTest, SnapshotReportsCapacityAndBacklog) {
  auto local = manager_.Allocate(MiB(1), 0);
  auto contested = manager_.Allocate(MiB(2), 1);
  ASSERT_TRUE(local.ok() && contested.ok());
  // Server 3 hammers the buffer homed on server 1.
  ASSERT_TRUE(manager_.Touch(3, *contested, 0, MiB(2), Seconds(1)).ok());

  const auto snap = manager_.Snapshot(Seconds(1));
  EXPECT_EQ(snap.buffers, 2u);
  EXPECT_EQ(snap.segments, 2u);
  ASSERT_EQ(snap.servers.size(), 4u);
  EXPECT_EQ(snap.servers[0].used, MiB(1));
  EXPECT_EQ(snap.servers[1].used, MiB(2));
  EXPECT_EQ(snap.servers[1].remote_hot, MiB(2));  // balancer backlog
  EXPECT_EQ(snap.servers[0].remote_hot, 0u);      // untouched
  EXPECT_FALSE(snap.servers[0].crashed);
}

TEST_F(GrowShrinkTest, SnapshotMarksCrashedServers) {
  ASSERT_TRUE(manager_.OnServerCrash(2).ok());
  const auto snap = manager_.Snapshot(0);
  EXPECT_TRUE(snap.servers[2].crashed);
}

}  // namespace
}  // namespace lmp::core
