// Tests for PoolManager: allocation/free, span resolution, real-data
// read/write, hotness recording, migration (address stability + data
// integrity), and crash handling.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "core/erasure.h"
#include "core/hotness.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "support/counting_new.h"

namespace lmp::core {
namespace {

cluster::ClusterConfig BackedConfig() {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = MiB(4);
  config.server_shared_memory = MiB(4);
  config.frame_size = KiB(4);
  config.with_backing = true;
  return config;
}

class PoolManagerTest : public ::testing::Test {
 protected:
  PoolManagerTest() : cluster_(BackedConfig()), manager_(&cluster_) {}

  std::vector<std::byte> Pattern(std::size_t n, int seed) {
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<std::byte>((i * 31 + seed) & 0xFF);
    }
    return v;
  }

  // Frames that own memory across every server's backing store.
  std::uint64_t ResidentFrames() {
    std::uint64_t n = 0;
    for (int s = 0; s < cluster_.num_servers(); ++s) {
      n += cluster_.server(static_cast<cluster::ServerId>(s))
               .backing()
               .resident_frames();
    }
    return n;
  }

  // A segment's bytes as stored at `loc`, read through the const path.
  std::vector<std::byte> BytesAt(const Location& loc, SegmentId seg) {
    const SegmentInfo* info = manager_.segment_map().Find(seg);
    const mem::BackingStore& store = *manager_.BackingAt(loc);
    const auto runs = manager_.local_map(loc).RunsOf(seg);
    EXPECT_TRUE(runs.ok());
    std::vector<std::byte> out;
    for (const auto& run : runs.value()) {
      for (mem::FrameNumber f = run.first; f < run.end(); ++f) {
        const auto frame = store.Frame(f);
        out.insert(out.end(), frame.begin(), frame.end());
      }
    }
    out.resize(info->size);
    return out;
  }

  void ExpectReplicasMatchPrimary(SegmentId seg,
                                  const std::vector<std::byte>& want) {
    const SegmentInfo* info = manager_.segment_map().Find(seg);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(BytesAt(info->home, seg), want);
    ASSERT_FALSE(info->replicas.empty());
    for (const Location& rep : info->replicas) {
      EXPECT_EQ(BytesAt(rep, seg), want) << "replica " << rep.server;
    }
  }

  cluster::Cluster cluster_;
  PoolManager manager_;
};

TEST_F(PoolManagerTest, AllocateSingleSegmentLocal) {
  auto buf = manager_.Allocate(KiB(64), 1);
  ASSERT_TRUE(buf.ok());
  auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->size, KiB(64));
  EXPECT_EQ(info->segments.size(), 1u);
  auto frac = manager_.LocalFraction(*buf, 1);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 1.0);
}

TEST_F(PoolManagerTest, ZeroByteAllocationRejected) {
  EXPECT_FALSE(manager_.Allocate(0, 0).ok());
}

TEST_F(PoolManagerTest, LargeAllocationSpansServers) {
  auto buf = manager_.Allocate(MiB(10), 0);
  ASSERT_TRUE(buf.ok());
  auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  EXPECT_GE(info->segments.size(), 3u);  // 4 MiB per server
  auto frac = manager_.LocalFraction(*buf, 0);
  ASSERT_TRUE(frac.ok());
  EXPECT_NEAR(*frac, 0.4, 0.01);  // 4 of 10 MiB local
}

TEST_F(PoolManagerTest, PoolExhaustionIsOutOfMemory) {
  auto buf = manager_.Allocate(MiB(17), 0);  // pool holds 16
  EXPECT_FALSE(buf.ok());
  EXPECT_TRUE(IsOutOfMemory(buf.status()));
  // Failure must not leak: full capacity still allocatable.
  EXPECT_TRUE(manager_.Allocate(MiB(16), 0).ok());
}

TEST_F(PoolManagerTest, FreeReturnsCapacity) {
  const Bytes before = cluster_.PooledFreeBytes();
  auto buf = manager_.Allocate(MiB(2), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_LT(cluster_.PooledFreeBytes(), before);
  ASSERT_TRUE(manager_.Free(*buf).ok());
  EXPECT_EQ(cluster_.PooledFreeBytes(), before);
  EXPECT_FALSE(manager_.Free(*buf).ok());  // double free
}

TEST_F(PoolManagerTest, SpansCoverRangeInOrder) {
  auto buf = manager_.Allocate(MiB(10), 0);
  ASSERT_TRUE(buf.ok());
  auto spans = manager_.Spans(*buf, 0, MiB(10));
  ASSERT_TRUE(spans.ok());
  Bytes total = 0;
  for (const auto& s : *spans) total += s.bytes;
  EXPECT_EQ(total, MiB(10));
  // First span is the local (preferred) chunk.
  EXPECT_EQ((*spans)[0].location.server, 0u);
}

TEST_F(PoolManagerTest, SubRangeSpansRespectOffsets) {
  auto buf = manager_.Allocate(MiB(8), 0);  // 4 MiB on server0 + 4 elsewhere
  ASSERT_TRUE(buf.ok());
  auto spans = manager_.Spans(*buf, MiB(3), MiB(2));
  ASSERT_TRUE(spans.ok());
  ASSERT_EQ(spans->size(), 2u);  // crosses the segment boundary at 4 MiB
  EXPECT_EQ((*spans)[0].bytes, MiB(1));
  EXPECT_EQ((*spans)[1].bytes, MiB(1));
}

TEST_F(PoolManagerTest, SpansRangeValidation) {
  auto buf = manager_.Allocate(KiB(8), 0);
  ASSERT_TRUE(buf.ok());
  EXPECT_TRUE(IsInvalidArgument(manager_.Spans(*buf, KiB(4), KiB(8)).status()));
  EXPECT_TRUE(IsNotFound(manager_.Spans(999, 0, 1).status()));
  std::vector<std::byte> out(KiB(8));
  EXPECT_TRUE(IsInvalidArgument(manager_.Read(0, *buf, 1, out)));
  EXPECT_TRUE(IsInvalidArgument(manager_.Write(0, *buf, 1, out)));
  // An empty range resolves to no spans, anywhere up to the end.
  for (const Bytes offset : {Bytes{0}, KiB(4), KiB(8)}) {
    auto spans = manager_.Spans(*buf, offset, 0);
    ASSERT_TRUE(spans.ok());
    EXPECT_TRUE(spans->empty());
    EXPECT_TRUE(manager_.Read(0, *buf, offset, {}).ok());
  }
}

TEST_F(PoolManagerTest, RangeStartingOnASegmentEndResolvesToTheNextSegment) {
  auto buf = manager_.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.Grow(*buf, KiB(16), 1).ok());
  const auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->ends, (std::vector<Bytes>{KiB(16), KiB(32)}));
  auto spans = manager_.Spans(*buf, KiB(16), KiB(4));
  ASSERT_TRUE(spans.ok());
  ASSERT_EQ(spans->size(), 1u);
  EXPECT_EQ((*spans)[0].segment, info->segments[1]);
  EXPECT_EQ((*spans)[0].location, Location::OnServer(1));
  EXPECT_EQ((*spans)[0].bytes, KiB(4));
}

TEST_F(PoolManagerTest, RangeAcrossFrameRunAndSegmentBoundariesRoundTrips) {
  // Fill server 0 with four 1 MiB buffers and free the second and fourth:
  // a 1.5 MiB allocation there then takes two frame runs.
  std::vector<BufferId> fill;
  for (int i = 0; i < 4; ++i) {
    auto b = manager_.Allocate(MiB(1), 0);
    ASSERT_TRUE(b.ok());
    fill.push_back(*b);
  }
  ASSERT_TRUE(manager_.Free(fill[1]).ok());
  ASSERT_TRUE(manager_.Free(fill[3]).ok());
  auto buf = manager_.Allocate(MiB(1) + KiB(512), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.Grow(*buf, KiB(64), 1).ok());
  const auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->segments.size(), 2u);
  const auto runs =
      manager_.local_map(Location::OnServer(0)).RunsOf(info->segments[0]);
  ASSERT_TRUE(runs.ok());
  ASSERT_EQ(runs->size(), 2u);
  const Bytes run_end = (*runs)[0].count * KiB(4);

  // From just before the run boundary to past the segment boundary.
  const Bytes offset = run_end - KiB(2);
  const Bytes len = info->ends[0] - offset + KiB(6);
  const auto in = Pattern(len, 5);
  ASSERT_TRUE(manager_.Write(0, *buf, offset, in).ok());
  std::vector<std::byte> out(len);
  ASSERT_TRUE(manager_.Read(3, *buf, offset, out).ok());
  EXPECT_EQ(in, out);
  auto spans = manager_.Spans(*buf, offset, len);
  ASSERT_TRUE(spans.ok());
  ASSERT_EQ(spans->size(), 2u);
  EXPECT_EQ((*spans)[0].bytes, info->ends[0] - offset);
  EXPECT_EQ((*spans)[1].bytes, KiB(6));
}

TEST_F(PoolManagerTest, LostSecondSegmentIsDataLoss) {
  auto buf = manager_.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.Grow(*buf, KiB(16), 2).ok());
  ASSERT_TRUE(manager_.OnServerCrash(2).ok());
  std::vector<std::byte> out(KiB(8));
  EXPECT_TRUE(IsDataLoss(manager_.Read(0, *buf, KiB(12), out)));
  EXPECT_TRUE(IsDataLoss(manager_.Spans(*buf, KiB(12), KiB(8)).status()));
  EXPECT_TRUE(IsDataLoss(
      manager_.ForEachSpan(*buf, 0, KiB(32), [](const LocatedSpan&) {})));
  // The surviving first segment still resolves.
  EXPECT_TRUE(manager_.Read(0, *buf, 0, out).ok());
  EXPECT_TRUE(manager_.Spans(*buf, 0, KiB(16)).ok());
}

TEST_F(PoolManagerTest, ReplicatedWriteAcrossSegmentsReachesEveryReplica) {
  ReplicationManager repl(&manager_, 1);
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.Grow(*buf, KiB(32), 1).ok());
  ASSERT_TRUE(repl.ProtectBuffer(*buf).ok());
  const auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  ASSERT_EQ(info->segments.size(), 2u);

  // One write straddling the segment boundary, issued from a third server.
  std::vector<std::byte> want(KiB(64));
  const auto patch = Pattern(KiB(16), 13);
  std::copy(patch.begin(), patch.end(), want.begin() + KiB(24));
  ASSERT_TRUE(manager_.Write(2, *buf, KiB(24), patch).ok());
  ExpectReplicasMatchPrimary(
      info->segments[0],
      std::vector<std::byte>(want.begin(), want.begin() + KiB(32)));
  ExpectReplicasMatchPrimary(
      info->segments[1],
      std::vector<std::byte>(want.begin() + KiB(32), want.end()));
}

TEST_F(PoolManagerTest, AccessPathAllocatesNothing) {
  auto buf = manager_.Allocate(MiB(8), 0);  // two segments, two servers
  ASSERT_TRUE(buf.ok());
  ASSERT_EQ(manager_.Describe(*buf)->segments.size(), 2u);
  const Bytes offset = MiB(4) - 256;  // 512 B across the boundary
  const auto in = Pattern(512, 3);
  std::vector<std::byte> out(512);
  // First touches create hotness counters and materialize frames.
  ASSERT_TRUE(manager_.Write(1, *buf, offset, in).ok());
  ASSERT_TRUE(manager_.Read(1, *buf, offset, out).ok());

  const std::uint64_t before_access = g_new_calls.load();
  const Status wrote = manager_.Write(1, *buf, offset, in, Seconds(1));
  const Status read = manager_.Read(1, *buf, offset, out, Seconds(1));
  EXPECT_EQ(g_new_calls.load() - before_access, 0u);
  EXPECT_TRUE(wrote.ok() && read.ok());
  EXPECT_EQ(in, out);

  Bytes total = 0;
  int spans = 0;
  const std::uint64_t before_spans = g_new_calls.load();
  const Status walked = manager_.ForEachSpan(
      *buf, KiB(4), MiB(8) - KiB(8), [&](const LocatedSpan& span) {
        total += span.bytes;
        ++spans;
      });
  EXPECT_EQ(g_new_calls.load() - before_spans, 0u);
  EXPECT_TRUE(walked.ok());
  EXPECT_EQ(spans, 2);
  EXPECT_EQ(total, MiB(8) - KiB(8));
}

TEST_F(PoolManagerTest, ReadWriteRoundTrip) {
  auto buf = manager_.Allocate(KiB(64), 2);
  ASSERT_TRUE(buf.ok());
  const auto in = Pattern(KiB(64), 7);
  ASSERT_TRUE(manager_.Write(2, *buf, 0, in).ok());
  std::vector<std::byte> out(KiB(64));
  ASSERT_TRUE(manager_.Read(2, *buf, 0, out).ok());
  EXPECT_EQ(in, out);
}

TEST_F(PoolManagerTest, ReadWriteAcrossSegmentBoundary) {
  auto buf = manager_.Allocate(MiB(8), 0);  // spans two servers
  ASSERT_TRUE(buf.ok());
  const auto in = Pattern(KiB(16), 9);
  const Bytes offset = MiB(4) - KiB(8);  // straddles the boundary
  ASSERT_TRUE(manager_.Write(0, *buf, offset, in).ok());
  std::vector<std::byte> out(KiB(16));
  ASSERT_TRUE(manager_.Read(0, *buf, offset, out).ok());
  EXPECT_EQ(in, out);
}

TEST_F(PoolManagerTest, AccessesRecordedInHotnessProfile) {
  auto buf = manager_.Allocate(KiB(16), 3);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.Touch(1, *buf, 0, KiB(16), Seconds(1)).ok());
  auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  const SegmentId seg = info->segments[0];
  EXPECT_NEAR(manager_.access_tracker().AccessedBytes(seg, 1, Seconds(1)),
              double(KiB(16)), 1.0);
  EXPECT_EQ(manager_.access_tracker().AccessedBytes(seg, 2, Seconds(1)), 0);
}

TEST_F(PoolManagerTest, MigrationPreservesDataAndAddress) {
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  const auto in = Pattern(KiB(64), 3);
  ASSERT_TRUE(manager_.Write(0, *buf, 0, in).ok());

  auto info = manager_.Describe(*buf);
  ASSERT_TRUE(info.ok());
  const SegmentId seg = info->segments[0];
  const std::uint64_t gen_before =
      manager_.segment_map().Find(seg)->generation;

  auto rec = manager_.MigrateSegment(seg, 2);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->from.server, 0u);
  EXPECT_EQ(rec->to.server, 2u);
  EXPECT_EQ(rec->bytes, KiB(64));

  // Same buffer id, same logical layout, new home, bumped generation.
  EXPECT_EQ(manager_.segment_map().Find(seg)->home.server, 2u);
  EXPECT_EQ(manager_.segment_map().Find(seg)->generation, gen_before + 1);
  auto frac = manager_.LocalFraction(*buf, 2);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 1.0);

  // Data survived the move byte-for-byte.
  std::vector<std::byte> out(KiB(64));
  ASSERT_TRUE(manager_.Read(1, *buf, 0, out).ok());
  EXPECT_EQ(in, out);
}

TEST_F(PoolManagerTest, MigrationFreesSourceCapacity) {
  auto buf = manager_.Allocate(MiB(2), 0);
  ASSERT_TRUE(buf.ok());
  const Bytes free0_before =
      cluster_.server(0).shared_allocator().free_bytes();
  auto info = manager_.Describe(*buf);
  ASSERT_TRUE(manager_.MigrateSegment(info->segments[0], 1).ok());
  EXPECT_EQ(cluster_.server(0).shared_allocator().free_bytes(),
            free0_before + MiB(2));
}

TEST_F(PoolManagerTest, MigrationToSelfRejected) {
  auto buf = manager_.Allocate(KiB(4), 0);
  ASSERT_TRUE(buf.ok());
  auto info = manager_.Describe(*buf);
  EXPECT_FALSE(manager_.MigrateSegment(info->segments[0], 0).ok());
}

TEST_F(PoolManagerTest, MigrationToFullServerFails) {
  auto filler = manager_.Allocate(MiB(4), 1);  // server 1 now full
  ASSERT_TRUE(filler.ok());
  auto buf = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());
  auto info = manager_.Describe(*buf);
  auto rec = manager_.MigrateSegment(info->segments[0], 1);
  EXPECT_FALSE(rec.ok());
  EXPECT_TRUE(IsOutOfMemory(rec.status()));
  // Source unharmed.
  auto frac = manager_.LocalFraction(*buf, 0);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 1.0);
}

TEST_F(PoolManagerTest, MigrationToCrashedServerRejected) {
  auto buf = manager_.Allocate(KiB(4), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(cluster_.server(3).Crash().ok());
  auto info = manager_.Describe(*buf);
  EXPECT_TRUE(IsUnavailable(
      manager_.MigrateSegment(info->segments[0], 3).status()));
}

TEST_F(PoolManagerTest, CrashLosesUnreplicatedSegments) {
  auto buf = manager_.Allocate(MiB(1), 2);
  ASSERT_TRUE(buf.ok());
  auto info = manager_.Describe(*buf);
  const auto lost = manager_.OnServerCrash(2);
  ASSERT_TRUE(lost.ok());
  ASSERT_EQ(lost->size(), 1u);
  EXPECT_EQ((*lost)[0], info->segments[0]);
  // Reads now surface data loss.
  std::vector<std::byte> out(16);
  EXPECT_EQ(manager_.Read(0, *buf, 0, out).code(), StatusCode::kDataLoss);
  EXPECT_EQ(manager_.Spans(*buf, 0, MiB(1)).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(PoolManagerTest, CrashSparesOtherServersSegments) {
  auto safe = manager_.Allocate(MiB(1), 0);
  auto doomed = manager_.Allocate(MiB(1), 2);
  ASSERT_TRUE(safe.ok() && doomed.ok());
  ASSERT_TRUE(manager_.OnServerCrash(2).ok());
  std::vector<std::byte> out(16);
  EXPECT_TRUE(manager_.Read(0, *safe, 0, out).ok());
}

TEST_F(PoolManagerTest, FreeLostBufferStillReleasesMetadata) {
  auto buf = manager_.Allocate(MiB(1), 2);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.OnServerCrash(2).ok());
  EXPECT_TRUE(manager_.Free(*buf).ok());
  EXPECT_FALSE(manager_.Describe(*buf).ok());
}

TEST_F(PoolManagerTest, TouchWithoutBackingStillTracksHotness) {
  cluster::ClusterConfig config = BackedConfig();
  config.with_backing = false;
  cluster::Cluster bare(config);
  PoolManager manager(&bare);
  auto buf = manager.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager.Touch(3, *buf, 0, KiB(16), 0).ok());
  // Read requires backing.
  std::vector<std::byte> out(16);
  EXPECT_EQ(manager.Read(3, *buf, 0, out).code(),
            StatusCode::kFailedPrecondition);
}


TEST_F(PoolManagerTest, CompactSegmentRehomesBelowTheCut) {
  // Two 1 MiB buffers; freeing the first leaves a hole at the bottom and
  // the second stranded above the 1 MiB shrink cut.
  auto hole = manager_.Allocate(MiB(1), 0);
  auto buf = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(hole.ok() && buf.ok());
  const auto data = Pattern(MiB(1), 7);
  ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());
  ASSERT_TRUE(manager_.Free(*hole).ok());

  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  // The shrink is blocked while frames sit above the cut...
  EXPECT_TRUE(IsFailedPrecondition(cluster_.server(0).ResizeShared(MiB(1))));
  auto rec = manager_.CompactSegment(seg, MiB(1));
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_GT(rec->bytes, 0u);
  EXPECT_EQ(rec->from.server, 0u);
  EXPECT_EQ(rec->to.server, 0u);
  // ...and lands afterwards, data intact at the same buffer address.
  ASSERT_TRUE(cluster_.server(0).ResizeShared(MiB(1)).ok());
  std::vector<std::byte> out(MiB(1));
  ASSERT_TRUE(manager_.Read(0, *buf, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(PoolManagerTest, CompactSegmentIsNoOpWhenAlreadyBelow) {
  auto buf = manager_.Allocate(KiB(16), 0);
  ASSERT_TRUE(buf.ok());
  auto rec =
      manager_.CompactSegment(manager_.Describe(*buf)->segments[0], MiB(1));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->bytes, 0u);
}

TEST_F(PoolManagerTest, CompactSegmentFailsWithoutRoomBelow) {
  auto a = manager_.Allocate(MiB(2), 0);  // packs 0..2 MiB solid
  auto b = manager_.Allocate(MiB(1), 0);  // 2..3 MiB
  ASSERT_TRUE(a.ok() && b.ok());
  auto rec =
      manager_.CompactSegment(manager_.Describe(*b)->segments[0], MiB(2));
  EXPECT_TRUE(IsOutOfMemory(rec.status()));
}

// --- Sparse backing: never-written data costs no frames ---------------------

TEST_F(PoolManagerTest, MigratingUnwrittenBufferMaterializesNothing) {
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  ASSERT_TRUE(manager_.MigrateSegment(seg, 2).ok());
  EXPECT_EQ(cluster_.server(2).backing().resident_frames(), 0u);
  EXPECT_EQ(ResidentFrames(), 0u);
  std::vector<std::byte> out(KiB(64), std::byte{0xFF});
  ASSERT_TRUE(manager_.Read(1, *buf, 0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(KiB(64)));
  EXPECT_EQ(ResidentFrames(), 0u);
}

TEST_F(PoolManagerTest, ReplicatingUnwrittenBufferMaterializesNothing) {
  ReplicationManager repl(&manager_, 2);
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(repl.ProtectBuffer(*buf).ok());
  EXPECT_EQ(ResidentFrames(), 0u);
  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  ExpectReplicasMatchPrimary(seg, std::vector<std::byte>(KiB(64)));
  EXPECT_EQ(ResidentFrames(), 0u);
}

TEST_F(PoolManagerTest, ErasureProtectingUnwrittenSegmentsMaterializesNothing) {
  XorErasureManager erasure(&manager_, 2);
  auto a = manager_.Allocate(KiB(32), 0);
  auto b = manager_.Allocate(KiB(32), 1);
  ASSERT_TRUE(a.ok() && b.ok());
  const SegmentId sa = manager_.Describe(*a)->segments[0];
  const SegmentId sb = manager_.Describe(*b)->segments[0];
  ASSERT_TRUE(erasure.ProtectSegments({sa, sb}).ok());
  EXPECT_EQ(ResidentFrames(), 0u);  // the all-zero parity stays absent

  ASSERT_TRUE(manager_.OnServerCrash(0).ok());
  ASSERT_TRUE(erasure.RecoverSegment(sa).ok());
  EXPECT_EQ(ResidentFrames(), 0u);
  std::vector<std::byte> out(KiB(32), std::byte{0xFF});
  ASSERT_TRUE(manager_.Read(1, *a, 0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(KiB(32)));
}

TEST_F(PoolManagerTest, WrittenReplicasMatchPrimaryAfterMigrationAndRecover) {
  ReplicationManager repl(&manager_, 1);
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  std::vector<std::byte> want = Pattern(KiB(32), 3);
  ASSERT_TRUE(manager_.Write(0, *buf, 0, want).ok());
  ASSERT_TRUE(repl.ProtectBuffer(*buf).ok());
  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  ExpectReplicasMatchPrimary(seg, want);

  // Migrate to a server that holds neither the primary nor the replica.
  const SegmentInfo* info = manager_.segment_map().Find(seg);
  cluster::ServerId dst = 1;
  while (dst == info->home.server || dst == info->replicas[0].server) ++dst;
  ASSERT_TRUE(manager_.MigrateSegment(seg, dst).ok());
  ExpectReplicasMatchPrimary(seg, want);

  // Crash the home: the replica takes over.  The host rejoins empty, and
  // restoring redundancy copies from the promoted replica.
  const cluster::ServerId home = info->home.server;
  ASSERT_TRUE(manager_.OnServerCrash(home).ok());
  ASSERT_TRUE(manager_.OnServerRecover(home).ok());
  EXPECT_EQ(cluster_.server(home).backing().resident_frames(), 0u);
  auto created = repl.RestoreRedundancy();
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(*created, 1);
  ExpectReplicasMatchPrimary(seg, want);

  // Later writes still reach every copy.
  const auto patch = Pattern(KiB(8), 11);
  ASSERT_TRUE(manager_.Write(2, *buf, KiB(4), patch).ok());
  std::copy(patch.begin(), patch.end(), want.begin() + KiB(4));
  ExpectReplicasMatchPrimary(seg, want);
}

// --- Freed frames drop their bytes -------------------------------------------

TEST_F(PoolManagerTest, FreedFramesReadZerosToTheNextOwner) {
  auto old_buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(old_buf.ok());
  ASSERT_TRUE(manager_
                  .Write(0, *old_buf, 0,
                         std::vector<std::byte>(KiB(64), std::byte{0xAB}))
                  .ok());
  ASSERT_EQ(ResidentFrames(), 16u);
  ASSERT_TRUE(manager_.Free(*old_buf).ok());
  EXPECT_EQ(ResidentFrames(), 0u);

  // The whole server, so the new buffer covers the old one's frames.
  auto new_buf = manager_.Allocate(MiB(4), 0);
  ASSERT_TRUE(new_buf.ok());
  ASSERT_EQ(manager_.Describe(*new_buf)->segments.size(), 1u);
  std::vector<std::byte> out(MiB(4), std::byte{0xFF});
  ASSERT_TRUE(manager_.Read(0, *new_buf, 0, out).ok());
  EXPECT_EQ(out, std::vector<std::byte>(MiB(4)));
}

TEST_F(PoolManagerTest, MigrationSourceAndFreeReleaseFrames) {
  auto buf = manager_.Allocate(KiB(64), 0);
  ASSERT_TRUE(buf.ok());
  const auto data = Pattern(KiB(64), 5);
  ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());
  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  ASSERT_TRUE(manager_.MigrateSegment(seg, 1).ok());
  // Only the new home holds the bytes.
  EXPECT_EQ(cluster_.server(0).backing().resident_frames(), 0u);
  EXPECT_EQ(cluster_.server(1).backing().resident_frames(), 16u);
  std::vector<std::byte> out(KiB(64));
  ASSERT_TRUE(manager_.Read(2, *buf, 0, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(manager_.Free(*buf).ok());
  EXPECT_EQ(ResidentFrames(), 0u);
}

TEST_F(PoolManagerTest, CompactionAndFreeReleaseFrames) {
  auto hole = manager_.Allocate(MiB(1), 0);
  auto buf = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(hole.ok() && buf.ok());
  ASSERT_TRUE(manager_.Write(0, *hole, 0, Pattern(MiB(1), 1)).ok());
  const auto data = Pattern(MiB(1), 7);
  ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());
  ASSERT_TRUE(manager_.Free(*hole).ok());
  EXPECT_EQ(ResidentFrames(), 256u);

  const SegmentId seg = manager_.Describe(*buf)->segments[0];
  ASSERT_TRUE(manager_.CompactSegment(seg, MiB(1)).ok());
  EXPECT_EQ(ResidentFrames(), 256u);  // the vacated frames hold nothing
  std::vector<std::byte> out(MiB(1));
  ASSERT_TRUE(manager_.Read(0, *buf, 0, out).ok());
  EXPECT_EQ(out, data);
  ASSERT_TRUE(manager_.Free(*buf).ok());
  EXPECT_EQ(ResidentFrames(), 0u);
}

TEST_F(PoolManagerTest, FreeReleasesReplicaFrames) {
  ReplicationManager repl(&manager_, 2);
  auto buf = manager_.Allocate(KiB(32), 0);
  ASSERT_TRUE(buf.ok());
  ASSERT_TRUE(manager_.Write(0, *buf, 0, Pattern(KiB(32), 9)).ok());
  ASSERT_TRUE(repl.ProtectBuffer(*buf).ok());
  EXPECT_EQ(ResidentFrames(), 24u);
  ASSERT_TRUE(manager_.Free(*buf).ok());
  EXPECT_EQ(ResidentFrames(), 0u);
}

}  // namespace
}  // namespace lmp::core
