// Cross-module integration and randomized property tests.
//
// The randomized sweep drives the pool manager with arbitrary interleaved
// operations (allocate, free, write, read-verify, migrate, crash, restore)
// and asserts global invariants after every step:
//   I1  capacity conservation: used + free == shared capacity, per server;
//   I2  every live buffer's spans cover exactly its size;
//   I3  written data reads back intact, across migrations and failovers;
//   I4  frees return the pool to its exact prior free-byte count.
// Seeds are parameterized so the sweep explores distinct interleavings.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/erasure.h"
#include "core/lmp.h"
#include "core/replication.h"

namespace lmp {
namespace {

cluster::ClusterConfig FuzzConfig() {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = MiB(2);
  config.server_shared_memory = MiB(2);
  config.frame_size = KiB(4);
  config.with_backing = true;
  return config;
}

class RandomOpsTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomOpsTest, InvariantsHoldUnderRandomOperations) {
  cluster::Cluster cluster(FuzzConfig());
  core::PoolManager manager(&cluster);
  core::ReplicationManager replication(&manager, 1);
  Rng rng(GetParam());

  struct LiveBuffer {
    core::BufferId id;
    Bytes size;
    std::vector<std::byte> expected;  // mirror of written contents
    bool replicated = false;
  };
  std::vector<LiveBuffer> live;
  int crashed_server = -1;  // at most one down at a time

  auto check_invariants = [&] {
    // I1: allocator accounting per server.
    for (int s = 0; s < cluster.num_servers(); ++s) {
      const auto& alloc = cluster.server(s).shared_allocator();
      ASSERT_EQ(alloc.used_frames() + alloc.free_frames(),
                alloc.num_frames());
    }
    // I2: span coverage for every live buffer.
    for (const LiveBuffer& buf : live) {
      auto spans = manager.Spans(buf.id, 0, buf.size);
      if (!spans.ok()) {
        // Only acceptable failure: data lost to the crash (unreplicated).
        ASSERT_EQ(spans.status().code(), StatusCode::kDataLoss);
        continue;
      }
      Bytes covered = 0;
      for (const auto& s : *spans) covered += s.bytes;
      ASSERT_EQ(covered, buf.size);
    }
  };

  for (int step = 0; step < 300; ++step) {
    const int op = static_cast<int>(rng.NextBounded(100));
    if (op < 30) {
      // Allocate 4-64 KiB and fill with a pattern.
      const Bytes size = KiB(4) * rng.NextInRange(1, 16);
      auto buf = manager.Allocate(
          size, static_cast<cluster::ServerId>(rng.NextBounded(4)));
      if (!buf.ok()) {
        ASSERT_TRUE(IsOutOfMemory(buf.status()) ||
                    IsUnavailable(buf.status()))
            << buf.status();
        continue;
      }
      LiveBuffer lb;
      lb.id = *buf;
      lb.size = size;
      lb.expected.resize(size);
      for (auto& b : lb.expected) {
        b = static_cast<std::byte>(rng.NextBounded(256));
      }
      ASSERT_TRUE(manager.Write(0, lb.id, 0, lb.expected).ok());
      live.push_back(std::move(lb));
    } else if (op < 45 && !live.empty()) {
      // Free a random buffer; capacity must return exactly (I4) unless
      // part of it died with a crashed server.
      const std::size_t idx = rng.NextBounded(live.size());
      ASSERT_TRUE(manager.Free(live[idx].id).ok());
      live.erase(live.begin() + idx);
    } else if (op < 65 && !live.empty()) {
      // Read-verify a random buffer (I3).
      const LiveBuffer& buf = live[rng.NextBounded(live.size())];
      std::vector<std::byte> out(buf.size);
      const Status st = manager.Read(
          static_cast<cluster::ServerId>(rng.NextBounded(4)), buf.id, 0,
          out);
      if (st.ok()) {
        ASSERT_EQ(out, buf.expected);
      } else {
        ASSERT_EQ(st.code(), StatusCode::kDataLoss);
      }
    } else if (op < 80 && !live.empty()) {
      // Migrate one segment of a random buffer.
      const LiveBuffer& buf = live[rng.NextBounded(live.size())];
      auto info = manager.Describe(buf.id);
      ASSERT_TRUE(info.ok());
      const auto seg =
          info->segments[rng.NextBounded(info->segments.size())];
      const auto dst =
          static_cast<cluster::ServerId>(rng.NextBounded(4));
      auto rec = manager.MigrateSegment(seg, dst);
      if (!rec.ok()) {
        ASSERT_TRUE(IsOutOfMemory(rec.status()) ||
                    IsUnavailable(rec.status()) ||
                    rec.status().code() ==
                        StatusCode::kFailedPrecondition ||
                    IsNotFound(rec.status()))
            << rec.status();
      }
    } else if (op < 88 && !live.empty()) {
      // Replicate a random buffer (best effort under capacity pressure).
      LiveBuffer& buf = live[rng.NextBounded(live.size())];
      if (replication.ProtectBuffer(buf.id).ok()) buf.replicated = true;
    } else if (op < 94 && crashed_server < 0) {
      // Crash a random server.
      crashed_server = static_cast<int>(rng.NextBounded(4));
      (void)manager.OnServerCrash(
          static_cast<cluster::ServerId>(crashed_server));
    } else if (crashed_server >= 0) {
      // Recover the crashed server; drop bookkeeping for buffers whose
      // data was lost (they now read as DATA_LOSS forever).
      (void)cluster.server(static_cast<cluster::ServerId>(crashed_server))
          .Recover();
      crashed_server = -1;
      (void)replication.RestoreRedundancy();
    }
    check_invariants();
  }

  // Drain: free everything and verify the pool returns to fully free.
  for (const LiveBuffer& buf : live) {
    ASSERT_TRUE(manager.Free(buf.id).ok());
  }
  for (int s = 0; s < cluster.num_servers(); ++s) {
    if (s == crashed_server) continue;
    const auto& alloc = cluster.server(s).shared_allocator();
    EXPECT_EQ(alloc.used_frames(), 0u) << "server " << s << " leaked";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomOpsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// --- Scenario: the full runtime loop against a shifting workload ----------

TEST(EndToEndTest, RuntimeAdaptsToWorkloadShift) {
  auto pool_or = Pool::Create(PoolOptions::Small());
  ASSERT_TRUE(pool_or.ok());
  Pool& pool = **pool_or;
  auto& manager = pool.manager();
  manager.access_tracker().set_half_life(Seconds(5));

  // Data born on server 1.
  auto buf = pool.Allocate(MiB(4), 1);
  ASSERT_TRUE(buf.ok());

  // Phase 1: server 1 is the consumer; nothing should move.
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(
        manager.Touch(1, *buf, 0, MiB(4), Milliseconds(i * 10)).ok());
  }
  EXPECT_TRUE(pool.Tick(Milliseconds(200)).empty());

  // Phase 2: consumption shifts to server 3.
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(manager
                    .Touch(3, *buf, 0, MiB(4),
                           Milliseconds(300 + i * 10))
                    .ok());
  }
  const auto moves = pool.Tick(Milliseconds(800));
  ASSERT_FALSE(moves.empty());
  auto frac = manager.LocalFraction(*buf, 3);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 1.0);
}

// --- Scenario: Zipf-driven balancing --------------------------------------

TEST(EndToEndTest, ZipfTraceBalancingImprovesLocality) {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = MiB(8);
  config.server_shared_memory = MiB(8);
  config.frame_size = KiB(4);
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);
  manager.access_tracker().set_half_life(Seconds(100));
  core::MigrationEngine engine(&manager);

  std::vector<core::BufferId> buffers;
  for (int i = 0; i < 8; ++i) {
    auto buf = manager.Allocate(
        MiB(1), static_cast<cluster::ServerId>((i % 3) + 1));
    ASSERT_TRUE(buf.ok());
    buffers.push_back(*buf);
  }
  // 2000 Zipf(0.9) reads of 64 KiB chunks from server 0, which owns none
  // of the buffers: the buffer and the chunk within it are both zipfian.
  ZipfGenerator buffer_zipf(buffers.size(), 0.9, 11);
  ZipfGenerator chunk_zipf(MiB(1) / KiB(64), 0.9, 11 ^ 0x9e3779b9);
  std::vector<std::pair<core::BufferId, Bytes>> reads;
  for (int i = 0; i < 2000; ++i) {
    const core::BufferId buffer = buffers[buffer_zipf.Next()];
    reads.emplace_back(buffer, chunk_zipf.Next() * KiB(64));
  }
  // Replays the reads at `now` (recording hotness) and returns the fraction
  // of bytes homed on the reading server.
  auto replay = [&](SimTime now) {
    double local = 0;
    for (const auto& [buffer, offset] : reads) {
      auto spans = manager.Spans(buffer, offset, KiB(64));
      EXPECT_TRUE(spans.ok() &&
                  manager.Touch(0, buffer, offset, KiB(64), now).ok());
      for (const core::LocatedSpan& span : spans.value_or({})) {
        if (!span.location.is_pool() && span.location.server == 0) {
          local += static_cast<double>(span.bytes);
        }
      }
    }
    return local / static_cast<double>(reads.size() * KiB(64));
  };

  EXPECT_DOUBLE_EQ(replay(Seconds(1)), 0.0);
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(engine.RunOnce(Seconds(2)).ok());
  }
  EXPECT_GT(replay(Seconds(3)), 0.5);
}

// --- Scenario: erasure + migration interplay -------------------------------

TEST(EndToEndTest, MigrationOfErasureMemberKeepsGroupRecoverable) {
  cluster::ClusterConfig config = FuzzConfig();
  config.num_servers = 5;
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);
  core::XorErasureManager erasure(&manager, 2);

  std::vector<core::BufferId> buffers;
  std::vector<core::SegmentId> segments;
  std::vector<std::vector<std::byte>> data;
  for (int s = 0; s < 2; ++s) {
    auto buf = manager.Allocate(KiB(32),
                                static_cast<cluster::ServerId>(s));
    ASSERT_TRUE(buf.ok());
    buffers.push_back(*buf);
    segments.push_back(manager.Describe(*buf)->segments[0]);
    data.emplace_back(KiB(32), std::byte{static_cast<unsigned char>(s + 1)});
    ASSERT_TRUE(manager.Write(0, *buf, 0, data.back()).ok());
  }
  ASSERT_TRUE(erasure.ProtectSegments(segments).ok());

  // Migrate member 0 somewhere else, then crash its new home.
  ASSERT_TRUE(manager.MigrateSegment(segments[0], 4).ok());
  ASSERT_TRUE(manager.OnServerCrash(4).ok());
  ASSERT_EQ(manager.segment_map().Find(segments[0])->state,
            core::SegmentState::kLost);

  // NOTE: parity was computed before the migration; the bytes are
  // unchanged by the move, so recovery still reconstructs correctly.
  ASSERT_TRUE(erasure.RecoverSegment(segments[0]).ok());
  std::vector<std::byte> out(KiB(32));
  ASSERT_TRUE(manager.Read(1, buffers[0], 0, out).ok());
  EXPECT_EQ(out, data[0]);
}

}  // namespace
}  // namespace lmp
