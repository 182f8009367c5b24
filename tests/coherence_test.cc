// Tests for the coherence directory (MSI, message counting, granularity,
// the tracked-block bound that makes it an inclusive snoop filter) and the
// coherent-region primitives (lock, barrier, fetch-add).
#include <gtest/gtest.h>

#include <vector>

#include "core/coherence.h"
#include "core/coherent_region.h"

namespace lmp::core {
namespace {

// --- CoherenceDirectory --------------------------------------------------------

TEST(CoherenceTest, ColdReadFills) {
  CoherenceDirectory dir(1024, 64, 4);
  auto msgs = dir.AcquireShared(0, 0, 8);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 1);  // one fill
  EXPECT_EQ(dir.StateOf(0, 0), BlockState::kShared);
}

TEST(CoherenceTest, RepeatReadHits) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireShared(0, 0, 8).ok());
  auto msgs = dir.AcquireShared(0, 0, 8);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 0);
  EXPECT_EQ(dir.stats().hits, 1u);
}

TEST(CoherenceTest, MultipleSharersCoexist) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireShared(0, 0, 8).ok());
  ASSERT_TRUE(dir.AcquireShared(1, 0, 8).ok());
  ASSERT_TRUE(dir.AcquireShared(2, 0, 8).ok());
  EXPECT_EQ(dir.SharerCount(0), 3);
  EXPECT_EQ(dir.StateOf(1, 0), BlockState::kShared);
}

TEST(CoherenceTest, WriteInvalidatesAllSharers) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireShared(0, 0, 8).ok());
  ASSERT_TRUE(dir.AcquireShared(1, 0, 8).ok());
  auto msgs = dir.AcquireExclusive(2, 0, 8);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 3);  // 2 invalidations + 1 fill
  EXPECT_EQ(dir.stats().invalidation_msgs, 2u);
  EXPECT_EQ(dir.StateOf(2, 0), BlockState::kModified);
  EXPECT_EQ(dir.StateOf(0, 0), BlockState::kInvalid);
}

TEST(CoherenceTest, WriterUpgradesInPlace) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireShared(0, 0, 8).ok());
  auto msgs = dir.AcquireExclusive(0, 0, 8);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 0);  // sole sharer upgrades silently
  EXPECT_EQ(dir.StateOf(0, 0), BlockState::kModified);
}

TEST(CoherenceTest, ReadOfModifiedDowngradesOwner) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireExclusive(0, 0, 8).ok());
  auto msgs = dir.AcquireShared(1, 0, 8);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 2);  // downgrade + fill
  EXPECT_EQ(dir.stats().downgrade_msgs, 1u);
  EXPECT_EQ(dir.StateOf(0, 0), BlockState::kShared);
  EXPECT_EQ(dir.StateOf(1, 0), BlockState::kShared);
}

TEST(CoherenceTest, OwnerRereadsOwnDirtyCopy) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireExclusive(0, 0, 8).ok());
  auto msgs = dir.AcquireShared(0, 0, 8);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 0);
  EXPECT_EQ(dir.StateOf(0, 0), BlockState::kModified);
}

TEST(CoherenceTest, WriteStealsModifiedBlock) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireExclusive(0, 0, 8).ok());
  auto msgs = dir.AcquireExclusive(1, 0, 8);
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 2);  // invalidate owner + fill
  EXPECT_EQ(dir.StateOf(1, 0), BlockState::kModified);
  EXPECT_EQ(dir.StateOf(0, 0), BlockState::kInvalid);
}

TEST(CoherenceTest, RangeSpanningBlocksTouchesEach) {
  CoherenceDirectory dir(1024, 64, 4);
  auto msgs = dir.AcquireShared(0, 60, 8);  // straddles blocks 0 and 1
  ASSERT_TRUE(msgs.ok());
  EXPECT_EQ(*msgs, 2);
}

// Invalidations over 10 rounds in which host 0 writes the 8 bytes at 0 and
// host 1 the 8 bytes at `host1_offset`.
std::uint64_t PingPongInvalidations(Bytes granularity, Bytes host1_offset) {
  CoherenceDirectory dir(1024, granularity, 2);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(dir.AcquireExclusive(0, 0, 8).ok());
    EXPECT_TRUE(dir.AcquireExclusive(1, host1_offset, 8).ok());
  }
  return dir.stats().invalidation_msgs;
}

TEST(CoherenceTest, FalseSharingAtLineGranularity) {
  // Adjacent counters: while one block holds both (64 B lines, 16 B blocks)
  // each of the 20 writes but the first steals it; 8 B blocks do not.
  EXPECT_EQ(PingPongInvalidations(64, 8), 19u);
  EXPECT_EQ(PingPongInvalidations(16, 8), 19u);
  EXPECT_EQ(PingPongInvalidations(8, 8), 0u);
}

TEST(CoherenceTest, TrueSharingPingPongsAtEveryGranularity) {
  // The same word: no block size separates the two writers.
  EXPECT_EQ(PingPongInvalidations(64, 0), 19u);
  EXPECT_EQ(PingPongInvalidations(8, 0), 19u);
}

TEST(CoherenceTest, ReleaseHostDropsItsCopies) {
  CoherenceDirectory dir(1024, 64, 4);
  ASSERT_TRUE(dir.AcquireExclusive(0, 0, 8).ok());
  ASSERT_TRUE(dir.AcquireShared(1, 128, 8).ok());
  dir.ReleaseHost(0);
  EXPECT_EQ(dir.StateOf(0, 0), BlockState::kInvalid);
  EXPECT_EQ(dir.SharerCount(0), 0);
  EXPECT_EQ(dir.StateOf(1, 128), BlockState::kShared);  // others untouched
}

TEST(CoherenceTest, RangeValidation) {
  CoherenceDirectory dir(1024, 64, 4);
  EXPECT_FALSE(dir.AcquireShared(0, 1020, 8).ok());   // beyond region
  EXPECT_FALSE(dir.AcquireShared(9, 0, 8).ok());      // bad host
  EXPECT_FALSE(dir.AcquireShared(0, 0, 0).ok());      // empty
}

// --- Bounded directory: CXL's inclusive snoop filter (§3.2) -----------------

// One 64 B line per block, four hosts; line `l` sits at offset l * 64.
constexpr Bytes kLine = 64;

CoherenceDirectory SnoopFilter(std::uint64_t tracked_lines,
                               std::uint64_t lines = 1024) {
  return CoherenceDirectory(lines * kLine, kLine, 4,
                            {.max_tracked_blocks = tracked_lines});
}

int Read(CoherenceDirectory& dir, int host, std::uint64_t line) {
  return *dir.AcquireShared(host, line * kLine, kLine);
}

int Write(CoherenceDirectory& dir, int host, std::uint64_t line) {
  return *dir.AcquireExclusive(host, line * kLine, kLine);
}

bool IsTracked(const CoherenceDirectory& dir, std::uint64_t line) {
  return dir.SharerCount(line * kLine) > 0;
}

TEST(SnoopFilterTest, TracksReadersAndWriters) {
  CoherenceDirectory filter = SnoopFilter(16);
  EXPECT_EQ(Read(filter, 0, 1), 1);  // a fill, no back-invalidation
  EXPECT_EQ(Read(filter, 1, 1), 1);
  EXPECT_TRUE(IsTracked(filter, 1));
  EXPECT_EQ(filter.SharerCount(1 * kLine), 2);
  // A write invalidates both other sharers and fills the writer.
  EXPECT_EQ(Write(filter, 2, 1), 3);
  EXPECT_EQ(filter.stats().invalidation_msgs, 2u);
  EXPECT_EQ(filter.stats().back_invalidations, 0u);
}

TEST(SnoopFilterTest, WriterRewriteIsQuiet) {
  CoherenceDirectory filter = SnoopFilter(16);
  Write(filter, 0, 5);
  EXPECT_EQ(Write(filter, 0, 5), 0);
}

TEST(SnoopFilterTest, CapacityEvictionBackInvalidates) {
  CoherenceDirectory filter = SnoopFilter(2);
  Read(filter, 0, 1);
  Read(filter, 0, 2);
  EXPECT_EQ(Read(filter, 0, 3), 2);  // fill + back-invalidate line 1 (LRU)
  EXPECT_EQ(filter.stats().back_invalidations, 1u);
  EXPECT_FALSE(IsTracked(filter, 1));
  EXPECT_TRUE(IsTracked(filter, 3));
  EXPECT_EQ(filter.TrackedBlocks(), 2u);
}

TEST(SnoopFilterTest, EvictionInvalidatesEverySharer) {
  CoherenceDirectory filter = SnoopFilter(1);
  Read(filter, 0, 7);
  Read(filter, 1, 7);
  Read(filter, 2, 7);
  EXPECT_EQ(Read(filter, 0, 8), 4);  // fill + three back-invalidations
  EXPECT_EQ(filter.stats().back_invalidations, 3u);
  EXPECT_EQ(filter.StateOf(1, 7 * kLine), BlockState::kInvalid);
}

TEST(SnoopFilterTest, ModifiedVictimIsBackInvalidatedAndWrittenBack) {
  CoherenceDirectory filter = SnoopFilter(1);
  Write(filter, 0, 7);
  EXPECT_EQ(Read(filter, 1, 8), 3);  // fill + back-invalidation + writeback
  EXPECT_EQ(filter.stats().back_invalidations, 1u);
  EXPECT_EQ(filter.stats().downgrade_msgs, 1u);
  EXPECT_EQ(filter.StateOf(0, 7 * kLine), BlockState::kInvalid);
}

TEST(SnoopFilterTest, RecencyProtectsHotLines) {
  CoherenceDirectory filter = SnoopFilter(2);
  Read(filter, 0, 1);
  Read(filter, 0, 2);
  Read(filter, 0, 1);  // 1 is now the most recent
  Read(filter, 0, 3);  // must evict 2, not 1
  EXPECT_TRUE(IsTracked(filter, 1));
  EXPECT_FALSE(IsTracked(filter, 2));
}

TEST(SnoopFilterTest, ReleasedBlocksFreeTheirEntries) {
  CoherenceDirectory filter = SnoopFilter(2);
  Read(filter, 0, 1);
  Write(filter, 1, 2);
  filter.ReleaseHost(0);
  filter.ReleaseHost(1);
  EXPECT_EQ(filter.TrackedBlocks(), 0u);
  Read(filter, 2, 3);
  Read(filter, 2, 4);
  EXPECT_EQ(filter.stats().back_invalidations, 0u);
}

// The §3.2 design point: a working set within the filter capacity causes
// ZERO back-invalidations; exceed it and every new line thrashes.
TEST(SnoopFilterTest, SmallCoherentRegionAvoidsThrash) {
  CoherenceDirectory filter = SnoopFilter(1024, 512);
  // Working set of 512 lines, cycled 10x: fits.
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t line = 0; line < 512; ++line) {
      Read(filter, static_cast<int>(line % 4), line);
    }
  }
  EXPECT_EQ(filter.stats().back_invalidations, 0u);

  CoherenceDirectory small = SnoopFilter(256, 512);
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t line = 0; line < 512; ++line) {
      Read(small, static_cast<int>(line % 4), line);
    }
  }
  EXPECT_GT(small.stats().back_invalidations, 4000u);  // thrashing
  EXPECT_EQ(small.TrackedBlocks(), 256u);
}

TEST(SnoopFilterTest, UnboundedDirectoryNeverBackInvalidates) {
  CoherenceDirectory dir(512 * kLine, kLine, 4);
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t line = 0; line < 512; ++line) {
      Write(dir, static_cast<int>((line + round) % 4), line);
      Read(dir, static_cast<int>((line + round + 1) % 4), line);
    }
  }
  EXPECT_EQ(dir.stats().back_invalidations, 0u);
  EXPECT_EQ(dir.TrackedBlocks(), 512u);
}

// --- CoherentRegion --------------------------------------------------------------

TEST(CoherentRegionTest, LoadStoreRoundTrip) {
  CoherentRegion region(1024, 16, 4);
  ASSERT_TRUE(region.Store(0, 64, 0xDEADBEEF).ok());
  auto v = region.Load(1, 64);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0xDEADBEEFu);
}

TEST(CoherentRegionTest, FetchAddReturnsPrevious) {
  CoherentRegion region(1024, 16, 4);
  auto p0 = region.FetchAdd(0, 0, 5);
  auto p1 = region.FetchAdd(1, 0, 3);
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 5u);
  EXPECT_EQ(*region.Load(2, 0), 8u);
}

TEST(CoherentRegionTest, CompareExchangeSemantics) {
  CoherentRegion region(1024, 16, 4);
  bool ok = false;
  ASSERT_TRUE(region.CompareExchange(0, 0, 0, 42, &ok).ok());
  EXPECT_TRUE(ok);
  auto prev = region.CompareExchange(1, 0, 0, 99, &ok);
  ASSERT_TRUE(prev.ok());
  EXPECT_FALSE(ok);
  EXPECT_EQ(*prev, 42u);
  EXPECT_EQ(*region.Load(0, 0), 42u);
}

TEST(CoherentRegionTest, MisalignedCellRejected) {
  CoherentRegion region(1024, 16, 4);
  EXPECT_FALSE(region.Load(0, 3).ok());
  EXPECT_FALSE(region.Store(0, 1020, 1).ok());
}

TEST(CoherentRegionTest, AccessesDriveCoherenceTraffic) {
  CoherentRegion region(1024, 16, 4);
  ASSERT_TRUE(region.Store(0, 0, 1).ok());
  ASSERT_TRUE(region.Load(1, 0).ok());  // downgrade + fill
  EXPECT_GT(region.directory().stats().TotalMessages(), 1u);
}

// Cycles `locks` lock cells, each in its own 16 B block, through every
// host in turn; returns the directory's back-invalidations.
std::uint64_t LockBackInvalidations(int locks, DirectoryOptions options) {
  CoherentRegion region(1024, 16, 4, options);
  std::vector<DistributedLock> cells;
  cells.reserve(locks);
  for (int i = 0; i < locks; ++i) cells.emplace_back(&region, 16 * i);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < locks; ++i) {
      const int host = (round + i) % 4;
      EXPECT_TRUE(*cells[i].TryLock(host));
      EXPECT_TRUE(cells[i].Unlock(host).ok());
    }
  }
  return region.directory().stats().back_invalidations;
}

// Lock traffic feels the snoop-filter bound only once its working set of
// lock cells outgrows it; an unbounded directory never back-invalidates.
TEST(CoherentRegionTest, LockTrafficBackInvalidatesPastTheBound) {
  EXPECT_EQ(LockBackInvalidations(4, {.max_tracked_blocks = 8}), 0u);
  EXPECT_GT(LockBackInvalidations(16, {.max_tracked_blocks = 8}), 0u);
  EXPECT_EQ(LockBackInvalidations(16, {}), 0u);
}

// --- DistributedLock ------------------------------------------------------------

TEST(DistributedLockTest, MutualExclusion) {
  CoherentRegion region(1024, 16, 4);
  DistributedLock lock(&region, 0);
  auto got0 = lock.TryLock(0);
  ASSERT_TRUE(got0.ok());
  EXPECT_TRUE(*got0);
  auto got1 = lock.TryLock(1);
  ASSERT_TRUE(got1.ok());
  EXPECT_FALSE(*got1);
  EXPECT_EQ(lock.holder(), 0);
  ASSERT_TRUE(lock.Unlock(0).ok());
  auto got1b = lock.TryLock(1);
  ASSERT_TRUE(got1b.ok());
  EXPECT_TRUE(*got1b);
}

TEST(DistributedLockTest, UnlockByNonHolderRejected) {
  CoherentRegion region(1024, 16, 4);
  DistributedLock lock(&region, 0);
  ASSERT_TRUE(*lock.TryLock(2));
  EXPECT_FALSE(lock.Unlock(1).ok());
  EXPECT_TRUE(lock.Unlock(2).ok());
}

TEST(DistributedLockTest, StatsCountContention) {
  CoherentRegion region(1024, 16, 4);
  DistributedLock lock(&region, 0);
  ASSERT_TRUE(*lock.TryLock(0));
  ASSERT_FALSE(*lock.TryLock(1));
  ASSERT_FALSE(*lock.TryLock(2));
  EXPECT_EQ(lock.acquisitions(), 1u);
  EXPECT_EQ(lock.failed_attempts(), 2u);
}

// --- CoherentBarrier --------------------------------------------------------------

TEST(CoherentBarrierTest, ReleasesOnLastArrival) {
  CoherentRegion region(1024, 16, 4);
  CoherentBarrier barrier(&region, 0, 3);
  EXPECT_FALSE(*barrier.Arrive(0));
  EXPECT_FALSE(*barrier.Arrive(1));
  EXPECT_TRUE(*barrier.Arrive(2));  // releasing arrival
  EXPECT_EQ(*barrier.Generation(0), 1u);
}

TEST(CoherentBarrierTest, ReusableAcrossGenerations) {
  CoherentRegion region(1024, 16, 2);
  CoherentBarrier barrier(&region, 0, 2);
  for (int round = 1; round <= 3; ++round) {
    EXPECT_FALSE(*barrier.Arrive(0));
    EXPECT_TRUE(*barrier.Arrive(1));
    EXPECT_EQ(*barrier.Generation(0),
              static_cast<std::uint64_t>(round));
  }
}

}  // namespace
}  // namespace lmp::core
