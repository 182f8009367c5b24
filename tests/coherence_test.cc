// Tests for the coherence directory (MSI, message counting, granularity)
// and the coherent-region primitives (lock, barrier, fetch-add).
#include <gtest/gtest.h>

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
