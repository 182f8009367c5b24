// Tests for mem/: frame allocator, LRU cache, backing store, NUMA matrix.
#include <gtest/gtest.h>

#include <utility>

#include "mem/backing_store.h"
#include "mem/frame_allocator.h"
#include "mem/lru_cache.h"
#include "mem/numa.h"

namespace lmp::mem {
namespace {

// Request builders the tests use; keeps call sites one-liners without
// tripping -Wmissing-field-initializers on the skipped optional fields.
AllocRequest InLocus(std::uint64_t frames, LocusId locus) {
  AllocRequest request;
  request.frames = frames;
  request.locus = locus;
  return request;
}

AllocRequest Contiguous(std::uint64_t frames) {
  AllocRequest request;
  request.frames = frames;
  request.prefer_contiguous = true;
  return request;
}

// --- FrameAllocator ---------------------------------------------------------

TEST(FrameAllocatorTest, AllocatesExactCount) {
  FrameAllocator alloc(100, KiB(64));
  auto runs = alloc.Allocate(AllocRequest::Of(10));
  ASSERT_TRUE(runs.ok());
  std::uint64_t total = 0;
  for (const auto& r : *runs) total += r.count;
  EXPECT_EQ(total, 10u);
  EXPECT_EQ(alloc.used_frames(), 10u);
  EXPECT_EQ(alloc.free_frames(), 90u);
}

TEST(FrameAllocatorTest, FreshAllocationIsOneRun) {
  FrameAllocator alloc(100, KiB(4));
  auto runs = alloc.Allocate(AllocRequest::Of(50));
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ(runs->size(), 1u);
  EXPECT_EQ((*runs)[0].count, 50u);
}

TEST(FrameAllocatorTest, ZeroFramesIsEmpty) {
  FrameAllocator alloc(10, KiB(4));
  auto runs = alloc.Allocate(AllocRequest::Of(0));
  ASSERT_TRUE(runs.ok());
  EXPECT_TRUE(runs->empty());
}

TEST(FrameAllocatorTest, ExhaustionIsOutOfMemory) {
  FrameAllocator alloc(10, KiB(4));
  ASSERT_TRUE(alloc.Allocate(AllocRequest::Of(10)).ok());
  auto more = alloc.Allocate(AllocRequest::Of(1));
  EXPECT_FALSE(more.ok());
  EXPECT_TRUE(IsOutOfMemory(more.status()));
}

TEST(FrameAllocatorTest, FreeMakesFramesReusable) {
  FrameAllocator alloc(10, KiB(4));
  auto runs = alloc.Allocate(AllocRequest::Of(10));
  ASSERT_TRUE(runs.ok());
  ASSERT_TRUE(alloc.Free(*runs).ok());
  EXPECT_EQ(alloc.free_frames(), 10u);
  EXPECT_TRUE(alloc.Allocate(AllocRequest::Of(10)).ok());
}

TEST(FrameAllocatorTest, DoubleFreeRejectedAtomically) {
  FrameAllocator alloc(10, KiB(4));
  auto runs = alloc.Allocate(AllocRequest::Of(5));
  ASSERT_TRUE(runs.ok());
  ASSERT_TRUE(alloc.Free(*runs).ok());
  EXPECT_FALSE(alloc.Free(*runs).ok());
  EXPECT_EQ(alloc.free_frames(), 10u);  // state unchanged by bad free
}

TEST(FrameAllocatorTest, OutOfRangeFreeRejected) {
  FrameAllocator alloc(10, KiB(4));
  EXPECT_FALSE(alloc.Free({FrameRun{5, 10}}).ok());
}

TEST(FrameAllocatorTest, FragmentedAllocationSpansHoles) {
  FrameAllocator alloc(10, KiB(4));
  auto a = alloc.Allocate(AllocRequest::Of(4));   // frames 0-3
  auto b = alloc.Allocate(AllocRequest::Of(2));   // frames 4-5
  auto c = alloc.Allocate(AllocRequest::Of(4));   // frames 6-9
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(alloc.Free(*a).ok());
  ASSERT_TRUE(alloc.Free(*c).ok());
  // 8 free frames in two disjoint regions; allocation must span both.
  auto d = alloc.Allocate(AllocRequest::Of(8));
  ASSERT_TRUE(d.ok());
  EXPECT_GE(d->size(), 2u);
  EXPECT_EQ(alloc.free_frames(), 0u);
}

TEST(FrameAllocatorTest, GrowAddsFreeFrames) {
  FrameAllocator alloc(10, KiB(4));
  ASSERT_TRUE(alloc.Resize(20).ok());
  EXPECT_EQ(alloc.num_frames(), 20u);
  EXPECT_EQ(alloc.free_frames(), 20u);
}

TEST(FrameAllocatorTest, ShrinkBlockedByLiveFrames) {
  FrameAllocator alloc(10, KiB(4));
  auto runs = alloc.Allocate(AllocRequest::Of(8));
  ASSERT_TRUE(runs.ok());
  EXPECT_FALSE(alloc.Resize(4).ok());  // frames 0-7 live
  ASSERT_TRUE(alloc.Free(*runs).ok());
  EXPECT_TRUE(alloc.Resize(4).ok());
  EXPECT_EQ(alloc.num_frames(), 4u);
}

TEST(FrameAllocatorTest, CapacityArithmetic) {
  FrameAllocator alloc(16, KiB(64));
  EXPECT_EQ(alloc.capacity_bytes(), MiB(1));
  ASSERT_TRUE(alloc.Allocate(AllocRequest::Of(4)).ok());
  EXPECT_EQ(alloc.free_bytes(), KiB(64) * 12);
}

TEST(FrameAllocatorTest, IsAllocatedTracksState) {
  FrameAllocator alloc(4, KiB(4));
  EXPECT_FALSE(alloc.IsAllocated(0));
  auto runs = alloc.Allocate(AllocRequest::Of(1));
  ASSERT_TRUE(runs.ok());
  EXPECT_TRUE(alloc.IsAllocated((*runs)[0].first));
  EXPECT_FALSE(alloc.IsAllocated(99));  // out of range is not allocated
}

TEST(FramesForBytesTest, RoundsUp) {
  EXPECT_EQ(FramesForBytes(1, KiB(4)), 1u);
  EXPECT_EQ(FramesForBytes(KiB(4), KiB(4)), 1u);
  EXPECT_EQ(FramesForBytes(KiB(4) + 1, KiB(4)), 2u);
  EXPECT_EQ(FramesForBytes(0, KiB(4)), 0u);
}

TEST(FrameAllocatorTest, HighestAllocatedEndTracksTail) {
  FrameAllocator alloc(8, KiB(4));
  EXPECT_EQ(alloc.HighestAllocatedEnd(), 0u);
  auto a = alloc.Allocate(AllocRequest::Of(3));  // frames 0..2
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(alloc.HighestAllocatedEnd(), 3u);
  auto b = alloc.Allocate(AllocRequest::Of(2));  // frames 3..4
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(alloc.Free(*a).ok());
  // Low frames freed: the tail is still pinned by the highest live frame.
  EXPECT_EQ(alloc.HighestAllocatedEnd(), 5u);
}

TEST(FrameAllocatorTest, BoundedRequestPacksUnderTheBound) {
  FrameAllocator alloc(8, KiB(4));
  auto a = alloc.Allocate(AllocRequest::Of(2));  // 0..1
  auto b = alloc.Allocate(AllocRequest::Of(2));  // 2..3, next-fit hint now at 4
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(alloc.Free(*a).ok());
  // Default next-fit would continue from the hint; a bounded request must
  // come back for the hole at the bottom.
  auto low = alloc.Allocate(AllocRequest::Below(2, 4));
  ASSERT_TRUE(low.ok());
  ASSERT_EQ(low->size(), 1u);
  EXPECT_EQ((*low)[0].first, 0u);
  EXPECT_EQ((*low)[0].count, 2u);
}

TEST(FrameAllocatorTest, BoundedShortageLeavesStateUntouched) {
  FrameAllocator alloc(8, KiB(4));
  auto a = alloc.Allocate(AllocRequest::Of(3));  // 0..2
  ASSERT_TRUE(a.ok());
  const std::uint64_t free_before = alloc.free_frames();
  // Only frame 3 is free below 4.
  auto low = alloc.Allocate(AllocRequest::Below(3, 4));
  EXPECT_TRUE(IsOutOfMemory(low.status()));
  // Reserve-before-commit: shortage never mutates the free index.
  EXPECT_EQ(alloc.free_frames(), free_before);
  EXPECT_EQ(alloc.free_run_count(), 1u);  // still one coalesced run [3, 8)
}


TEST(FrameAllocatorTest, DefaultPlacementMatchesLegacyNextFit) {
  // The default locus reproduces the bitmap-era next-fit scan exactly:
  // frames are taken in scan order from the hint, wrapping once.
  FrameAllocator alloc(8, KiB(4));
  auto a = alloc.Allocate(AllocRequest::Of(3));  // 0..2
  auto b = alloc.Allocate(AllocRequest::Of(3));  // 3..5
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(alloc.Free(*a).ok());
  // Hint sits at 6: the next grab takes 6..7, then wraps to 0.
  auto c = alloc.Allocate(AllocRequest::Of(4));
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->size(), 2u);
  EXPECT_EQ((*c)[0], (FrameRun{6, 2}));
  EXPECT_EQ((*c)[1], (FrameRun{0, 2}));
}

TEST(FrameAllocatorTest, FreeRunCountTracksFragmentation) {
  FrameAllocator alloc(10, KiB(4));
  EXPECT_EQ(alloc.free_run_count(), 1u);
  auto a = alloc.Allocate(AllocRequest::Of(2));  // 0..1
  auto b = alloc.Allocate(AllocRequest::Of(2));  // 2..3
  auto c = alloc.Allocate(AllocRequest::Of(2));  // 4..5
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  ASSERT_TRUE(alloc.Free(*b).ok());
  EXPECT_EQ(alloc.free_run_count(), 2u);  // {2..3} and {6..9}
  // Freeing the neighbours coalesces everything back into one run.
  ASSERT_TRUE(alloc.Free(*a).ok());
  ASSERT_TRUE(alloc.Free(*c).ok());
  EXPECT_EQ(alloc.free_run_count(), 1u);
  EXPECT_EQ(alloc.free_frames(), 10u);
}

TEST(FrameAllocatorTest, AllocatedFramesFromCountsTail) {
  FrameAllocator alloc(10, KiB(4));
  auto a = alloc.Allocate(AllocRequest::Of(4));  // 0..3
  auto b = alloc.Allocate(AllocRequest::Of(4));  // 4..7
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(alloc.Free(*a).ok());
  EXPECT_EQ(alloc.AllocatedFramesFrom(0), 4u);
  EXPECT_EQ(alloc.AllocatedFramesFrom(6), 2u);
  EXPECT_EQ(alloc.AllocatedFramesFrom(8), 0u);
  EXPECT_EQ(alloc.AllocatedFramesFrom(99), 0u);
}

TEST(FrameAllocatorTest, OverlappingRunsInOneFreeRejected) {
  FrameAllocator alloc(10, KiB(4));
  auto runs = alloc.Allocate(AllocRequest::Of(6));
  ASSERT_TRUE(runs.ok());
  // The same frames twice in one call must not corrupt the free count
  // (the bitmap implementation double-counted here).
  EXPECT_FALSE(alloc.Free({(*runs)[0], (*runs)[0]}).ok());
  EXPECT_EQ(alloc.free_frames(), 4u);
}

TEST(FrameAllocatorTest, MobileLocusPacksLowPinnedPacksHigh) {
  FrameAllocator alloc(100, KiB(4));
  const LocusId mobile = alloc.RegisterLocus({"tenant/a", Mobility::kMobile});
  const LocusId pinned = alloc.RegisterLocus({"tenant/b", Mobility::kPinned});
  auto lo = alloc.Allocate(InLocus(10, mobile));
  auto hi = alloc.Allocate(InLocus(10, pinned));
  ASSERT_TRUE(lo.ok() && hi.ok());
  EXPECT_EQ((*lo)[0], (FrameRun{0, 10}));
  EXPECT_EQ((*hi)[0], (FrameRun{90, 10}));
  // The cohorts keep packing outward on subsequent grabs.
  auto lo2 = alloc.Allocate(InLocus(5, mobile));
  auto hi2 = alloc.Allocate(InLocus(5, pinned));
  ASSERT_TRUE(lo2.ok() && hi2.ok());
  EXPECT_EQ((*lo2)[0], (FrameRun{10, 5}));
  EXPECT_EQ((*hi2)[0], (FrameRun{85, 5}));
}

TEST(FrameAllocatorTest, RegisterLocusIsGetOrCreate) {
  FrameAllocator alloc(100, KiB(4));
  const LocusId a = alloc.RegisterLocus({"tenant/a", Mobility::kPinned});
  const LocusId again = alloc.RegisterLocus({"tenant/a", Mobility::kMobile});
  EXPECT_EQ(a, again);
  EXPECT_EQ(alloc.locus_spec(a).mobility, Mobility::kPinned);  // first wins
  EXPECT_EQ(alloc.RegisterLocus({""}), kDefaultLocus);
}

TEST(FrameAllocatorTest, BufferedLocusServesContiguousSmallGrabs) {
  FrameAllocator alloc(100, KiB(4));
  const LocusId id = alloc.RegisterLocus(
      {"tenant/buf", Mobility::kMobile, /*buffer_frames=*/16});
  auto a = alloc.Allocate(InLocus(3, id));
  auto b = alloc.Allocate(InLocus(3, id));
  ASSERT_TRUE(a.ok() && b.ok());
  // Both grabs bump within one 16-frame reservation: contiguous frames,
  // one refill, and the reservation reads as allocated.
  EXPECT_EQ((*a)[0], (FrameRun{0, 3}));
  EXPECT_EQ((*b)[0], (FrameRun{3, 3}));
  EXPECT_EQ(alloc.locus_stats(id).buffer_refills, 1u);
  EXPECT_EQ(alloc.buffered_frames(), 10u);
  EXPECT_EQ(alloc.free_frames(), 84u);
  EXPECT_TRUE(alloc.IsAllocated(8));  // reserved, not yet handed out
  alloc.FlushLocusBuffers();
  EXPECT_EQ(alloc.buffered_frames(), 0u);
  EXPECT_EQ(alloc.free_frames(), 94u);
  EXPECT_FALSE(alloc.IsAllocated(8));
}

TEST(FrameAllocatorTest, ShrinkFlushesLocusBuffers) {
  FrameAllocator alloc(100, KiB(4));
  const LocusId id = alloc.RegisterLocus(
      {"tenant/buf", Mobility::kPinned, /*buffer_frames=*/16});
  // The pinned buffer reserves the top 16 frames; only 2 are handed out.
  auto runs = alloc.Allocate(InLocus(2, id));
  ASSERT_TRUE(runs.ok());
  EXPECT_EQ((*runs)[0], (FrameRun{98, 2}));
  // A shrink to 50 would be blocked by the reservation alone; the resize
  // flushes it and fails only on the 2 truly live frames.
  auto st = alloc.Resize(50);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(alloc.buffered_frames(), 0u);
  ASSERT_TRUE(alloc.Free(*runs).ok());
  EXPECT_TRUE(alloc.Resize(50).ok());
}

TEST(FrameAllocatorTest, PreferContiguousUsesBestFitBucket) {
  FrameAllocator alloc(64, KiB(4));
  auto a = alloc.Allocate(AllocRequest::Of(8));    // 0..7
  auto b = alloc.Allocate(AllocRequest::Of(40));   // 8..47
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(alloc.Free(*a).ok());
  // Free runs: {0..7} (8 frames) and {48..63} (16 frames).  A contiguous
  // request for 6 takes the snugger 8-frame hole, not the next-fit pick.
  auto c = alloc.Allocate(Contiguous(6));
  ASSERT_TRUE(c.ok());
  ASSERT_EQ(c->size(), 1u);
  EXPECT_EQ((*c)[0], (FrameRun{0, 6}));
}

TEST(FrameAllocatorTest, LocusStatsAccumulate) {
  FrameAllocator alloc(100, KiB(4));
  const LocusId id = alloc.RegisterLocus({"tenant/a", Mobility::kMobile});
  ASSERT_TRUE(alloc.Allocate(InLocus(4, id)).ok());
  ASSERT_TRUE(alloc.Allocate(InLocus(6, id)).ok());
  EXPECT_EQ(alloc.locus_stats(id).allocs, 2u);
  EXPECT_EQ(alloc.locus_stats(id).frames, 10u);
  EXPECT_EQ(alloc.num_loci(), 2u);  // default + tenant/a
}

TEST(FrameAllocatorTest, UnknownLocusRejected) {
  FrameAllocator alloc(10, KiB(4));
  auto runs = alloc.Allocate(InLocus(1, 7));
  EXPECT_FALSE(runs.ok());
}

// --- LruCache -------------------------------------------------------------------

TEST(LruCacheTest, MissThenHit) {
  LruCache cache(4);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_TRUE(cache.Access(1));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.Access(1);
  cache.Access(2);
  cache.Access(1);      // 1 is now MRU
  cache.Access(3);      // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  auto evicted = cache.TakeEvicted();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].page, 2u);
}

TEST(LruCacheTest, DirtyEvictionTracked) {
  LruCache cache(1);
  cache.Access(1, /*write=*/true);
  cache.Access(2);
  EXPECT_EQ(cache.stats().dirty_evictions, 1u);
  auto evicted = cache.TakeEvicted();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_TRUE(evicted[0].dirty);
}

TEST(LruCacheTest, SequentialSweepLargerThanCacheNeverHits) {
  // The paper's Physical-cache pathology: a cyclic sequential scan larger
  // than the cache has 0% hit rate under LRU.
  LruCache cache(100);
  for (int rep = 0; rep < 3; ++rep) {
    for (PageId p = 0; p < 150; ++p) cache.Access(p);
  }
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(LruCacheTest, SweepThatFitsAlwaysHitsAfterFirstPass) {
  LruCache cache(200);
  for (PageId p = 0; p < 150; ++p) cache.Access(p);
  cache.ResetStats();
  for (PageId p = 0; p < 150; ++p) cache.Access(p);
  EXPECT_DOUBLE_EQ(cache.stats().HitRate(), 1.0);
}

TEST(LruCacheTest, InvalidateRemoves) {
  LruCache cache(4);
  cache.Access(7);
  cache.Invalidate(7);
  EXPECT_FALSE(cache.Contains(7));
  cache.Invalidate(99);  // absent: no-op
}

TEST(LruCacheTest, ShrinkEvictsDownToCapacity) {
  LruCache cache(4);
  for (PageId p = 0; p < 4; ++p) cache.Access(p);
  cache.SetCapacity(2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Contains(3));  // most recent survive
  EXPECT_FALSE(cache.Contains(0));
}

TEST(LruCacheTest, MultiPageShrinkQueuesEveryEviction) {
  // Regression: a SetCapacity() shrink that evicts N > 1 pages used to
  // keep only the last victim in a single "last evicted" slot, so callers
  // charging writeback traffic silently dropped N-1 evictions.
  LruCache cache(5);
  for (PageId p = 0; p < 5; ++p) cache.Access(p, /*write=*/true);
  (void)cache.TakeEvicted();  // drain fill-phase noise (none expected)
  cache.SetCapacity(2);
  auto evicted = cache.TakeEvicted();
  ASSERT_EQ(evicted.size(), 3u);  // pages 0, 1, 2 in LRU order
  EXPECT_EQ(evicted[0].page, 0u);
  EXPECT_EQ(evicted[1].page, 1u);
  EXPECT_EQ(evicted[2].page, 2u);
  for (const auto& e : evicted) EXPECT_TRUE(e.dirty);
  EXPECT_EQ(cache.stats().evictions, 3u);
  EXPECT_EQ(cache.stats().dirty_evictions, 3u);
  // The queue is drained by TakeEvicted.
  EXPECT_EQ(cache.pending_evictions(), 0u);
  EXPECT_TRUE(cache.TakeEvicted().empty());
}

TEST(LruCacheTest, EvictionsSurviveSubsequentAccesses) {
  // Regression: Access() used to clear the pending-eviction slot on entry,
  // so an undrained eviction vanished at the next access.
  LruCache cache(2);
  cache.Access(1, /*write=*/true);
  cache.Access(2);
  cache.Access(3);  // evicts 1 (dirty)
  cache.Access(4);  // evicts 2
  auto evicted = cache.TakeEvicted();
  ASSERT_EQ(evicted.size(), 2u);
  EXPECT_EQ(evicted[0].page, 1u);
  EXPECT_TRUE(evicted[0].dirty);
  EXPECT_EQ(evicted[1].page, 2u);
  EXPECT_FALSE(evicted[1].dirty);
}

TEST(LruCacheTest, ClearEmpties) {
  LruCache cache(4);
  cache.Access(1);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.Contains(1));
}

TEST(LruCacheTest, ContainsDoesNotPerturbRecency) {
  LruCache cache(2);
  cache.Access(1);
  cache.Access(2);
  (void)cache.Contains(1);  // must NOT promote 1
  cache.Access(3);          // evicts 1 (LRU), not 2
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
}

// --- BackingStore ------------------------------------------------------------------

TEST(BackingStoreTest, FrameRoundTrip) {
  BackingStore store(4, KiB(4));
  auto frame = store.Frame(2);
  frame[0] = std::byte{0xAB};
  EXPECT_EQ(store.Frame(2)[0], std::byte{0xAB});
  EXPECT_EQ(store.num_frames(), 4u);
}

TEST(BackingStoreTest, ByteAddressedReadWriteSpansFrames) {
  BackingStore store(2, 16);
  std::vector<std::byte> in(20);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::byte{(uint8_t)i};
  store.Write(10, in);  // crosses the frame boundary at 16
  std::vector<std::byte> out(20);
  store.Read(10, out);
  EXPECT_EQ(in, out);
}

TEST(BackingStoreTest, EnsureFramesGrows) {
  BackingStore store(2, KiB(4));
  store.EnsureFrames(8);
  EXPECT_EQ(store.num_frames(), 8u);
  store.EnsureFrames(4);  // never shrinks
  EXPECT_EQ(store.num_frames(), 8u);
}

// Regression: EnsureFrames used to resize one flat byte vector, which
// reallocated it and left every earlier Frame() span dangling.
TEST(BackingStoreTest, FrameSpanSurvivesGrowth) {
  const std::uint64_t n = 2;
  BackingStore store(n, KiB(4));
  auto span = store.Frame(1);
  store.EnsureFrames(4 * n);
  span[0] = std::byte{0x5A};
  span[KiB(4) - 1] = std::byte{0xA5};
  EXPECT_EQ(std::as_const(store).Frame(1)[0], std::byte{0x5A});
  std::vector<std::byte> out(2);
  store.Read(2 * KiB(4) - 1, out);  // last byte of frame 1, first of 2
  EXPECT_EQ(out[0], std::byte{0xA5});
  EXPECT_EQ(out[1], std::byte{0});
}

TEST(BackingStoreTest, UnwrittenFramesReadZerosAndHoldNoMemory) {
  BackingStore store(4, 16);
  std::vector<std::byte> out(64, std::byte{0xFF});
  store.Read(0, out);
  EXPECT_EQ(out, std::vector<std::byte>(64));
  EXPECT_EQ(store.resident_frames(), 0u);
}

TEST(BackingStoreTest, ReadWriteCrossesAbsentAndPresentFrames) {
  BackingStore store(3, 16);
  store.Write(16, std::vector<std::byte>(4, std::byte{0x77}));  // frame 1
  ASSERT_EQ(store.resident_frames(), 1u);

  // Frame 0 is absent, frame 1 present: the write materializes frame 0.
  std::vector<std::byte> in(12);
  for (std::size_t i = 0; i < in.size(); ++i) in[i] = std::byte{(uint8_t)i};
  store.Write(10, in);
  std::vector<std::byte> out(in.size());
  store.Read(10, out);
  EXPECT_EQ(in, out);
  EXPECT_EQ(store.resident_frames(), 2u);

  // A read from present frame 1 into absent frame 2 sees zeros there and
  // does not materialize it.
  std::vector<std::byte> tail(8, std::byte{0xFF});
  store.Read(28, tail);
  EXPECT_EQ(tail[3], std::byte{0});
  EXPECT_EQ(tail[4], std::byte{0});
  EXPECT_EQ(tail[7], std::byte{0});
  EXPECT_EQ(store.resident_frames(), 2u);
}

TEST(BackingStoreTest, WritingZerosToAbsentFrameAllocatesNothing) {
  BackingStore store(2, 16);
  store.Write(0, std::vector<std::byte>(32));
  EXPECT_EQ(store.resident_frames(), 0u);
}

TEST(BackingStoreTest, CopyFromAbsentFrameReleasesDestination) {
  BackingStore src(2, 16);
  BackingStore dst(2, 16);
  dst.Write(0, std::vector<std::byte>(16, std::byte{0x11}));
  src.Write(16, std::vector<std::byte>(16, std::byte{0x22}));
  ASSERT_EQ(dst.resident_frames(), 1u);

  dst.CopyFrame(src, 0, 0);  // src frame 0 was never written
  EXPECT_EQ(dst.resident_frames(), 0u);
  std::vector<std::byte> out(16, std::byte{0xFF});
  dst.Read(0, out);
  EXPECT_EQ(out, std::vector<std::byte>(16));

  dst.CopyFrame(src, 1, 0);
  EXPECT_EQ(dst.resident_frames(), 1u);
  dst.Read(0, out);
  EXPECT_EQ(out, std::vector<std::byte>(16, std::byte{0x22}));
}

TEST(BackingStoreTest, ConstFrameOnAbsentFrameAllocatesNothing) {
  const BackingStore store(2, KiB(4));
  const auto frame = store.Frame(1);
  ASSERT_EQ(frame.size(), KiB(4));
  for (std::byte b : frame) ASSERT_EQ(b, std::byte{0});
  EXPECT_EQ(store.resident_frames(), 0u);
}

// --- NumaDistanceMatrix ----------------------------------------------------------------

TEST(NumaTest, SelfDistanceIsTen) {
  NumaDistanceMatrix m(4);
  EXPECT_EQ(m.Distance(2, 2), NumaDistanceMatrix::kSelfDistance);
  EXPECT_EQ(m.Distance(0, 3), 20);
}

TEST(NumaTest, SetDistanceIsSymmetric) {
  NumaDistanceMatrix m(4);
  m.SetDistance(0, 1, 15);
  EXPECT_EQ(m.Distance(0, 1), 15);
  EXPECT_EQ(m.Distance(1, 0), 15);
}

TEST(NumaTest, NearestPrefersCloser) {
  NumaDistanceMatrix m(4);
  m.SetDistance(0, 2, 12);
  m.SetDistance(0, 3, 40);
  EXPECT_EQ(m.Nearest(0, {3, 2}), 2);
  EXPECT_EQ(m.Nearest(0, {0, 2}), 0);  // self wins
}

}  // namespace
}  // namespace lmp::mem
