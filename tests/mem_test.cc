// Tests for mem/: frame allocator, backing store.
#include <gtest/gtest.h>

#include <utility>

#include "mem/backing_store.h"
#include "mem/frame_allocator.h"

namespace lmp::mem {
namespace {

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
  // An unbounded request reproduces the bitmap-era next-fit scan exactly:
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

TEST(BackingStoreTest, ReleaseDropsFramesWhichReadZerosAgain) {
  BackingStore store(4, 16);
  store.Write(0, std::vector<std::byte>(64, std::byte{0xAB}));
  ASSERT_EQ(store.resident_frames(), 4u);
  store.Release(1, 2);
  EXPECT_EQ(store.resident_frames(), 2u);
  std::vector<std::byte> out(64);
  store.Read(0, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const bool released = i >= 16 && i < 48;
    EXPECT_EQ(out[i], released ? std::byte{0} : std::byte{0xAB}) << i;
  }
  store.Release(0, 4);  // absent frames are skipped
  EXPECT_EQ(store.resident_frames(), 0u);
}

}  // namespace
}  // namespace lmp::mem
