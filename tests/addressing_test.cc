// Tests for the addressing stack: LogicalAddress, SegmentMap (step 1),
// LocalFrameMap (step 2), and AddressTranslator with its TLB-style cache.
#include <gtest/gtest.h>

#include <vector>

#include "core/local_map.h"
#include "core/logical_address.h"
#include "core/segment_map.h"
#include "core/translation.h"

namespace lmp::core {
namespace {

// --- LogicalAddress ------------------------------------------------------------

TEST(LogicalAddressTest, PacksSegmentAndOffset) {
  const LogicalAddress a(7, 1234);
  EXPECT_EQ(a.segment(), 7u);
  EXPECT_EQ(a.offset(), 1234u);
}

TEST(LogicalAddressTest, MaxOffsetPreserved) {
  const LogicalAddress a(1, kMaxSegmentSize - 1);
  EXPECT_EQ(a.offset(), kMaxSegmentSize - 1);
  EXPECT_EQ(a.segment(), 1u);
}

TEST(LogicalAddressTest, ArithmeticStaysInSegment) {
  const LogicalAddress a(3, 100);
  const LogicalAddress b = a + 28;
  EXPECT_EQ(b.segment(), 3u);
  EXPECT_EQ(b.offset(), 128u);
}

TEST(LogicalAddressTest, OrderingBySegmentThenOffset) {
  EXPECT_LT(LogicalAddress(1, 999), LogicalAddress(2, 0));
  EXPECT_LT(LogicalAddress(2, 1), LogicalAddress(2, 2));
  EXPECT_EQ(LogicalAddress(4, 4), LogicalAddress(4, 4));
}

TEST(LogicalAddressTest, RawRoundTrip) {
  const LogicalAddress a(42, 4242);
  EXPECT_EQ(LogicalAddress::FromRaw(a.raw()), a);
}

TEST(LogicalAddressTest, HashUsable) {
  std::hash<LogicalAddress> h;
  EXPECT_NE(h(LogicalAddress(1, 2)), h(LogicalAddress(2, 1)));
}

// --- SegmentMap ---------------------------------------------------------------

SegmentInfo MakeSegment(SegmentId id, Bytes size, cluster::ServerId home) {
  SegmentInfo info;
  info.id = id;
  info.size = size;
  info.home = Location::OnServer(home);
  return info;
}

TEST(SegmentMapTest, InsertLookup) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(MakeSegment(1, KiB(4), 2)).ok());
  auto loc = map.Lookup(1);
  ASSERT_TRUE(loc.ok());
  EXPECT_EQ(loc->server, 2u);
  EXPECT_EQ(map.size(), 1u);
}

TEST(SegmentMapTest, DuplicateInsertRejected) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(MakeSegment(1, KiB(4), 0)).ok());
  EXPECT_EQ(map.Insert(MakeSegment(1, KiB(4), 1)).code(),
            StatusCode::kAlreadyExists);
}

TEST(SegmentMapTest, InvalidSegmentsRejected) {
  SegmentMap map;
  EXPECT_FALSE(map.Insert(MakeSegment(kInvalidSegment, KiB(4), 0)).ok());
  EXPECT_FALSE(map.Insert(MakeSegment(1, 0, 0)).ok());
  EXPECT_FALSE(map.Insert(MakeSegment(1, kMaxSegmentSize + 1, 0)).ok());
}

TEST(SegmentMapTest, LookupMissingIsNotFound) {
  SegmentMap map;
  EXPECT_TRUE(IsNotFound(map.Lookup(9).status()));
  EXPECT_EQ(map.Find(9), nullptr);
}

TEST(SegmentMapTest, UpdateHomeBumpsGeneration) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(MakeSegment(1, KiB(4), 0)).ok());
  const std::uint64_t gen0 = map.Find(1)->generation;
  ASSERT_TRUE(map.UpdateHome(1, Location::OnServer(3)).ok());
  EXPECT_EQ(map.Find(1)->home.server, 3u);
  EXPECT_EQ(map.Find(1)->generation, gen0 + 1);
}

TEST(SegmentMapTest, RemoveDeletes) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(MakeSegment(1, KiB(4), 0)).ok());
  ASSERT_TRUE(map.Remove(1).ok());
  EXPECT_FALSE(map.Remove(1).ok());
  EXPECT_EQ(map.size(), 0u);
}

TEST(SegmentMapTest, SegmentsAtFiltersByLocation) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(MakeSegment(1, KiB(4), 0)).ok());
  ASSERT_TRUE(map.Insert(MakeSegment(2, KiB(4), 1)).ok());
  ASSERT_TRUE(map.Insert(MakeSegment(3, KiB(4), 0)).ok());
  auto at0 = map.SegmentsAt(Location::OnServer(0));
  std::sort(at0.begin(), at0.end());
  EXPECT_EQ(at0, (std::vector<SegmentId>{1, 3}));
  EXPECT_TRUE(map.SegmentsAt(Location::OnPool()).empty());
}

TEST(SegmentMapTest, SetStateTransitions) {
  SegmentMap map;
  ASSERT_TRUE(map.Insert(MakeSegment(1, KiB(4), 0)).ok());
  ASSERT_TRUE(map.SetState(1, SegmentState::kLost).ok());
  EXPECT_EQ(map.Find(1)->state, SegmentState::kLost);
  EXPECT_FALSE(map.SetState(9, SegmentState::kActive).ok());
}

// --- LocalFrameMap ---------------------------------------------------------------

// The extents ForEachExtent visits, collected in order.
StatusOr<std::vector<PhysicalExtent>> Extents(const LocalFrameMap& map,
                                              SegmentId id, Bytes offset,
                                              Bytes len) {
  std::vector<PhysicalExtent> extents;
  LMP_RETURN_IF_ERROR(map.ForEachExtent(
      id, offset, len,
      [&extents](const PhysicalExtent& e) { extents.push_back(e); }));
  return extents;
}

TEST(LocalFrameMapTest, BindAndResolveSingleRun) {
  LocalFrameMap map(KiB(4));
  ASSERT_TRUE(map.Bind(1, KiB(8), {mem::FrameRun{10, 2}}).ok());
  auto extents = Extents(map, 1, 0, KiB(8));
  ASSERT_TRUE(extents.ok());
  ASSERT_EQ(extents->size(), 1u);
  EXPECT_EQ((*extents)[0].frame, 10u);
  EXPECT_EQ((*extents)[0].length, KiB(8));
}

TEST(LocalFrameMapTest, ResolveMidRange) {
  LocalFrameMap map(KiB(4));
  ASSERT_TRUE(map.Bind(1, KiB(16), {mem::FrameRun{0, 4}}).ok());
  auto extents = Extents(map, 1, KiB(6), KiB(4));
  ASSERT_TRUE(extents.ok());
  ASSERT_EQ(extents->size(), 1u);
  EXPECT_EQ((*extents)[0].frame, 1u);           // KiB(6) is in frame 1
  EXPECT_EQ((*extents)[0].offset_in_frame, KiB(2));
  EXPECT_EQ((*extents)[0].length, KiB(4));
}

TEST(LocalFrameMapTest, ResolveAcrossScatteredRuns) {
  LocalFrameMap map(KiB(4));
  ASSERT_TRUE(
      map.Bind(1, KiB(12), {mem::FrameRun{0, 1}, mem::FrameRun{8, 2}}).ok());
  auto extents = Extents(map, 1, KiB(2), KiB(8));
  ASSERT_TRUE(extents.ok());
  ASSERT_EQ(extents->size(), 2u);  // tail of run 0, head of run 1
  EXPECT_EQ((*extents)[0].frame, 0u);
  EXPECT_EQ((*extents)[0].length, KiB(2));
  EXPECT_EQ((*extents)[1].frame, 8u);
  EXPECT_EQ((*extents)[1].length, KiB(6));
}

TEST(LocalFrameMapTest, BindRequiresCoverage) {
  LocalFrameMap map(KiB(4));
  EXPECT_FALSE(map.Bind(1, KiB(12), {mem::FrameRun{0, 2}}).ok());
}

TEST(LocalFrameMapTest, DuplicateBindRejected) {
  LocalFrameMap map(KiB(4));
  ASSERT_TRUE(map.Bind(1, KiB(4), {mem::FrameRun{0, 1}}).ok());
  EXPECT_FALSE(map.Bind(1, KiB(4), {mem::FrameRun{1, 1}}).ok());
}

TEST(LocalFrameMapTest, ResolveOutOfRangeRejected) {
  LocalFrameMap map(KiB(4));
  ASSERT_TRUE(map.Bind(1, KiB(8), {mem::FrameRun{0, 2}}).ok());
  EXPECT_FALSE(Extents(map, 1, KiB(4), KiB(8)).ok());
  EXPECT_TRUE(IsNotFound(Extents(map, 2, 0, 1).status()));
}

TEST(LocalFrameMapTest, UnbindForgets) {
  LocalFrameMap map(KiB(4));
  ASSERT_TRUE(map.Bind(1, KiB(4), {mem::FrameRun{0, 1}}).ok());
  ASSERT_TRUE(map.Unbind(1).ok());
  EXPECT_FALSE(map.Contains(1));
  EXPECT_FALSE(map.Unbind(1).ok());
}

TEST(LocalFrameMapTest, RunsOfReturnsBinding) {
  LocalFrameMap map(KiB(4));
  const std::vector<mem::FrameRun> runs{{3, 2}, {9, 1}};
  ASSERT_TRUE(map.Bind(1, KiB(12), runs).ok());
  auto got = map.RunsOf(1);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 2u);
  EXPECT_EQ((*got)[0].first, 3u);
}

// --- TranslationCache / AddressTranslator -------------------------------------------

TEST(TranslationCacheTest, InsertLookupInvalidate) {
  TranslationCache cache(4);
  cache.Insert(1, {Location::OnServer(2), 0});
  auto hit = cache.Lookup(1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->home.server, 2u);
  cache.Invalidate(1);
  EXPECT_FALSE(cache.Lookup(1).has_value());
}

TEST(TranslationCacheTest, EvictsLruAtCapacity) {
  TranslationCache cache(2);
  cache.Insert(1, {Location::OnServer(0), 0});
  cache.Insert(2, {Location::OnServer(0), 0});
  (void)cache.Lookup(1);  // promote 1
  cache.Insert(3, {Location::OnServer(0), 0});
  EXPECT_TRUE(cache.Lookup(1).has_value());
  EXPECT_FALSE(cache.Lookup(2).has_value());
}

class TranslatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(map_.Insert(MakeSegment(1, KiB(4), 0)).ok());
    ASSERT_TRUE(map_.Insert(MakeSegment(2, KiB(4), 1)).ok());
  }
  SegmentMap map_;
};

TEST_F(TranslatorTest, FirstLookupMissesThenHits) {
  AddressTranslator tr(&map_);
  auto home = tr.TranslateHome(SegmentId{1});
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(home->server, 0u);
  EXPECT_EQ(tr.stats().misses, 1u);
  ASSERT_TRUE(tr.TranslateHome(SegmentId{1}).ok());
  EXPECT_EQ(tr.stats().hits, 1u);
}

TEST_F(TranslatorTest, MigrationInvalidatesByGeneration) {
  AddressTranslator tr(&map_);
  ASSERT_TRUE(tr.TranslateHome(SegmentId{1}).ok());
  ASSERT_TRUE(map_.UpdateHome(1, Location::OnServer(3)).ok());
  auto home = tr.TranslateHome(SegmentId{1});
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(home->server, 3u);          // fresh, not the stale cached home
  EXPECT_EQ(tr.stats().stale_hits, 1u);
  // And the refreshed entry hits again.
  ASSERT_TRUE(tr.TranslateHome(SegmentId{1}).ok());
  EXPECT_EQ(tr.stats().hits, 1u);
}

TEST_F(TranslatorTest, UnknownSegmentIsNotFound) {
  AddressTranslator tr(&map_);
  EXPECT_TRUE(IsNotFound(tr.TranslateHome(SegmentId{77}).status()));
}

TEST_F(TranslatorTest, AddressOverloadUsesSegment) {
  AddressTranslator tr(&map_);
  auto home = tr.TranslateHome(LogicalAddress(2, 123));
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(home->server, 1u);
}

TEST_F(TranslatorTest, HitRateComputed) {
  AddressTranslator tr(&map_);
  ASSERT_TRUE(tr.TranslateHome(SegmentId{1}).ok());
  ASSERT_TRUE(tr.TranslateHome(SegmentId{1}).ok());
  ASSERT_TRUE(tr.TranslateHome(SegmentId{1}).ok());
  EXPECT_NEAR(tr.stats().HitRate(), 2.0 / 3.0, 1e-9);
}

}  // namespace
}  // namespace lmp::core
