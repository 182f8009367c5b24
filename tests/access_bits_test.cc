// Tests for the access-bit sampler (§5) and its fidelity vs exact counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/access_bits.h"
#include "core/hotness.h"

namespace lmp::core {
namespace {

TEST(AccessBitsTest, ScanReportsTouchedPages) {
  AccessBitSampler sampler(KiB(4));
  sampler.OnAccess(1, 0, 0, KiB(8));        // pages 0,1
  sampler.OnAccess(1, 0, KiB(16), 100);     // page 4
  auto entries = sampler.ScanAndClear();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].segment, 1u);
  EXPECT_EQ(entries[0].touched_pages, 3u);
}

TEST(AccessBitsTest, BitsAreStickyWithinInterval) {
  AccessBitSampler sampler(KiB(4));
  // 100 accesses to the same page count once — the access-bit lossiness.
  for (int i = 0; i < 100; ++i) sampler.OnAccess(1, 0, 0, 64);
  auto entries = sampler.ScanAndClear();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].touched_pages, 1u);
}

TEST(AccessBitsTest, ScanClearsBits) {
  AccessBitSampler sampler(KiB(4));
  sampler.OnAccess(1, 0, 0, KiB(4));
  (void)sampler.ScanAndClear();
  auto entries = sampler.ScanAndClear();  // nothing new touched
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(sampler.scans(), 2u);
}

TEST(AccessBitsTest, EstimatedBytesFromLastScan) {
  AccessBitSampler sampler(KiB(4));
  sampler.OnAccess(7, 2, 0, KiB(12));
  (void)sampler.ScanAndClear();
  EXPECT_DOUBLE_EQ(sampler.EstimatedBytes(7, 2), double(KiB(12)));
  EXPECT_DOUBLE_EQ(sampler.EstimatedBytes(7, 3), 0);
}

TEST(AccessBitsTest, DominantAccessorByPageFootprint) {
  AccessBitSampler sampler(KiB(4));
  sampler.OnAccess(5, 0, 0, KiB(4));    // 1 page
  sampler.OnAccess(5, 1, 0, KiB(16));   // 4 pages
  (void)sampler.ScanAndClear();
  AccessBitSampler::Dominant dom;
  ASSERT_TRUE(sampler.DominantAccessor(5, &dom));
  EXPECT_EQ(dom.server, 1u);
  EXPECT_NEAR(dom.share, 0.8, 1e-9);
}

TEST(AccessBitsTest, NoTrafficNoDominant) {
  AccessBitSampler sampler(KiB(4));
  AccessBitSampler::Dominant dom;
  EXPECT_FALSE(sampler.DominantAccessor(1, &dom));
}

// Fidelity comparison: for a FOOTPRINT-dominated pattern both mechanisms
// agree on the dominant accessor; for an INTENSITY-dominated pattern
// (small hot region hammered), access bits underestimate — the trade §5
// leaves implicit.
TEST(AccessBitsTest, AgreesWithCountersOnFootprint) {
  AccessBitSampler sampler(KiB(4));
  AccessTracker tracker;
  sampler.OnAccess(1, 0, 0, KiB(64));
  tracker.RecordAccess(1, 0, double(KiB(64)), 0);
  sampler.OnAccess(1, 1, 0, KiB(8));
  tracker.RecordAccess(1, 1, double(KiB(8)), 0);
  (void)sampler.ScanAndClear();

  AccessBitSampler::Dominant bits_dom;
  AccessTracker::DominantAccessor exact_dom;
  ASSERT_TRUE(sampler.DominantAccessor(1, &bits_dom));
  ASSERT_TRUE(tracker.Dominant(1, 0, &exact_dom));
  EXPECT_EQ(bits_dom.server, exact_dom.server);
}

TEST(AccessBitsTest, UnderestimatesIntensity) {
  AccessBitSampler sampler(KiB(4));
  AccessTracker tracker;
  // Server 0 hammers one page 4000x (256 KiB of traffic on one page);
  // server 1 sweeps 16 pages once (64 KiB).
  for (int i = 0; i < 4000; ++i) {
    sampler.OnAccess(1, 0, 0, 64);
    tracker.RecordAccess(1, 0, 64, 0);
  }
  sampler.OnAccess(1, 1, 0, KiB(64));
  tracker.RecordAccess(1, 1, double(KiB(64)), 0);
  (void)sampler.ScanAndClear();

  AccessBitSampler::Dominant bits_dom;
  AccessTracker::DominantAccessor exact_dom;
  ASSERT_TRUE(sampler.DominantAccessor(1, &bits_dom));
  ASSERT_TRUE(tracker.Dominant(1, 0, &exact_dom));
  // Exact counters pick the heavy hammerer (server 0); access bits see
  // only 1 touched page vs 16 and flip to server 1.
  EXPECT_EQ(exact_dom.server, 0u);
  EXPECT_EQ(bits_dom.server, 1u);
}

// The per-server lists and per-segment dominants ScanAndClear derives in
// one pass agree with the scan entries it returns: every (segment, server)
// entry is listed under its server, lists are sorted by segment, and each
// segment's dominant holds the most touched pages (its share over the
// exact page total).
TEST(AccessBitsTest, SegmentsOfAndDominantMatchScanEntries) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    AccessBitSampler sampler(KiB(4));
    for (int round = 0; round < 5; ++round) {
      for (int i = 0; i < 200; ++i) {
        const SegmentId seg = rng.NextBounded(30);
        const auto server = static_cast<cluster::ServerId>(rng.NextBounded(6));
        sampler.OnAccess(seg, server, KiB(4) * rng.NextBounded(8),
                         1 + rng.NextBounded(KiB(16)));
      }
      const auto entries = sampler.ScanAndClear();
      std::map<cluster::ServerId, std::vector<SegmentId>> by_server;
      std::map<SegmentId, std::vector<double>> pages;
      for (const auto& e : entries) {
        by_server[e.server].push_back(e.segment);
        pages[e.segment].push_back(static_cast<double>(e.touched_pages));
      }
      for (cluster::ServerId s = 0; s < 8; ++s) {
        std::vector<SegmentId> want = by_server[s];
        std::sort(want.begin(), want.end());
        std::vector<SegmentId> got;
        for (const AccessBitSampler::Touched& t : sampler.SegmentsOf(s)) {
          got.push_back(t.seg);
          AccessBitSampler::Dominant dom;
          ASSERT_TRUE(sampler.DominantAccessor(t.seg, &dom));
          EXPECT_EQ(t.dom->server, dom.server);
          EXPECT_EQ(t.dom->bytes, dom.bytes);
        }
        EXPECT_EQ(got, want) << "seed " << seed << " server " << s;
      }
      for (const auto& [seg, counts] : pages) {
        AccessBitSampler::Dominant dom;
        ASSERT_TRUE(sampler.DominantAccessor(seg, &dom));
        double total = 0;
        for (double c : counts) total += c;
        const double best = *std::max_element(counts.begin(), counts.end());
        EXPECT_EQ(dom.bytes, best * KiB(4));
        EXPECT_EQ(dom.share, best / total);
        EXPECT_EQ(sampler.EstimatedBytes(seg, dom.server), dom.bytes);
      }
      AccessBitSampler::Dominant none;
      EXPECT_FALSE(sampler.DominantAccessor(1000, &none));
    }
  }
}

}  // namespace
}  // namespace lmp::core
