// Tests for AccessTracker: decay semantics, dominance, and forgetting;
// the per-server index; the sorted-row layout and the index against a
// nested-map reference; and the demand estimator's indexed scope walk
// against a walk over every scoped server in the documented order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/hotness.h"
#include "core/pool_manager.h"
#include "ctrl/demand_estimator.h"

namespace lmp::core {
namespace {

TEST(AccessTrackerTest, RecordsBytesPerServer) {
  AccessTracker tracker;
  tracker.RecordAccess(1, 0, 1000, 0);
  tracker.RecordAccess(1, 1, 500, 0);
  EXPECT_DOUBLE_EQ(tracker.AccessedBytes(1, 0, 0), 1000);
  EXPECT_DOUBLE_EQ(tracker.AccessedBytes(1, 1, 0), 500);
  EXPECT_DOUBLE_EQ(tracker.TotalBytes(1, 0), 1500);
}

TEST(AccessTrackerTest, UnknownSegmentIsZero) {
  AccessTracker tracker;
  EXPECT_DOUBLE_EQ(tracker.AccessedBytes(9, 0, 0), 0);
  EXPECT_DOUBLE_EQ(tracker.TotalBytes(9, 0), 0);
  AccessTracker::DominantAccessor dom;
  EXPECT_FALSE(tracker.Dominant(9, 0, &dom));
}

TEST(AccessTrackerTest, DecayHalvesAtHalfLife) {
  AccessTracker tracker(Milliseconds(100));
  tracker.RecordAccess(1, 0, 1000, 0);
  EXPECT_NEAR(tracker.AccessedBytes(1, 0, Milliseconds(100)), 500, 1);
  EXPECT_NEAR(tracker.AccessedBytes(1, 0, Milliseconds(200)), 250, 1);
}

TEST(AccessTrackerTest, AccumulationAppliesDecayFirst) {
  AccessTracker tracker(Milliseconds(100));
  tracker.RecordAccess(1, 0, 1000, 0);
  tracker.RecordAccess(1, 0, 1000, Milliseconds(100));
  EXPECT_NEAR(tracker.AccessedBytes(1, 0, Milliseconds(100)), 1500, 1);
}

TEST(AccessTrackerTest, DominantFindsHeaviestAccessor) {
  AccessTracker tracker;
  tracker.RecordAccess(5, 0, 100, 0);
  tracker.RecordAccess(5, 2, 700, 0);
  tracker.RecordAccess(5, 3, 200, 0);
  AccessTracker::DominantAccessor dom;
  ASSERT_TRUE(tracker.Dominant(5, 0, &dom));
  EXPECT_EQ(dom.server, 2u);
  EXPECT_NEAR(dom.share, 0.7, 1e-9);
  EXPECT_NEAR(dom.bytes, 700, 1e-9);
}

TEST(AccessTrackerTest, DominanceShiftsAsOldTrafficDecays) {
  AccessTracker tracker(Milliseconds(10));
  tracker.RecordAccess(1, 0, 1000, 0);  // old traffic from server 0
  tracker.RecordAccess(1, 1, 600, Milliseconds(50));  // recent, server 1
  AccessTracker::DominantAccessor dom;
  ASSERT_TRUE(tracker.Dominant(1, Milliseconds(50), &dom));
  EXPECT_EQ(dom.server, 1u);  // 1000 decayed through 5 half-lives ~ 31
}

TEST(AccessTrackerTest, ForgetDropsSegment) {
  AccessTracker tracker;
  tracker.RecordAccess(1, 0, 100, 0);
  tracker.Forget(1);
  EXPECT_DOUBLE_EQ(tracker.TotalBytes(1, 0), 0);
  EXPECT_EQ(tracker.tracked_segments(), 0u);
}

TEST(AccessTrackerTest, ClearDropsEverything) {
  AccessTracker tracker;
  tracker.RecordAccess(1, 0, 100, 0);
  tracker.RecordAccess(2, 0, 100, 0);
  tracker.Clear();
  EXPECT_EQ(tracker.tracked_segments(), 0u);
}

TEST(AccessTrackerTest, DominantTieGoesToLowestServer) {
  AccessTracker tracker;
  tracker.RecordAccess(1, 5, 300, 0);
  tracker.RecordAccess(1, 2, 300, 0);
  tracker.RecordAccess(1, 7, 100, 0);
  AccessTracker::DominantAccessor dom;
  ASSERT_TRUE(tracker.Dominant(1, 0, &dom));
  EXPECT_EQ(dom.server, 2u);
  EXPECT_EQ(dom.bytes, 300);
}

std::vector<SegmentId> IndexedSegments(const AccessTracker& tracker,
                                       cluster::ServerId server) {
  std::vector<SegmentId> out;
  for (const AccessTracker::Tracked& t : tracker.SegmentsOf(server)) {
    out.push_back(t.seg);
  }
  return out;
}

TEST(AccessTrackerIndexTest, ListsSegmentsPerServerSortedById) {
  AccessTracker tracker;
  tracker.RecordAccess(9, 1, 100, 0);
  tracker.RecordAccess(3, 1, 100, 0);
  tracker.RecordAccess(5, 2, 100, 0);
  tracker.RecordAccess(3, 2, 100, 0);
  tracker.RecordAccess(3, 1, 50, 0);  // an existing counter: no new entry
  tracker.RecordAccess(7, 1, 0, 0);   // a zero-byte access still counts
  EXPECT_EQ(IndexedSegments(tracker, 1), (std::vector<SegmentId>{3, 7, 9}));
  EXPECT_EQ(IndexedSegments(tracker, 2), (std::vector<SegmentId>{3, 5}));
  EXPECT_TRUE(tracker.SegmentsOf(0).empty());
  EXPECT_EQ(tracker.indexed_servers(), 3u);
  // Each entry's row is the segment's own.
  for (const AccessTracker::Tracked& t : tracker.SegmentsOf(1)) {
    EXPECT_EQ(tracker.AccessedBytes(*t.row, 1, 0),
              tracker.AccessedBytes(t.seg, 1, 0));
  }
}

TEST(AccessTrackerIndexTest, UnknownServerHasEmptyList) {
  AccessTracker tracker;
  EXPECT_TRUE(tracker.SegmentsOf(0).empty());
  EXPECT_TRUE(tracker.SegmentsOf(1u << 20).empty());
  tracker.RecordAccess(1, 2, 100, 0);
  EXPECT_TRUE(tracker.SegmentsOf(3).empty());
  EXPECT_TRUE(tracker.SegmentsOf(1u << 20).empty());
}

TEST(AccessTrackerIndexTest, ForgetDropsSegmentFromEveryAccessorsList) {
  AccessTracker tracker;
  for (cluster::ServerId s : {0u, 2u, 4u}) {
    tracker.RecordAccess(1, s, 100, 0);
    tracker.RecordAccess(2, s, 100, 0);
  }
  tracker.Forget(1);
  for (cluster::ServerId s : {0u, 2u, 4u}) {
    EXPECT_EQ(IndexedSegments(tracker, s), (std::vector<SegmentId>{2}));
  }
  tracker.Forget(42);  // untracked: no change
  EXPECT_EQ(IndexedSegments(tracker, 2), (std::vector<SegmentId>{2}));
  // A forgotten segment re-enters the index on its next access.
  tracker.RecordAccess(1, 2, 100, 0);
  EXPECT_EQ(IndexedSegments(tracker, 2), (std::vector<SegmentId>{1, 2}));
  EXPECT_EQ(IndexedSegments(tracker, 0), (std::vector<SegmentId>{2}));
}

TEST(AccessTrackerIndexTest, ClearEmptiesEveryList) {
  AccessTracker tracker;
  tracker.RecordAccess(1, 0, 100, 0);
  tracker.RecordAccess(2, 3, 100, 0);
  tracker.Clear();
  for (cluster::ServerId s = 0; s < 4; ++s) {
    EXPECT_TRUE(tracker.SegmentsOf(s).empty());
  }
  tracker.RecordAccess(2, 3, 100, 0);
  EXPECT_EQ(IndexedSegments(tracker, 3), (std::vector<SegmentId>{2}));
}

TEST(AccessTrackerTest, DominantFollowsChangesAtOneInstant) {
  // Repeated reads at one `now` may be served from the row's last answer;
  // an access or a half-life change at that same instant must show.
  AccessTracker tracker(Milliseconds(10));
  tracker.RecordAccess(1, 0, 1000, 0);
  tracker.RecordAccess(1, 1, 900, Milliseconds(10));
  AccessTracker::DominantAccessor dom;
  ASSERT_TRUE(tracker.Dominant(1, Milliseconds(10), &dom));
  EXPECT_EQ(dom.server, 1u);  // 1000 halved to 500 < 900
  tracker.set_half_life(Milliseconds(1000));
  ASSERT_TRUE(tracker.Dominant(1, Milliseconds(10), &dom));
  EXPECT_EQ(dom.server, 0u);  // barely decayed now
  tracker.RecordAccess(1, 1, 500, Milliseconds(10));
  ASSERT_TRUE(tracker.Dominant(1, Milliseconds(10), &dom));
  EXPECT_EQ(dom.server, 1u);
  EXPECT_EQ(dom.bytes, 1400);
}

// A nested ordered map with the tracker's documented semantics: per-counter
// decay with the same expression, sums in ascending server order, lowest
// server on a Dominant tie.
class ReferenceTracker {
 public:
  explicit ReferenceTracker(SimTime half_life) : half_life_(half_life) {}
  void set_half_life(SimTime half_life) { half_life_ = half_life; }

  void RecordAccess(SegmentId seg, cluster::ServerId from, double bytes,
                    SimTime now) {
    Counter& c = table_[seg][from];
    c.bytes = Decayed(c, now) + bytes;
    c.updated = now;
  }
  double AccessedBytes(SegmentId seg, cluster::ServerId from,
                       SimTime now) const {
    auto seg_it = table_.find(seg);
    if (seg_it == table_.end()) return 0;
    auto it = seg_it->second.find(from);
    return it == seg_it->second.end() ? 0 : Decayed(it->second, now);
  }
  double TotalBytes(SegmentId seg, SimTime now) const {
    double total = 0;
    auto seg_it = table_.find(seg);
    if (seg_it == table_.end()) return 0;
    for (const auto& [server, c] : seg_it->second) total += Decayed(c, now);
    return total;
  }
  bool Dominant(SegmentId seg, SimTime now,
                AccessTracker::DominantAccessor* out) const {
    auto seg_it = table_.find(seg);
    if (seg_it == table_.end()) return false;
    double total = 0, best = 0;
    cluster::ServerId best_server = 0;
    for (const auto& [server, c] : seg_it->second) {
      const double b = Decayed(c, now);
      total += b;
      if (b > best) {
        best = b;
        best_server = server;
      }
    }
    if (total <= 0) return false;
    *out = {best_server, best / total, best};
    return true;
  }
  void Forget(SegmentId seg) { table_.erase(seg); }
  void Clear() { table_.clear(); }
  std::size_t tracked_segments() const { return table_.size(); }
  // The segments `server` holds a counter on, ascending.
  std::vector<SegmentId> SegmentsOf(cluster::ServerId server) const {
    std::vector<SegmentId> out;
    for (const auto& [seg, row] : table_) {
      if (row.contains(server)) out.push_back(seg);
    }
    return out;
  }

 private:
  struct Counter {
    double bytes = 0;
    SimTime updated = 0;
  };
  double Decayed(const Counter& c, SimTime now) const {
    if (c.bytes == 0) return 0;
    const SimTime dt = now - c.updated;
    if (dt <= 0) return c.bytes;
    return c.bytes * std::exp2(-dt / half_life_);
  }
  SimTime half_life_;
  std::map<SegmentId, std::map<cluster::ServerId, Counter>> table_;
};

TEST(AccessTrackerTest, MatchesNestedMapReferenceBitForBit) {
  constexpr int kServers = 6;
  constexpr SegmentId kSegments = 12;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    AccessTracker tracker(Milliseconds(20));
    ReferenceTracker ref(Milliseconds(20));
    SimTime now = 0;
    for (int step = 0; step < 4000; ++step) {
      now += Microseconds(static_cast<double>(rng.NextBounded(500)));
      const SegmentId seg = rng.NextBounded(kSegments);
      const auto server =
          static_cast<cluster::ServerId>(rng.NextBounded(kServers));
      const std::uint64_t op = rng.NextBounded(1000);
      if (op < 900) {
        // Whole and fractional byte counts, and the odd zero.
        const double bytes =
            op < 20 ? 0.0
                    : static_cast<double>(rng.NextBounded(1 << 16)) +
                          rng.NextDouble();
        tracker.RecordAccess(seg, server, bytes, now);
        ref.RecordAccess(seg, server, bytes, now);
      } else if (op < 960) {
        tracker.Forget(seg);
        ref.Forget(seg);
      } else if (op < 990) {
        const SimTime h = Milliseconds(1 + static_cast<double>(
                                               rng.NextBounded(50)));
        tracker.set_half_life(h);
        ref.set_half_life(h);
      } else if (op < 995) {
        tracker.Clear();
        ref.Clear();
      }
      // Reads at the current time and a little later (decayed).
      for (const SimTime at : {now, now + Milliseconds(7)}) {
        ASSERT_EQ(tracker.tracked_segments(), ref.tracked_segments());
        ASSERT_EQ(tracker.TotalBytes(seg, at), ref.TotalBytes(seg, at))
            << "seed " << seed << " step " << step;
        for (cluster::ServerId s = 0; s < kServers; ++s) {
          ASSERT_EQ(tracker.AccessedBytes(seg, s, at),
                    ref.AccessedBytes(seg, s, at));
        }
        AccessTracker::DominantAccessor got, want;
        const bool has = tracker.Dominant(seg, at, &got);
        ASSERT_EQ(has, ref.Dominant(seg, at, &want));
        if (has) {
          EXPECT_EQ(got.server, want.server);
          EXPECT_EQ(got.share, want.share);
          EXPECT_EQ(got.bytes, want.bytes);
        }
      }
      // The index lists what the reference holds, and its rows read the
      // same counters.
      for (cluster::ServerId s = 0; s < kServers; ++s) {
        ASSERT_EQ(IndexedSegments(tracker, s), ref.SegmentsOf(s))
            << "seed " << seed << " step " << step << " server " << s;
        for (const AccessTracker::Tracked& t : tracker.SegmentsOf(s)) {
          ASSERT_EQ(tracker.AccessedBytes(*t.row, s, now),
                    ref.AccessedBytes(t.seg, s, now));
        }
      }
    }
    // A final sweep over every segment, not just the last one touched.
    for (SegmentId seg = 0; seg < kSegments; ++seg) {
      EXPECT_EQ(tracker.TotalBytes(seg, now), ref.TotalBytes(seg, now));
      std::vector<cluster::ServerId> visited;
      tracker.ForEachAccessor(seg, now, [&](cluster::ServerId s, double b) {
        visited.push_back(s);
        EXPECT_EQ(b, ref.AccessedBytes(seg, s, now));
      });
      EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
    }
  }
}

// ObservedLocalFraction as a walk over every scoped server in the
// documented order (ascending server, then ascending segment id), probing
// each live segment with AccessedBytes: the indexed walk must match it bit
// for bit, since a segment the server never touched adds exactly +0.0.
double ScopeWalkLocalFraction(PoolManager& manager,
                              const ctrl::DemandEstimator& est, SimTime now) {
  const AccessTracker& tracker = manager.access_tracker();
  std::vector<const SegmentInfo*> live;
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state != SegmentState::kLost) live.push_back(&info);
  });
  std::sort(live.begin(), live.end(),
            [](const SegmentInfo* a, const SegmentInfo* b) {
              return a->id < b->id;
            });
  double local = 0, total = 0;
  for (cluster::ServerId s = est.scope_first(); s < est.scope_limit(); ++s) {
    for (const SegmentInfo* info : live) {
      const double bytes = tracker.AccessedBytes(info->id, s, now);
      total += bytes;
      if (!info->home.is_pool() && info->home.server == s) local += bytes;
    }
  }
  return total == 0 ? 1.0 : local / total;
}

// The order before the index: segments in SegmentMap hash order, each
// segment's scoped servers ascending.  Only the rounding may differ.
double SegmentMapOrderLocalFraction(PoolManager& manager,
                                    const ctrl::DemandEstimator& est,
                                    SimTime now) {
  const AccessTracker& tracker = manager.access_tracker();
  double local = 0, total = 0;
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state == SegmentState::kLost) return;
    for (cluster::ServerId s = est.scope_first(); s < est.scope_limit();
         ++s) {
      const double bytes = tracker.AccessedBytes(info.id, s, now);
      total += bytes;
      if (!info.home.is_pool() && info.home.server == s) local += bytes;
    }
  });
  return total == 0 ? 1.0 : local / total;
}

TEST(DemandEstimatorTest, ObservedLocalFractionMatchesScopeWalk) {
  cluster::ClusterConfig config;
  config.num_servers = 8;
  config.server_total_memory = MiB(8);
  config.server_shared_memory = MiB(8);
  config.frame_size = KiB(64);
  cluster::Cluster cluster(config);
  PoolManager manager(&cluster);
  manager.access_tracker().set_half_life(Milliseconds(10));

  std::vector<SegmentId> segments;
  for (cluster::ServerId s = 0; s < 8; ++s) {
    for (int i = 0; i < 3; ++i) {
      auto buf = manager.Allocate(KiB(256), s);
      ASSERT_TRUE(buf.ok()) << buf.status();
      const std::vector<SegmentId> ids = manager.Describe(*buf)->segments;
      segments.insert(segments.end(), ids.begin(), ids.end());
    }
  }
  ctrl::DemandEstimator whole(&manager);
  ctrl::DemandEstimator rack(&manager);
  rack.RestrictTo(2, 5);

  Rng rng(7);
  SimTime now = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 40; ++i) {
      now += Microseconds(static_cast<double>(rng.NextBounded(100)));
      const SegmentId seg = segments[rng.NextBounded(segments.size())];
      const auto from = static_cast<cluster::ServerId>(rng.NextBounded(8));
      manager.access_tracker().RecordAccess(
          seg, from, static_cast<double>(rng.NextBounded(4096)) + 0.25,
          now);
    }
    if (round == 25) {
      // A lost segment is skipped by both walks.
      ASSERT_TRUE(manager.mutable_segment_map()
                      .SetState(segments[3], SegmentState::kLost)
                      .ok());
    }
    for (const ctrl::DemandEstimator* est : {&whole, &rack}) {
      const double got = est->ObservedLocalFraction(now);
      EXPECT_EQ(got, ScopeWalkLocalFraction(manager, *est, now))
          << "round " << round << " scope [" << est->scope_first() << ", "
          << est->scope_limit() << ")";
      const double old = SegmentMapOrderLocalFraction(manager, *est, now);
      EXPECT_LE(std::abs(got - old), 1e-12 * std::abs(old))
          << "round " << round;
    }
  }
  // The rack scope sees a different fraction than the whole cluster.
  EXPECT_NE(rack.ObservedLocalFraction(now), whole.ObservedLocalFraction(now));
}

}  // namespace
}  // namespace lmp::core
