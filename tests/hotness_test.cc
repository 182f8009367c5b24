// Tests for AccessTracker: decay semantics, dominance, and forgetting;
// the sorted-row layout against a nested-map reference; and the demand
// estimator's accessor-only scope walk against a walk over every scoped
// server.
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

// ObservedLocalFraction as a walk over every scoped server, probing each
// with AccessedBytes: the accessor-only walk must match it bit for bit.
double ScopeWalkLocalFraction(PoolManager& manager,
                              const ctrl::DemandEstimator& est, SimTime now) {
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
      EXPECT_EQ(est->ObservedLocalFraction(now),
                ScopeWalkLocalFraction(manager, *est, now))
          << "round " << round << " scope [" << est->scope_first() << ", "
          << est->scope_limit() << ")";
    }
  }
  // The rack scope sees a different fraction than the whole cluster.
  EXPECT_NE(rack.ObservedLocalFraction(now), whole.ObservedLocalFraction(now));
}

}  // namespace
}  // namespace lmp::core
