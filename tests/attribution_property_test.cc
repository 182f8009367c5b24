// Oracle property test for scope-indexed attribution.  The demand
// estimator's and the migrator's walks read the access tracker's (or the
// access-bit sampler's) per-server index and visit only the scope's own
// servers; the references below are copies of the whole-SegmentMap walks
// those replaced.  Random access traffic, Forget/Clear, migrations,
// splits, frees, lost segments, a crash with replica failover and erasure
// recovery run under several scopes and both demand sources, and at every
// checkpoint:
//   * Estimate demands, PullCandidates, RemoteHotBytes and the migrator's
//     candidate list equal the references exactly;
//   * local fractions equal, bit for bit, a reference that sums in the
//     documented order (ascending server, then ascending segment id), and
//     sit within 1e-12 relative of the old hash-order walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "core/access_bits.h"
#include "core/erasure.h"
#include "core/migration.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "ctrl/demand_estimator.h"

namespace lmp {
namespace {

using cluster::ServerId;
using core::PoolManager;
using core::SegmentId;
using core::SegmentInfo;
using core::SegmentState;

constexpr int kServers = 8;
constexpr Bytes kFrame = KiB(4);

// ---------------------------------------------------------------------------
// Reference walks: every segment in the SegmentMap, in its hash order.

// Dominance recomputed from the raw counters (no memo): strict > over
// ascending servers.
bool RefDominant(const core::AccessTracker& tracker, SegmentId seg,
                 SimTime now, core::AccessTracker::DominantAccessor* out) {
  double total = 0, best = 0;
  ServerId best_server = 0;
  tracker.ForEachAccessor(seg, now, [&](ServerId s, double b) {
    total += b;
    if (b > best) {
      best = b;
      best_server = s;
    }
  });
  if (total <= 0) return false;
  *out = {best_server, best / total, best};
  return true;
}

bool RefAttribute(PoolManager& manager, const core::AccessBitSampler* bits,
                  const SegmentInfo& info, SimTime now, ServerId* who,
                  double* heat) {
  if (bits != nullptr) {
    core::AccessBitSampler::Dominant dom;
    if (!bits->DominantAccessor(info.id, &dom)) return false;
    *who = dom.server;
    *heat = dom.bytes;
    return true;
  }
  core::AccessTracker::DominantAccessor dom;
  if (!RefDominant(manager.access_tracker(), info.id, now, &dom)) {
    return false;
  }
  *who = dom.server;
  *heat = dom.bytes;
  return true;
}

struct Coverage {
  int attributed = 0;     // segments credited to their dominant accessor
  int home_fallback = 0;  // untouched segments credited to their home
  int pulls = 0;
  int migrations = 0;
  int lost = 0;
  int failovers = 0;  // segments a crash moved to a replica
  int recovered = 0;  // segments erasure rebuilt
};

// A fresh estimator's Estimate: smoothed = raw, headroom 1, no floors.
std::vector<core::ServerDemand> RefDemands(PoolManager& manager,
                                           const core::AccessBitSampler* bits,
                                           ServerId first, ServerId limit,
                                           SimTime now, Coverage* cov) {
  std::vector<double> raw(kServers, 0.0);
  const auto in_scope = [&](ServerId s) { return s >= first && s < limit; };
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state == SegmentState::kLost) {
      ++cov->lost;
      return;
    }
    ServerId who = 0;
    double heat = 0;
    if (RefAttribute(manager, bits, info, now, &who, &heat)) {
      if (in_scope(who)) {
        raw[who] += static_cast<double>(info.size);
        ++cov->attributed;
      }
    } else if (!info.home.is_pool() && in_scope(info.home.server)) {
      raw[info.home.server] += static_cast<double>(info.size);
      ++cov->home_fallback;
    }
  });
  std::vector<core::ServerDemand> out;
  for (ServerId s = first; s < limit; ++s) {
    const Bytes organic =
        mem::FramesForBytes(static_cast<Bytes>(raw[s]), kFrame) * kFrame;
    out.push_back(core::ServerDemand{s, 0, organic, 1.0});
  }
  return out;
}

std::vector<ctrl::DemandEstimator::PullCandidate> RefPullCandidates(
    PoolManager& manager, const core::AccessBitSampler* bits, ServerId first,
    ServerId limit, SimTime now) {
  const auto in_scope = [&](ServerId s) { return s >= first && s < limit; };
  std::vector<ctrl::DemandEstimator::PullCandidate> out;
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state != SegmentState::kActive) return;
    if (info.home.is_pool() || in_scope(info.home.server)) return;
    ServerId who = 0;
    double heat = 0;
    if (!RefAttribute(manager, bits, info, now, &who, &heat)) return;
    if (!in_scope(who)) return;
    out.push_back({info.id, who, info.size, heat});
  });
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.heat != b.heat) return a.heat > b.heat;
    return a.seg < b.seg;
  });
  return out;
}

// The old fraction: segments in hash order, each segment's scoped
// accessors in ascending server order.
double RefOldLocalFraction(PoolManager& manager, ServerId first,
                           ServerId limit, SimTime now) {
  double local = 0, total = 0;
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state == SegmentState::kLost) return;
    manager.access_tracker().ForEachAccessor(
        info.id, now, [&](ServerId s, double bytes) {
          if (s < first || s >= limit) return;
          total += bytes;
          if (!info.home.is_pool() && info.home.server == s) local += bytes;
        });
  });
  return total == 0 ? 1.0 : local / total;
}

// The documented order: ascending server, then ascending segment id, over
// every live segment (a segment the server never touched adds +0.0).
double RefOrderedLocalFraction(PoolManager& manager, ServerId first,
                               ServerId limit, SimTime now) {
  std::vector<const SegmentInfo*> live;
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state != SegmentState::kLost) live.push_back(&info);
  });
  std::sort(live.begin(), live.end(),
            [](const SegmentInfo* a, const SegmentInfo* b) {
              return a->id < b->id;
            });
  double local = 0, total = 0;
  for (ServerId s = first; s < limit; ++s) {
    for (const SegmentInfo* info : live) {
      const double bytes = manager.access_tracker().AccessedBytes(info->id, s,
                                                                  now);
      total += bytes;
      if (!info->home.is_pool() && info->home.server == s) local += bytes;
    }
  }
  return total == 0 ? 1.0 : local / total;
}

std::vector<core::MigrationEngine::Candidate> RefMigrationCandidates(
    PoolManager& manager, const core::MigrationConfig& config, SimTime now) {
  std::vector<core::MigrationEngine::Candidate> candidates;
  const bool scoped = config.scope_limit > config.scope_first;
  manager.segment_map().ForEach([&](const SegmentInfo& info) {
    if (info.state != SegmentState::kActive) return;
    core::AccessTracker::DominantAccessor dom;
    if (!RefDominant(manager.access_tracker(), info.id, now, &dom)) return;
    if (dom.share < config.dominance_threshold) return;
    if (!info.home.is_pool() && info.home.server == dom.server) return;
    if (scoped) {
      if (dom.server < config.scope_first || dom.server >= config.scope_limit) {
        return;
      }
      if (info.home.is_pool() || info.home.server < config.scope_first ||
          info.home.server >= config.scope_limit) {
        return;
      }
    }
    const double copy_cost = static_cast<double>(info.size);
    if (dom.bytes < config.benefit_factor * copy_cost) return;
    candidates.push_back({info.id, dom.server, dom.bytes - copy_cost});
  });
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) {
              return a.score != b.score ? a.score > b.score : a.seg < b.seg;
            });
  return candidates;
}

void ExpectFractions(double got, double ordered, double old,
                     const char* what) {
  EXPECT_EQ(got, ordered) << what;
  EXPECT_LE(std::abs(got - old), 1e-12 * std::abs(old)) << what;
}

// ---------------------------------------------------------------------------
// The randomized world.

class World {
 public:
  explicit World(std::uint64_t seed)
      : cluster_(Config()),
        manager_(&cluster_),
        replication_(&manager_, 1),
        erasure_(&manager_, 3),
        bits_(kFrame),
        rng_(seed) {
    manager_.access_tracker().set_half_life(Milliseconds(1));
    for (int i = 0; i < 24; ++i) AllocateBuffer();
    // One erasure group of three equal members on three servers; they are
    // never freed, so recovery always finds its group.
    std::vector<SegmentId> members;
    for (ServerId s = 0; s < 3; ++s) {
      auto buf = manager_.Allocate(KiB(16), s + 4);
      EXPECT_TRUE(buf.ok()) << buf.status();
      const std::vector<SegmentId> ids = manager_.Describe(*buf)->segments;
      members.insert(members.end(), ids.begin(), ids.end());
      pinned_.push_back(*buf);
    }
    EXPECT_TRUE(erasure_.ProtectSegments(members).ok());
  }

  void Step(int step, Coverage* cov) {
    now_ += Microseconds(static_cast<double>(rng_.NextBounded(200)));
    if (rng_.NextBounded(400) == 0) now_ += Seconds(2);  // decay to zero
    if (step == crash_step_) {
      // Crash the home of an erasure member, so recovery has work.
      const core::BufferId member = pinned_[rng_.NextBounded(pinned_.size())];
      const SegmentInfo* info = manager_.segment_map().Find(
          manager_.Describe(member)->segments.front());
      crashed_ = info->home.is_pool() ? Server() : info->home.server;
      const std::size_t homed =
          manager_.segment_map().SegmentsAt(core::Location::OnServer(crashed_))
              .size();
      auto lost = manager_.OnServerCrash(crashed_);
      ASSERT_TRUE(lost.ok());
      cov->failovers += static_cast<int>(homed - lost->size());
    }
    if (step == recover_step_) {
      ASSERT_TRUE(manager_.OnServerRecover(crashed_).ok());
      cov->recovered += erasure_.RecoverAllLost().value_or(0);
      (void)replication_.RestoreRedundancy();
    }
    const std::uint64_t op = rng_.NextBounded(1000);
    if (op < 600) {
      Access();
    } else if (op < 640) {
      // Traffic on a segment the map does not hold.
      manager_.access_tracker().RecordAccess(
          1000000 + static_cast<SegmentId>(rng_.NextBounded(4)), Server(),
          static_cast<double>(rng_.NextBounded(8192)), now_);
    } else if (op < 680) {
      if (SegmentId seg; PickSegment(&seg)) {
        manager_.access_tracker().Forget(seg);
      }
    } else if (op < 683) {
      manager_.access_tracker().Clear();
    } else if (op < 780) {
      if (SegmentId seg; PickSegment(&seg)) {
        (void)manager_.MigrateSegment(seg, Server());
      }
    } else if (op < 810) {
      const core::BufferId buf = buffers_[rng_.NextBounded(buffers_.size())];
      const Bytes size = manager_.Describe(buf)->size;
      (void)manager_.SplitSegmentAt(
          buf, kFrame * (1 + rng_.NextBounded(size / kFrame)));
    } else if (op < 840) {
      if (buffers_.size() > 4) {
        const std::size_t i = rng_.NextBounded(buffers_.size());
        ASSERT_TRUE(manager_.Free(buffers_[i]).ok());
        buffers_.erase(buffers_.begin() + static_cast<std::ptrdiff_t>(i));
      }
    } else if (op < 880) {
      AllocateBuffer();
    } else if (op < 890) {
      if (SegmentId seg; PickSegment(&seg)) {
        ASSERT_TRUE(manager_.mutable_segment_map()
                        .SetState(seg, SegmentState::kLost)
                        .ok());
      }
    } else if (op < 930) {
      (void)bits_.ScanAndClear();
    }
  }

  void Check(Coverage* cov) {
    const std::vector<std::pair<ServerId, ServerId>> scopes = {
        {0, kServers}, {0, 3}, {3, 6}, {6, kServers}, {2, 5}};
    for (const auto& [first, limit] : scopes) {
      for (const bool use_bits : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "scope [" << first << ", " << limit << ") "
                     << (use_bits ? "access bits" : "exact"));
        ctrl::EstimatorConfig config;
        config.source = use_bits ? ctrl::DemandSource::kAccessBits
                                 : ctrl::DemandSource::kExactHotness;
        ctrl::DemandEstimator est(&manager_, config);
        est.set_access_bits(&bits_);
        est.RestrictTo(first, limit);
        const core::AccessBitSampler* bits = use_bits ? &bits_ : nullptr;

        const std::vector<core::ServerDemand> got = est.Estimate(now_);
        const std::vector<core::ServerDemand> want =
            RefDemands(manager_, bits, first, limit, now_, cov);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].server, want[i].server);
          EXPECT_EQ(got[i].private_demand, want[i].private_demand);
          EXPECT_EQ(got[i].pool_demand, want[i].pool_demand)
              << "server " << got[i].server;
          EXPECT_EQ(got[i].priority, want[i].priority);
        }

        const auto pulls = est.PullCandidates(now_);
        const auto want_pulls =
            RefPullCandidates(manager_, bits, first, limit, now_);
        ASSERT_EQ(pulls.size(), want_pulls.size());
        Bytes want_hot = 0;
        for (std::size_t i = 0; i < pulls.size(); ++i) {
          EXPECT_EQ(pulls[i].seg, want_pulls[i].seg);
          EXPECT_EQ(pulls[i].dst, want_pulls[i].dst);
          EXPECT_EQ(pulls[i].size, want_pulls[i].size);
          EXPECT_EQ(pulls[i].heat, want_pulls[i].heat);
          want_hot += want_pulls[i].size;
        }
        EXPECT_EQ(est.RemoteHotBytes(now_), want_hot);
        cov->pulls += static_cast<int>(pulls.size());

        // The fractions read the exact counters whatever the source.
        ExpectFractions(est.ObservedLocalFraction(now_),
                        RefOrderedLocalFraction(manager_, first, limit, now_),
                        RefOldLocalFraction(manager_, first, limit, now_),
                        "scope fraction");
        for (ServerId s = first; s < limit; ++s) {
          ctrl::DemandEstimator one(&manager_, config);
          one.RestrictTo(s, s + 1);
          ExpectFractions(one.ObservedLocalFraction(now_),
                          RefOrderedLocalFraction(manager_, s, s + 1, now_),
                          RefOldLocalFraction(manager_, s, s + 1, now_),
                          "server fraction");
        }
      }
    }

    std::vector<core::MigrationConfig> configs(1);  // unscoped first
    for (const auto& [first, limit] : scopes) {
      core::MigrationConfig c;
      c.scope_first = first;
      c.scope_limit = limit;
      configs.push_back(c);
    }
    for (const core::MigrationConfig& c : configs) {
      SCOPED_TRACE(testing::Message() << "migrator scope [" << c.scope_first
                                      << ", " << c.scope_limit << ")");
      const core::MigrationEngine engine(&manager_, c);
      const auto got = engine.Candidates(now_);
      const auto want = RefMigrationCandidates(manager_, c, now_);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].seg, want[i].seg);
        EXPECT_EQ(got[i].dst, want[i].dst);
        EXPECT_EQ(got[i].score, want[i].score);
      }
      cov->migrations += static_cast<int>(got.size());
    }
  }

 private:
  static cluster::ClusterConfig Config() {
    cluster::ClusterConfig config;
    config.num_servers = kServers;
    config.server_total_memory = MiB(2);
    config.server_shared_memory = MiB(2);
    config.frame_size = kFrame;
    config.with_backing = true;
    return config;
  }

  ServerId Server() {
    return static_cast<ServerId>(rng_.NextBounded(kServers));
  }

  void AllocateBuffer() {
    const Bytes size = kFrame * (1 + rng_.NextBounded(12));
    auto buf = manager_.Allocate(size, Server());
    if (!buf.ok()) return;  // cluster full: fine
    buffers_.push_back(*buf);
    if (rng_.NextBounded(3) == 0) (void)replication_.ProtectBuffer(*buf);
  }

  bool PickSegment(SegmentId* seg) {
    std::vector<SegmentId> all;
    for (const core::BufferId buf : buffers_) {
      const std::vector<SegmentId> ids = manager_.Describe(buf)->segments;
      all.insert(all.end(), ids.begin(), ids.end());
    }
    for (const core::BufferId buf : pinned_) {
      const std::vector<SegmentId> ids = manager_.Describe(buf)->segments;
      all.insert(all.end(), ids.begin(), ids.end());
    }
    if (all.empty()) return false;
    *seg = all[rng_.NextBounded(all.size())];
    return true;
  }

  void Access() {
    SegmentId seg;
    if (!PickSegment(&seg)) return;
    const SegmentInfo* info = manager_.segment_map().Find(seg);
    const ServerId from = Server();
    // Mostly whole-ish byte counts, sometimes fractional, rarely zero.
    const std::uint64_t kind = rng_.NextBounded(50);
    const double bytes =
        kind == 0 ? 0.0
                  : static_cast<double>(rng_.NextBounded(64 * 1024)) +
                        (kind < 10 ? rng_.NextDouble() : 0.0);
    manager_.access_tracker().RecordAccess(seg, from, bytes, now_);
    const Bytes offset = rng_.NextBounded(info->size);
    bits_.OnAccess(seg, from, offset,
                   1 + rng_.NextBounded(info->size - offset));
  }

  cluster::Cluster cluster_;
  PoolManager manager_;
  core::ReplicationManager replication_;
  core::XorErasureManager erasure_;
  core::AccessBitSampler bits_;
  Rng rng_;
  SimTime now_ = 0;
  std::vector<core::BufferId> buffers_;
  std::vector<core::BufferId> pinned_;  // erasure members, never freed
  int crash_step_ = 700;
  int recover_step_ = 1100;
  ServerId crashed_ = 0;
};

TEST(AttributionPropertyTest, IndexedWalksMatchSegmentMapWalks) {
  Coverage cov;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    World world(seed);
    for (int step = 0; step < 1600; ++step) {
      world.Step(step, &cov);
      if (HasFatalFailure()) return;
      if (step % 40 == 39) {
        world.Check(&cov);
        if (HasFatalFailure() || HasNonfatalFailure()) return;
      }
    }
  }
  // Every branch of the attribution was exercised.
  EXPECT_GT(cov.attributed, 0);
  EXPECT_GT(cov.home_fallback, 0);
  EXPECT_GT(cov.pulls, 0);
  EXPECT_GT(cov.migrations, 0);
  EXPECT_GT(cov.lost, 0);
  EXPECT_GT(cov.failovers, 0);
  EXPECT_GT(cov.recovered, 0);
}

}  // namespace
}  // namespace lmp
