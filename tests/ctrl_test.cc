// Tests for the lmp::ctrl control plane: demand estimation (attribution +
// EWMA smoothing), closed-loop sizing convergence to a fixed point,
// drain-backed shrinks that land after their priced flows retire (from an
// epoch or a maintenance Drain), and drain victim selection.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>
#include <vector>

#include "core/pool_manager.h"
#include "core/replication.h"
#include "core/sizing.h"
#include "ctrl/controller.h"
#include "ctrl/demand_estimator.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::ctrl {
namespace {

cluster::ClusterConfig Config(Bytes per_server = MiB(8)) {
  cluster::ClusterConfig config;
  config.num_servers = 4;
  config.server_total_memory = per_server;
  config.server_shared_memory = per_server;
  config.frame_size = KiB(64);
  config.with_backing = true;
  return config;
}

// ---------------------------------------------------------- DemandEstimator

class EstimatorTest : public ::testing::Test {
 protected:
  EstimatorTest() : cluster_(Config()), manager_(&cluster_) {
    manager_.access_tracker().set_half_life(Milliseconds(50));
  }
  cluster::Cluster cluster_;
  core::PoolManager manager_;
};

TEST_F(EstimatorTest, UntouchedSegmentsAttributeToHome) {
  ASSERT_TRUE(manager_.Allocate(MiB(2), 1).ok());
  DemandEstimator est(&manager_);
  const auto demands = est.Estimate(0);
  ASSERT_EQ(demands.size(), 4u);
  EXPECT_EQ(demands[0].pool_demand, 0u);
  EXPECT_EQ(demands[1].pool_demand, MiB(2));
  EXPECT_EQ(demands[1].server, 1u);
}

TEST_F(EstimatorTest, AttributionFollowsDominantAccessor) {
  auto buf = manager_.Allocate(MiB(2), 1);
  ASSERT_TRUE(buf.ok());
  const std::vector<core::SegmentId> segments =
      manager_.Describe(*buf)->segments;
  for (const core::SegmentId seg : segments) {
    manager_.access_tracker().RecordAccess(seg, 2, double(MiB(16)), 0);
  }
  DemandEstimator est(&manager_);
  const auto demands = est.Estimate(0);
  EXPECT_EQ(demands[1].pool_demand, 0u);
  EXPECT_EQ(demands[2].pool_demand, MiB(2));
}

TEST_F(EstimatorTest, EwmaSmoothsDemandSteps) {
  EstimatorConfig config;
  config.time_constant = Milliseconds(10);
  DemandEstimator est(&manager_, config);
  ASSERT_TRUE(manager_.Allocate(MiB(2), 0).ok());
  // First observation seeds the EWMA directly.
  EXPECT_EQ(est.Estimate(0)[0].pool_demand, MiB(2));
  // Demand doubles; one time-constant later the estimate sits strictly
  // between the old and new raw values.
  ASSERT_TRUE(manager_.Allocate(MiB(2), 0).ok());
  const Bytes mid = est.Estimate(Milliseconds(10))[0].pool_demand;
  EXPECT_GT(mid, MiB(2));
  EXPECT_LT(mid, MiB(4));
  // Far in the future the estimate has converged to the new level.
  EXPECT_EQ(est.Estimate(Milliseconds(500))[0].pool_demand, MiB(4));
}

TEST_F(EstimatorTest, HeadroomFactorOverprovisions) {
  ASSERT_TRUE(manager_.Allocate(MiB(2), 0).ok());
  EstimatorConfig config;
  config.headroom_factor = 1.5;
  DemandEstimator est(&manager_, config);
  EXPECT_EQ(est.Estimate(0)[0].pool_demand, MiB(3));
}

TEST_F(EstimatorTest, ObservedLocalFractionWeighsTraffic) {
  DemandEstimator est(&manager_);
  EXPECT_DOUBLE_EQ(est.ObservedLocalFraction(0), 1.0);  // no traffic yet
  auto buf = manager_.Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());
  const auto seg = manager_.Describe(*buf)->segments[0];
  manager_.access_tracker().RecordAccess(seg, 0, 300.0, 0);  // local
  manager_.access_tracker().RecordAccess(seg, 1, 100.0, 0);  // remote
  EXPECT_DOUBLE_EQ(est.ObservedLocalFraction(0), 0.75);
}

// --------------------------------------------------------- SizingController

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : cluster_(Config()), manager_(&cluster_) {
    manager_.access_tracker().set_half_life(Milliseconds(50));
    manager_.set_metrics(&metrics_);
  }

  // Heap-built: the controller registers `this`-capturing callbacks at
  // construction, so it must never move.
  std::unique_ptr<SizingController> MakeController(ControllerConfig config) {
    auto controller = std::make_unique<SizingController>(
        SizingController::Bindings{.sim = &sim_, .manager = &manager_},
        config);
    controller->set_metrics(&metrics_);
    return controller;
  }

  sim::FluidSimulator sim_;
  cluster::Cluster cluster_;
  core::PoolManager manager_;
  MetricsRegistry metrics_;
};

TEST_F(ControllerTest, SteadyDemandConvergesToFixedPoint) {
  // Static demand: 4 MiB homed on server 0, 2 MiB on server 1.  The loop
  // must reach the solved sizes and then stop issuing resizes entirely.
  ASSERT_TRUE(manager_.Allocate(MiB(4), 0).ok());
  ASSERT_TRUE(manager_.Allocate(MiB(2), 1).ok());

  ControllerConfig config;
  config.period = Milliseconds(1);
  config.cooldown = Milliseconds(2);
  config.min_step = KiB(64);
  config.horizon = Milliseconds(20);
  config.estimator.time_constant = Milliseconds(2);
  auto controller = MakeController(config);
  controller->Start();
  sim_.Run();

  EXPECT_GE(controller->stats().epochs, 10u);
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(4));
  EXPECT_EQ(cluster_.server(1).shared_bytes(), MiB(2));
  EXPECT_EQ(cluster_.server(2).shared_bytes(), 0u);  // idle: no provision
  EXPECT_EQ(controller->stats().last_unmet_demand, 0u);
  EXPECT_EQ(controller->pending_drains(), 0);

  // Total actuation is bounded by the one-way distance from the initial
  // layout (4×8 MiB shared) to the fixed point — no oscillation allowed.
  EXPECT_LE(controller->stats().resize_bytes, MiB(32));

  // Fixed point: further epochs change nothing.
  const std::uint64_t grows = controller->stats().grows;
  const std::uint64_t shrinks = controller->stats().shrinks;
  const Bytes moved = controller->stats().resize_bytes;
  for (int i = 0; i < 3; ++i) controller->RunEpochNow();
  EXPECT_EQ(controller->stats().grows, grows);
  EXPECT_EQ(controller->stats().shrinks, shrinks);
  EXPECT_EQ(controller->stats().resize_bytes, moved);
}

TEST_F(ControllerTest, BlockedShrinkDrainsAndLands) {
  // 6 MiB lives on server 0 but every byte is wanted by server 1: the
  // solver zeroes server 0's region, the resident frames block the shrink,
  // and the drain must move them out and then land the deferred resize.
  std::vector<core::BufferId> buffers;
  for (int i = 0; i < 3; ++i) {
    auto buf = manager_.Allocate(MiB(2), 0);
    ASSERT_TRUE(buf.ok());
    buffers.push_back(*buf);
    std::vector<std::byte> data(MiB(2), std::byte{static_cast<unsigned char>(
                                            0x10 + i)});
    ASSERT_TRUE(manager_.Write(0, *buf, 0, data).ok());
    const std::vector<core::SegmentId> segments =
        manager_.Describe(*buf)->segments;
    for (const core::SegmentId seg : segments) {
      manager_.access_tracker().RecordAccess(seg, 1, double(MiB(32)), 0);
    }
  }

  ControllerConfig config;
  config.period = Milliseconds(1);
  config.cooldown = Milliseconds(2);
  config.min_step = KiB(64);
  config.horizon = Milliseconds(20);
  // Only the drain may move segments: each epoch's balancing round stops
  // before its first move.
  config.migration.max_migrations_per_round = 0;
  config.estimator.time_constant = Milliseconds(1);
  auto controller = MakeController(config);
  controller->Start();
  sim_.Run();

  const ControllerStats& stats = controller->stats();
  EXPECT_GE(stats.shrinks_deferred, 1u);
  EXPECT_GE(stats.drains_started, 1u);
  EXPECT_GE(stats.drains_completed, 1u);
  EXPECT_EQ(stats.drains_failed, 0u);
  EXPECT_GE(stats.drain_bytes, MiB(6));
  EXPECT_EQ(controller->pending_drains(), 0);

  // The shrink landed and the working set now sits on its consumer.
  EXPECT_EQ(cluster_.server(0).shared_bytes(), 0u);
  EXPECT_EQ(cluster_.server(1).shared_bytes(), MiB(6));
  for (int i = 0; i < 3; ++i) {
    std::vector<std::byte> out(MiB(2));
    ASSERT_TRUE(manager_.Read(1, buffers[i], 0, out).ok());
    EXPECT_EQ(out[0], std::byte{static_cast<unsigned char>(0x10 + i)});
    auto frac = manager_.LocalFraction(buffers[i], 1);
    ASSERT_TRUE(frac.ok());
    EXPECT_DOUBLE_EQ(*frac, 1.0);
  }
  EXPECT_EQ(metrics_.Counter("ctrl.drains_completed"), stats.drains_completed);
}

TEST_F(ControllerTest, HysteresisIgnoresSubStepJitter) {
  ASSERT_TRUE(manager_.Allocate(MiB(4), 0).ok());
  ControllerConfig config;
  config.min_step = MiB(16);  // larger than any delta in this cluster
  auto controller = MakeController(config);
  controller->RunEpochNow();
  EXPECT_EQ(controller->stats().grows, 0u);
  EXPECT_EQ(controller->stats().shrinks, 0u);
  EXPECT_GE(controller->stats().skipped_small, 1u);
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(8));  // untouched
}

TEST_F(ControllerTest, CooldownDampsBackToBackResizes) {
  auto buf = manager_.Allocate(MiB(4), 0);
  ASSERT_TRUE(buf.ok());
  ControllerConfig config;
  config.cooldown = Milliseconds(1000);
  config.min_step = KiB(64);
  config.migration.max_migrations_per_round = 0;
  auto controller = MakeController(config);
  controller->RunEpochNow();  // first epoch resizes freely
  const std::uint64_t first = controller->stats().grows +
                              controller->stats().shrinks;
  EXPECT_GE(first, 1u);
  // A millisecond later demand moves to server 1 — but every server is
  // still resting, so the epoch must not actuate.
  sim_.ScheduleAt(Milliseconds(1), [&](SimTime now) {
    const std::vector<core::SegmentId> segments =
        manager_.Describe(*buf)->segments;
    for (const core::SegmentId seg : segments) {
      manager_.access_tracker().RecordAccess(seg, 1, double(MiB(32)), now);
    }
    controller->RunEpochNow();
  });
  sim_.Run();
  EXPECT_EQ(controller->stats().grows + controller->stats().shrinks, first);
  EXPECT_GE(controller->stats().skipped_cooldown, 1u);
}

// ------------------------------------------------------- Maintenance drains

class DrainTest : public ::testing::Test {
 protected:
  DrainTest()
      : topology_(fabric::Topology::MakeLogical(&sim_, 4,
                                                fabric::LinkProfile::Link1())),
        cluster_(Config(MiB(4))),
        manager_(&cluster_),
        controller_({.sim = &sim_, .manager = &manager_,
                     .topology = &topology_}) {
    manager_.set_metrics(&metrics_);
    controller_.set_metrics(&metrics_);
  }

  // Drains, then runs the priced flows (and the shrink retry) to the end.
  Status DrainAndRun(cluster::ServerId server, Bytes target) {
    const Status st = controller_.Drain(server, target);
    sim_.Run();
    return st;
  }

  core::BufferId AllocateFilled(Bytes bytes, cluster::ServerId server,
                                std::byte fill) {
    auto buf = manager_.Allocate(bytes, server);
    EXPECT_TRUE(buf.ok()) << buf.status();
    std::vector<std::byte> data(bytes, fill);
    EXPECT_TRUE(manager_.Write(server, *buf, 0, data).ok());
    return *buf;
  }

  bool ReadsBack(core::BufferId buf, Bytes bytes, std::byte fill) {
    std::vector<std::byte> out(bytes);
    return manager_.Read(1, buf, 0, out).ok() &&
           std::all_of(out.begin(), out.end(),
                       [fill](std::byte b) { return b == fill; });
  }

  sim::FluidSimulator sim_;
  fabric::Topology topology_;
  cluster::Cluster cluster_;
  core::PoolManager manager_;
  MetricsRegistry metrics_;
  SizingController controller_;
};

TEST_F(DrainTest, EmptyServerShrinksWithoutMigration) {
  ASSERT_TRUE(DrainAndRun(1, MiB(1)).ok());
  EXPECT_EQ(controller_.stats().drains_started, 0u);
  EXPECT_EQ(controller_.stats().shrinks, 1u);
  EXPECT_EQ(metrics_.Counter("lmp.migrate.segments"), 0u);
  EXPECT_EQ(cluster_.server(1).shared_bytes(), MiB(1));
}

TEST_F(DrainTest, ResidentSegmentsMigrateOutThenShrink) {
  // Fill server 0's region so frames reach the tail.
  const core::BufferId buf = AllocateFilled(MiB(3), 0, std::byte{0x42});
  ASSERT_TRUE(DrainAndRun(0, MiB(1)).ok());
  const ControllerStats& stats = controller_.stats();
  EXPECT_EQ(stats.drains_started, 1u);
  EXPECT_EQ(stats.drains_completed, 1u);
  EXPECT_EQ(stats.drain_bytes, MiB(3));
  EXPECT_EQ(controller_.pending_drains(), 0);
  EXPECT_GT(sim_.now(), 0.0);  // the moves were priced on the fabric
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(1));

  // Data intact at its new home; same buffer id.
  EXPECT_TRUE(ReadsBack(buf, MiB(3), std::byte{0x42}));
  auto frac = manager_.LocalFraction(buf, 0);
  ASSERT_TRUE(frac.ok());
  EXPECT_DOUBLE_EQ(*frac, 0.0);  // fully evicted
}

TEST_F(DrainTest, ColdSegmentsLeaveBeforeHotOnes) {
  // Two segments on server 0; make the second hot.  Only the one in the
  // removed tail must leave, hot or not.
  const core::BufferId cold = AllocateFilled(MiB(1), 0, std::byte{0x01});
  const core::BufferId hot = AllocateFilled(MiB(1), 0, std::byte{0x02});
  const auto hot_seg = manager_.Describe(hot)->segments[0];
  manager_.access_tracker().RecordAccess(hot_seg, 0, double(MiB(8)), 0);

  ASSERT_TRUE(DrainAndRun(0, MiB(1)).ok());
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(1));
  EXPECT_DOUBLE_EQ(manager_.LocalFraction(cold, 0).value_or(-1), 1.0);
  EXPECT_DOUBLE_EQ(manager_.LocalFraction(hot, 0).value_or(-1), 0.0);
  EXPECT_TRUE(ReadsBack(cold, MiB(1), std::byte{0x01}));
  EXPECT_TRUE(ReadsBack(hot, MiB(1), std::byte{0x02}));
}

TEST_F(DrainTest, FailsWhenPeersFull) {
  for (cluster::ServerId s = 1; s < 4; ++s) {
    ASSERT_TRUE(manager_.Allocate(MiB(4), s).ok());
  }
  const core::BufferId buf = AllocateFilled(MiB(3), 0, std::byte{0x42});
  ASSERT_TRUE(DrainAndRun(0, MiB(1)).ok());
  EXPECT_EQ(controller_.stats().drains_failed, 1u);
  EXPECT_EQ(controller_.stats().drains_started, 0u);
  // Server keeps its old size; data untouched.
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(4));
  EXPECT_DOUBLE_EQ(manager_.LocalFraction(buf, 0).value_or(-1), 1.0);
  EXPECT_TRUE(ReadsBack(buf, MiB(3), std::byte{0x42}));
}

TEST_F(DrainTest, SizingDeferThenDrainConverges) {
  // The full loop: the optimizer shrinks a loaded server, Apply defers,
  // the drain completes it.
  ASSERT_TRUE(manager_.Allocate(MiB(3), 2).ok());
  core::SizingPlan plan;
  plan.entries.push_back({2, MiB(1), 0, 0});
  const core::SizingApplyResult deferred =
      core::SizingOptimizer::Apply(cluster_, plan);
  EXPECT_EQ(deferred.deferred_count(), 1);
  EXPECT_EQ(deferred.deferred[0].server, 2u);
  EXPECT_GT(deferred.deferred[0].stranded_bytes, 0u);
  EXPECT_EQ(cluster_.server(2).shared_bytes(), MiB(4));

  ASSERT_TRUE(DrainAndRun(2, MiB(1)).ok());
  EXPECT_EQ(controller_.stats().drains_completed, 1u);
  EXPECT_EQ(cluster_.server(2).shared_bytes(), MiB(1));
  EXPECT_EQ(core::SizingOptimizer::Apply(cluster_, plan).deferred_count(), 0);
}

TEST_F(DrainTest, FailedDrainCountsAndPricesWhatItMoved) {
  // Two victims on server 0; the peers have room for the first only.  The
  // drain fails on the second, but the first already moved: its bytes
  // must be counted and priced, not dropped.
  for (cluster::ServerId s = 1; s < 3; ++s) {
    ASSERT_TRUE(manager_.Allocate(MiB(4), s).ok());
  }
  ASSERT_TRUE(manager_.Allocate(MiB(3), 3).ok());
  ASSERT_TRUE(manager_.Allocate(MiB(1), 0).ok());
  ASSERT_TRUE(manager_.Allocate(MiB(1), 0).ok());
  ASSERT_EQ(BlockedResidents(manager_, 0, 0, 0).size(), 2u);

  ASSERT_TRUE(DrainAndRun(0, 0).ok());
  const ControllerStats& stats = controller_.stats();
  EXPECT_EQ(stats.drains_failed, 1u);
  EXPECT_EQ(stats.drains_started, 0u);
  EXPECT_EQ(controller_.pending_drains(), 0);
  EXPECT_EQ(metrics_.Counter("lmp.migrate.bytes"), MiB(1));
  EXPECT_EQ(stats.drain_bytes, metrics_.Counter("lmp.migrate.bytes"));
  EXPECT_EQ(metrics_.Counter("ctrl.drain_bytes"), stats.drain_bytes);
  EXPECT_GT(sim_.now(), 0.0);  // the one move cost fabric time
  EXPECT_EQ(cluster_.server(0).shared_bytes(), MiB(4));
}

TEST_F(DrainTest, DrainRejectsCrashedAndBusyServers) {
  ASSERT_TRUE(manager_.Allocate(MiB(3), 0).ok());
  ASSERT_TRUE(controller_.Drain(0, MiB(1)).ok());
  EXPECT_EQ(controller_.pending_drains(), 1);
  EXPECT_TRUE(IsFailedPrecondition(controller_.Drain(0, 0)));
  sim_.Run();
  EXPECT_EQ(controller_.pending_drains(), 0);
  EXPECT_TRUE(IsInvalidArgument(controller_.Drain(0, MiB(64))));
  EXPECT_TRUE(IsInvalidArgument(controller_.Drain(7, 0)));
  ASSERT_TRUE(manager_.OnServerCrash(3).ok());
  EXPECT_TRUE(IsUnavailable(controller_.Drain(3, 0)));
}

// ------------------------------------------------------- BlockedResidents

class BlockedResidentsTest : public ::testing::Test {
 protected:
  BlockedResidentsTest() : cluster_(Config(MiB(4))), manager_(&cluster_) {}

  core::SegmentId AllocateOne(Bytes bytes, cluster::ServerId server) {
    auto buf = manager_.Allocate(bytes, server);
    EXPECT_TRUE(buf.ok()) << buf.status();
    const std::vector<core::SegmentId> segments =
        manager_.Describe(*buf)->segments;
    EXPECT_EQ(segments.size(), 1u);
    return segments.front();
  }

  static std::vector<core::SegmentId> Ids(
      const std::vector<DrainVictim>& victims) {
    std::vector<core::SegmentId> ids;
    for (const DrainVictim& v : victims) ids.push_back(v.seg);
    return ids;
  }

  cluster::Cluster cluster_;
  core::PoolManager manager_;
};

TEST_F(BlockedResidentsTest, OnlySegmentsPastTheTargetBlock) {
  // Three 1 MiB residents pack [0, 3 MiB); only the last crosses 2 MiB.
  AllocateOne(MiB(1), 0);
  AllocateOne(MiB(1), 0);
  const core::SegmentId tail = AllocateOne(MiB(1), 0);
  EXPECT_EQ(Ids(BlockedResidents(manager_, 0, MiB(2), 0)),
            std::vector<core::SegmentId>{tail});
  EXPECT_TRUE(BlockedResidents(manager_, 0, MiB(3), 0).empty());
}

TEST_F(BlockedResidentsTest, TargetZeroReturnsEveryActiveResident) {
  const core::SegmentId a = AllocateOne(MiB(1), 0);
  const core::SegmentId b = AllocateOne(MiB(1), 0);
  AllocateOne(MiB(1), 1);  // another server's resident never appears
  const std::vector<DrainVictim> victims =
      BlockedResidents(manager_, 0, 0, 0);
  EXPECT_EQ(Ids(victims), (std::vector<core::SegmentId>{a, b}));
  EXPECT_EQ(victims[0].size, MiB(1));
}

TEST_F(BlockedResidentsTest, ColdestFirstThenLowestId) {
  const core::SegmentId hotter = AllocateOne(KiB(256), 0);
  const core::SegmentId cold1 = AllocateOne(KiB(256), 0);
  const core::SegmentId hot = AllocateOne(KiB(256), 0);
  const core::SegmentId cold2 = AllocateOne(KiB(256), 0);
  manager_.access_tracker().RecordAccess(hotter, 0, double(MiB(16)), 0);
  manager_.access_tracker().RecordAccess(hot, 0, double(MiB(8)), 0);

  const std::vector<DrainVictim> victims =
      BlockedResidents(manager_, 0, 0, 0);
  // Equal heat: the lower segment id leaves first.
  EXPECT_EQ(Ids(victims),
            (std::vector<core::SegmentId>{cold1, cold2, hot, hotter}));
  EXPECT_DOUBLE_EQ(victims.front().heat, 0.0);
  EXPECT_LT(victims[2].heat, victims[3].heat);
}

// The victim list as a walk over the whole segment map: every active
// segment homed on `server` with a run past the cut, sorted the same way.
std::vector<DrainVictim> SegmentMapWalk(core::PoolManager& manager,
                                        cluster::ServerId server,
                                        Bytes target_bytes, SimTime now) {
  const std::uint64_t target_frames = mem::FramesForBytes(
      target_bytes, manager.cluster().server(server).frame_size());
  const core::Location here = core::Location::OnServer(server);
  const core::LocalFrameMap* frames = manager.FindLocalMap(here);
  std::vector<DrainVictim> out;
  manager.segment_map().ForEach([&](const core::SegmentInfo& info) {
    if (info.home != here || info.state != core::SegmentState::kActive ||
        frames == nullptr) {
      return;
    }
    auto runs_or = frames->RunsOf(info.id);
    if (!runs_or.ok()) return;
    for (const mem::FrameRun& run : runs_or.value()) {
      if (run.end() > target_frames) {
        out.push_back(DrainVictim{
            info.id, info.size,
            manager.access_tracker().TotalBytes(info.id, now)});
        break;
      }
    }
  });
  std::sort(out.begin(), out.end(),
            [](const DrainVictim& a, const DrainVictim& b) {
              return std::tie(a.heat, a.seg) < std::tie(b.heat, b.seg);
            });
  return out;
}

using VictimKey = std::tuple<core::SegmentId, Bytes, double>;

std::vector<VictimKey> Keys(const std::vector<DrainVictim>& victims) {
  std::vector<VictimKey> keys;
  for (const DrainVictim& v : victims) keys.emplace_back(v.seg, v.size, v.heat);
  return keys;
}

TEST_F(BlockedResidentsTest, MatchesSegmentMapWalk) {
  // A segment homed on server 1 whose replica is bound on server 0 (the
  // most free host): server 0's frame map holds it, but it is no resident.
  const core::SegmentId replicated = AllocateOne(KiB(256), 1);
  core::ReplicationManager replication(&manager_, 1);
  ASSERT_TRUE(replication.ProtectSegment(replicated).ok());
  ASSERT_EQ(manager_.segment_map().Find(replicated)->replicas,
            std::vector<core::Location>{core::Location::OnServer(0)});

  std::vector<core::SegmentId> residents;
  for (int i = 0; i < 6; ++i) residents.push_back(AllocateOne(KiB(256), 0));
  // Bound on server 0 but lost: not a resident either.
  ASSERT_TRUE(manager_.mutable_segment_map()
                  .SetState(residents[2], core::SegmentState::kLost)
                  .ok());
  // Heat from up to three accessors per segment, and one exact heat tie.
  core::AccessTracker& tracker = manager_.access_tracker();
  for (std::size_t i = 0; i < residents.size(); ++i) {
    for (cluster::ServerId s = 0; s < 3; ++s) {
      tracker.RecordAccess(residents[i], s, double((i % 3) * 1000 + s), 0);
    }
  }
  tracker.RecordAccess(replicated, 0, 9000, 0);
  // Server 3 crashes with a segment homed there: that segment is lost and
  // server 3 keeps no frame map at all.
  const core::SegmentId on_three = AllocateOne(KiB(256), 3);
  ASSERT_TRUE(manager_.OnServerCrash(3).ok());
  ASSERT_EQ(manager_.segment_map().Find(on_three)->state,
            core::SegmentState::kLost);
  ASSERT_EQ(manager_.FindLocalMap(core::Location::OnServer(3)), nullptr);

  const SimTime now = Milliseconds(3);
  for (cluster::ServerId server = 0; server < 4; ++server) {
    for (const Bytes target : {Bytes{0}, KiB(512), MiB(1), MiB(4)}) {
      EXPECT_EQ(Keys(BlockedResidents(manager_, server, target, now)),
                Keys(SegmentMapWalk(manager_, server, target, now)))
          << "server " << server << " target " << target;
    }
  }
  // The setup exercises what it claims: server 0 has five active residents
  // (a sixth is lost) and the replica bound there.
  const std::vector<DrainVictim> zero = BlockedResidents(manager_, 0, 0, now);
  EXPECT_EQ(zero.size(), 5u);
  ASSERT_NE(manager_.FindLocalMap(core::Location::OnServer(0)), nullptr);
  EXPECT_TRUE(
      manager_.FindLocalMap(core::Location::OnServer(0))->Contains(replicated));
  // Asking about a server with no frame map does not create one.
  EXPECT_TRUE(BlockedResidents(manager_, 3, 0, now).empty());
  EXPECT_EQ(manager_.FindLocalMap(core::Location::OnServer(3)), nullptr);
}

}  // namespace
}  // namespace lmp::ctrl
