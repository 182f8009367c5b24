// Tests for the hierarchical control plane (ctrl/hier): scoped demand
// estimation (rack attribution, pull candidates, access-bit sourcing),
// the GlobalCoordinator's pure rack-level solve, RackController grant
// execution, the assembled HierController's cross-rack locality repair,
// and lockstep determinism across simulator thread counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "core/access_bits.h"
#include "core/pool_manager.h"
#include "ctrl/controller.h"
#include "ctrl/demand_estimator.h"
#include "ctrl/hier/global_coordinator.h"
#include "ctrl/hier/hier_controller.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::ctrl::hier {
namespace {

constexpr int kPerRack = 3;
constexpr int kServers = 2 * kPerRack;  // rack 0: {0,1,2}, rack 1: {3,4,5}

cluster::ClusterConfig Config(Bytes per_server = MiB(32)) {
  cluster::ClusterConfig config;
  config.num_servers = kServers;
  config.server_total_memory = per_server;
  config.server_shared_memory = per_server;
  config.frame_size = KiB(64);
  config.with_backing = true;
  return config;
}

// Copies the id list out of Describe's temporary StatusOr — iterating
// `Describe(buf)->segments` directly would range-for over a dangling
// member in C++20.
std::vector<core::SegmentId> SegmentsOf(const core::PoolManager& manager,
                                        core::BufferId buf) {
  return manager.Describe(buf)->segments;
}

// ---------------------------------------------------- scoped DemandEstimator

class ScopedEstimatorTest : public ::testing::Test {
 protected:
  ScopedEstimatorTest() : cluster_(Config()), manager_(&cluster_) {
    manager_.access_tracker().set_half_life(Milliseconds(50));
  }

  std::vector<core::SegmentId> AllocateOn(cluster::ServerId home,
                                          Bytes bytes = MiB(2)) {
    auto buf = manager_.Allocate(bytes, home);
    EXPECT_TRUE(buf.ok());
    return manager_.Describe(*buf)->segments;
  }

  void TouchFrom(const std::vector<core::SegmentId>& segments,
                 cluster::ServerId accessor, double weight = double(MiB(8))) {
    for (const core::SegmentId seg : segments) {
      manager_.access_tracker().RecordAccess(seg, accessor, weight, 0);
    }
  }

  cluster::Cluster cluster_;
  core::PoolManager manager_;
};

TEST_F(ScopedEstimatorTest, RestrictToNarrowsEntriesAndAttribution) {
  // Homed out of scope (server 4) but dominated by in-scope server 1: the
  // bytes are rack 0's demand, reported at server 1.
  TouchFrom(AllocateOn(4), 1);
  DemandEstimator est(&manager_);
  est.RestrictTo(0, kPerRack);
  const auto demands = est.Estimate(0);
  ASSERT_EQ(demands.size(), static_cast<std::size_t>(kPerRack));
  EXPECT_EQ(demands[1].server, 1u);
  EXPECT_EQ(demands[1].pool_demand, MiB(2));
  EXPECT_EQ(demands[0].pool_demand, 0u);
  EXPECT_TRUE(est.InScope(2));
  EXPECT_FALSE(est.InScope(3));
}

TEST_F(ScopedEstimatorTest, OutOfScopeDominantIsAnotherRacksDemand) {
  // Homed in scope (server 1) but dominated by rack 1's server 4: the
  // scoped estimator must NOT fall back to the home — the peer rack's
  // estimator claims these bytes, and a home fallback would double-count
  // them across the hierarchy.
  TouchFrom(AllocateOn(1), 4);
  DemandEstimator rack0(&manager_);
  rack0.RestrictTo(0, kPerRack);
  for (const core::ServerDemand& d : rack0.Estimate(0)) {
    EXPECT_EQ(d.pool_demand, 0u);
  }
  DemandEstimator rack1(&manager_);
  rack1.RestrictTo(kPerRack, kServers);
  EXPECT_EQ(rack1.Estimate(0)[4 - kPerRack].pool_demand, MiB(2));
}

TEST_F(ScopedEstimatorTest, PullCandidatesAreRemoteHomedInRackDominated) {
  const auto remote_hot = AllocateOn(4);   // homed off-rack, pulled by 1
  const auto local_hot = AllocateOn(1);    // homed in-rack: not a candidate
  const auto remote_cold = AllocateOn(5);  // untouched: no dominant
  TouchFrom(remote_hot, 1);
  TouchFrom(local_hot, 1);
  (void)remote_cold;

  DemandEstimator est(&manager_);
  est.RestrictTo(0, kPerRack);
  const auto candidates = est.PullCandidates(0);
  Bytes total = 0;
  double prev_heat = -1;
  for (const auto& c : candidates) {
    EXPECT_EQ(c.dst, 1u);
    EXPECT_EQ(manager_.segment_map().Find(c.seg)->home.server, 4u);
    if (prev_heat >= 0) {
      EXPECT_LE(c.heat, prev_heat);  // hottest first
    }
    prev_heat = c.heat;
    total += c.size;
  }
  EXPECT_EQ(total, MiB(2));
  EXPECT_EQ(est.RemoteHotBytes(0), MiB(2));
}

TEST_F(ScopedEstimatorTest, AccessBitsSourceAttributesFromSampledBits) {
  const auto segments = AllocateOn(1);
  core::AccessBitSampler bits(KiB(64));
  EstimatorConfig config;
  config.source = DemandSource::kAccessBits;
  // Tight smoothing: the EWMA's home-attributed tail must have decayed
  // below one byte by the second estimate, or frame-ceil rounding keeps
  // reporting a phantom frame at the home server.
  config.time_constant = Milliseconds(5);
  DemandEstimator est(&manager_, config);
  est.set_access_bits(&bits);
  ASSERT_TRUE(est.uses_access_bits());

  // No completed scan interval yet: attribution falls back to the home.
  EXPECT_EQ(est.Estimate(0)[1].pool_demand, MiB(2));

  // Server 2 touches every page; after the owner's scan-and-clear the
  // sampled dominant moves attribution to server 2.
  for (const core::SegmentId seg : segments) {
    bits.OnAccess(seg, 2, 0, MiB(2));
  }
  (void)bits.ScanAndClear();
  const auto demands = est.Estimate(Milliseconds(500));
  EXPECT_EQ(demands[2].pool_demand, MiB(2));
  EXPECT_EQ(demands[1].pool_demand, 0u);
}

TEST_F(ScopedEstimatorTest, AccessBitsConvergeToExactAttribution) {
  // Steady traffic from server 2: the lossy page-bit source must settle on
  // the same attribution (segment bytes at server 2) the exact hotness
  // counters report, epoch for epoch once the first scan completes.
  const auto segments = AllocateOn(1);
  core::AccessBitSampler bits(KiB(64));
  EstimatorConfig exact_config;
  exact_config.time_constant = Milliseconds(5);
  DemandEstimator exact(&manager_, exact_config);
  EstimatorConfig bits_config = exact_config;
  bits_config.source = DemandSource::kAccessBits;
  DemandEstimator sampled(&manager_, bits_config);
  sampled.set_access_bits(&bits);

  Bytes exact_demand = 0;
  Bytes sampled_demand = 0;
  for (int epoch = 0; epoch < 10; ++epoch) {
    const SimTime now = epoch * Milliseconds(1);
    for (const core::SegmentId seg : segments) {
      manager_.access_tracker().RecordAccess(seg, 2, double(MiB(4)), now);
      bits.OnAccess(seg, 2, 0, MiB(2));
    }
    (void)bits.ScanAndClear();  // the owner scans once per epoch
    exact_demand = exact.Estimate(now)[2].pool_demand;
    sampled_demand = sampled.Estimate(now)[2].pool_demand;
  }
  EXPECT_EQ(exact_demand, MiB(2));
  EXPECT_EQ(sampled_demand, exact_demand);
}

// -------------------------------------------------------- GlobalCoordinator

RackSummary Rack(int rack, Bytes residual, Bytes headroom, Bytes remote_hot,
                 bool alive = true) {
  RackSummary s;
  s.rack = rack;
  s.residual_demand = residual;
  s.headroom = headroom;
  s.remote_hot_bytes = remote_hot;
  s.alive = alive;
  return s;
}

// The coordinator's constants: a 64 MiB round budget, a quarter of each
// rack's headroom held back, and a 64 KiB grant floor.
static_assert(GlobalCoordinator::kSpineBudget == MiB(64));
static_assert(GlobalCoordinator::kHeadroomReserve == 0.25);
static_assert(GlobalCoordinator::kMinGrant == KiB(64));

TEST(GlobalCoordinatorTest, PullGrantsCappedByBudgetAndReservedHeadroom) {
  // Rack 0 wants MiB(128) home but only MiB(96) of its headroom is
  // grantable and the round budget is MiB(64); rack 1's want hits an
  // exhausted budget.
  const SpinePlan plan = GlobalCoordinator::Solve(
      {Rack(0, 0, MiB(128), MiB(128)), Rack(1, 0, MiB(128), MiB(32))});
  ASSERT_EQ(plan.pulls.size(), 1u);
  EXPECT_EQ(plan.pulls[0].rack, 0);
  EXPECT_EQ(plan.pulls[0].budget, MiB(64));
  EXPECT_TRUE(plan.pushes.empty());
  EXPECT_EQ(plan.granted, MiB(64));
}

TEST(GlobalCoordinatorTest, MinGrantFloorDropsNoise) {
  const SpinePlan plan = GlobalCoordinator::Solve(
      {Rack(0, KiB(32), MiB(8), KiB(32)), Rack(1, 0, MiB(8), 0)});
  EXPECT_TRUE(plan.pulls.empty());
  EXPECT_TRUE(plan.pushes.empty());
  EXPECT_EQ(plan.granted, 0u);
}

TEST(GlobalCoordinatorTest, DeadRacksNeitherGiveNorReceive) {
  // Rack 0 is dead with tempting headroom and remote-hot bytes; rack 1's
  // residual must be pushed into rack 2, the only live peer.
  const SpinePlan plan = GlobalCoordinator::Solve(
      {Rack(0, MiB(4), MiB(16), MiB(8), /*alive=*/false),
       Rack(1, MiB(2), 0, 0), Rack(2, 0, MiB(8), 0)});
  EXPECT_TRUE(plan.pulls.empty());
  ASSERT_EQ(plan.pushes.size(), 1u);
  EXPECT_EQ(plan.pushes[0].src_rack, 1);
  EXPECT_EQ(plan.pushes[0].dst_rack, 2);
  EXPECT_EQ(plan.pushes[0].budget, MiB(2));
}

TEST(GlobalCoordinatorTest, PushesSpreadResidualOverSurplusRacksInOrder) {
  // Rack 1 can take three quarters of its MiB(4) headroom; the rest of
  // rack 0's residual goes on to rack 2.
  const SpinePlan plan = GlobalCoordinator::Solve({Rack(0, MiB(4), 0, 0),
                                                   Rack(1, 0, MiB(4), 0),
                                                   Rack(2, 0, MiB(8), 0)});
  ASSERT_EQ(plan.pushes.size(), 2u);
  EXPECT_EQ(plan.pushes[0].dst_rack, 1);
  EXPECT_EQ(plan.pushes[0].budget, MiB(3));
  EXPECT_EQ(plan.pushes[1].dst_rack, 2);
  EXPECT_EQ(plan.pushes[1].budget, MiB(1));
  EXPECT_EQ(plan.granted, MiB(4));
}

TEST(GlobalCoordinatorTest, PullsOutrankPushesForTheSharedBudget) {
  const SpinePlan plan = GlobalCoordinator::Solve(
      {Rack(0, 0, MiB(256), MiB(64)), Rack(1, MiB(64), MiB(256), 0)});
  ASSERT_EQ(plan.pulls.size(), 1u);
  EXPECT_EQ(plan.pulls[0].budget, MiB(64));
  EXPECT_TRUE(plan.pushes.empty());  // the pull consumed the round budget
}

// ----------------------------------------------------------- RackController

class RackControllerTest : public ::testing::Test {
 protected:
  RackControllerTest() : cluster_(Config()), manager_(&cluster_) {
    manager_.access_tracker().set_half_life(Milliseconds(50));
    manager_.set_metrics(&metrics_);
  }

  // Heap-built: the embedded SizingController registers `this`-capturing
  // callbacks at construction, so the rack controller must never move.
  std::unique_ptr<RackController> MakeRack(int rack, cluster::ServerId first,
                                           cluster::ServerId limit) {
    ControllerConfig config;
    config.period = Milliseconds(5);
    config.estimator.time_constant = Milliseconds(5);
    auto r = std::make_unique<RackController>(
        SizingController::Bindings{.sim = &sim_, .manager = &manager_},
        rack, first, limit, config);
    r->set_metrics(&metrics_);
    return r;
  }

  cluster::ServerId HomeOf(core::SegmentId seg) const {
    return manager_.segment_map().Find(seg)->home.server;
  }

  sim::FluidSimulator sim_;
  cluster::Cluster cluster_;
  core::PoolManager manager_;
  MetricsRegistry metrics_;
};

TEST_F(RackControllerTest, SummaryDigestsRackStateForTheSpine) {
  // MiB(2) homed in rack 0 but dominated by rack 1's server 4.
  auto buf = manager_.Allocate(MiB(2), 0);
  ASSERT_TRUE(buf.ok());
  for (const core::SegmentId seg : SegmentsOf(manager_, *buf)) {
    manager_.access_tracker().RecordAccess(seg, 4, double(MiB(8)), 0);
  }
  auto rack1 = MakeRack(1, kPerRack, kServers);
  const RackSummary s = rack1->Summary(0);
  EXPECT_EQ(s.rack, 1);
  EXPECT_TRUE(s.alive);
  EXPECT_EQ(s.remote_hot_bytes, MiB(2));  // a pull grant would localize it
  EXPECT_EQ(s.headroom, 3 * MiB(32));     // rack 1's servers are untouched
  EXPECT_EQ(s.residual_demand, 0u);
}

TEST_F(RackControllerTest, ExecutePullsLocalizesHottestFirstWithinBudget) {
  auto hot = manager_.Allocate(MiB(2), 0);
  auto warm = manager_.Allocate(MiB(2), 0);
  ASSERT_TRUE(hot.ok() && warm.ok());
  for (const core::SegmentId seg : SegmentsOf(manager_, *hot)) {
    manager_.access_tracker().RecordAccess(seg, 4, double(MiB(16)), 0);
  }
  for (const core::SegmentId seg : SegmentsOf(manager_, *warm)) {
    manager_.access_tracker().RecordAccess(seg, 4, double(MiB(4)), 0);
  }
  auto rack1 = MakeRack(1, kPerRack, kServers);
  // Budget admits only the hotter buffer; the warm one stays put.
  EXPECT_EQ(rack1->ExecutePulls(0, MiB(3)), MiB(2));
  EXPECT_EQ(rack1->stats().pulled_bytes, MiB(2));
  EXPECT_GE(rack1->stats().pulls, 1u);
  for (const core::SegmentId seg : SegmentsOf(manager_, *hot)) {
    EXPECT_EQ(HomeOf(seg), 4u);  // pulled to its dominant accessor
  }
  for (const core::SegmentId seg : SegmentsOf(manager_, *warm)) {
    EXPECT_EQ(HomeOf(seg), 0u);
  }
}

TEST_F(RackControllerTest, ExecutePushesExileColdestIntoDestinationRack) {
  auto cold = manager_.Allocate(MiB(2), 0);
  auto hot = manager_.Allocate(MiB(2), 0);
  ASSERT_TRUE(cold.ok() && hot.ok());
  for (const core::SegmentId seg : SegmentsOf(manager_, *hot)) {
    manager_.access_tracker().RecordAccess(seg, 0, double(MiB(16)), 0);
  }
  auto rack0 = MakeRack(0, 0, kPerRack);
  // The grant covers one buffer: the cold one goes, the hot one stays.
  EXPECT_EQ(rack0->ExecutePushes(0, MiB(2), kPerRack, kServers), MiB(2));
  EXPECT_EQ(rack0->stats().pushed_bytes, MiB(2));
  for (const core::SegmentId seg : SegmentsOf(manager_, *cold)) {
    EXPECT_GE(HomeOf(seg), static_cast<cluster::ServerId>(kPerRack));
  }
  for (const core::SegmentId seg : SegmentsOf(manager_, *hot)) {
    EXPECT_EQ(HomeOf(seg), 0u);
  }
}

// ------------------------------------------- HierController (end to end)

struct HierRun {
  std::string metrics_json;
  std::string trace_json;
  double local_fraction = 0;
  HierStats stats;
  Bytes rack_sizing_spine = 0;  // cross-rack bytes from the rack tiers
  int hot_segments_in_rack0 = 0;
  int hot_segments_total = 0;
};

// Four MiB(2) buffers homed on rack 1's server 3 while the only consumer
// is rack 0's server 0: pure cross-rack locality debt that only a spine
// pull grant may repair.  Remote touches are priced as DMA flows so the
// run also exercises the uplink spill path under `threads`.
HierRun RunPullScenario(int threads) {
  sim::FluidSimulator sim;
  MetricsRegistry metrics;
  sim.set_metrics(&metrics);
  sim.set_threads(threads);
  trace::TraceCollector collector;
  collector.set_clock([&sim] { return sim.now(); });
  sim.set_trace(&collector);
  auto topo = fabric::Topology::MakeLogical(&sim, kServers,
                                            fabric::LinkProfile::Link1());
  topo.AssignRackShards(kPerRack);
  topo.ProvisionSpine(topo.link().bandwidth / 4);
  cluster::Cluster cluster(Config());
  core::PoolManager manager(&cluster);
  manager.access_tracker().set_half_life(Milliseconds(20));
  manager.set_metrics(&metrics);
  manager.set_trace(&collector);

  std::vector<core::BufferId> buffers;
  for (int i = 0; i < 4; ++i) {
    auto buf = manager.Allocate(MiB(2), 3);
    EXPECT_TRUE(buf.ok());
    buffers.push_back(*buf);
  }

  HierConfig hc;
  hc.period = Milliseconds(2);
  hc.horizon = Milliseconds(60);
  hc.global_every = 2;
  hc.rack.min_step = MiB(1);
  hc.rack.cooldown = Milliseconds(4);
  hc.rack.estimator.time_constant = Milliseconds(5);
  // Provisioning slack matters doubly here: the coordinator caps pull
  // grants at 75% of the destination rack's free bytes, so a region
  // packed exactly to demand strands the last segment remote forever.
  hc.rack.estimator.headroom_factor = 1.25;
  auto hier = std::make_unique<HierController>(
      HierController::Bindings{.sim = &sim, .manager = &manager,
                               .topology = &topo},
      hc);
  hier->set_metrics(&metrics);
  hier->set_trace(&collector);
  hier->Start();

  DemandEstimator meter(&manager);
  for (SimTime t = 0; t < Milliseconds(60); t += Milliseconds(1)) {
    sim.ScheduleAt(t, [&](SimTime now) {
      for (const core::BufferId buf : buffers) {
        auto spans = manager.Spans(buf, 0, MiB(2));
        if (!spans.ok()) continue;
        for (const core::LocatedSpan& span : *spans) {
          manager.access_tracker().RecordAccess(
              span.segment, 0, static_cast<double>(span.bytes), now);
          if (!span.location.is_pool() && span.location.server != 0) {
            sim.StartFlow(static_cast<double>(span.bytes),
                          topo.DmaRemotePath(0, span.location.server),
                          [&sim](sim::FlowId f, SimTime) {
                            (void)sim.ReleaseRecord(f);
                          });
          }
        }
      }
    });
  }
  sim.Run();

  HierRun run;
  run.local_fraction = meter.ObservedLocalFraction(Milliseconds(60));
  run.stats = hier->stats();
  for (int r = 0; r < hier->num_racks(); ++r) {
    run.rack_sizing_spine += hier->rack(r).sizing().stats().spine_bytes;
  }
  for (const core::BufferId buf : buffers) {
    for (const core::SegmentId seg : SegmentsOf(manager, buf)) {
      ++run.hot_segments_total;
      if (manager.segment_map().Find(seg)->home.server <
          static_cast<cluster::ServerId>(kPerRack)) {
        ++run.hot_segments_in_rack0;
      }
    }
  }
  run.metrics_json = trace::MetricsJson(metrics);
  run.trace_json = collector.ToChromeJson();
  return run;
}

TEST(HierControllerTest, PullGrantsRepairCrossRackLocality) {
  const HierRun run = RunPullScenario(1);
  // The spine issued pull grants and the rack executed them: every hot
  // segment ends up homed next to its consumer in rack 0.
  EXPECT_GE(run.stats.global_rounds, 1u);
  EXPECT_GE(run.stats.pull_grants, 1u);
  EXPECT_EQ(run.stats.pulled_bytes, MiB(8));
  EXPECT_EQ(run.hot_segments_in_rack0, run.hot_segments_total);
  // The rack tiers themselves never crossed the spine — all cross-rack
  // bytes were explicit grants.
  EXPECT_EQ(run.rack_sizing_spine, 0u);
  EXPECT_GE(run.stats.last_local_fraction, 0.0);
  EXPECT_GT(run.local_fraction, 0.8);
}

TEST(HierControllerTest, LockstepAcrossRunsAndThreadCounts) {
  const HierRun once = RunPullScenario(1);
  const HierRun again = RunPullScenario(1);
  const HierRun wide = RunPullScenario(8);
  EXPECT_FALSE(once.metrics_json.empty());
  // Replay: byte-identical.
  EXPECT_EQ(once.metrics_json, again.metrics_json);
  EXPECT_EQ(once.trace_json, again.trace_json);
  // Thread-count sweep: cross-rack flows route through the sequential
  // uplink spill path, so 8 worker threads reproduce the single-threaded
  // run byte for byte.
  EXPECT_EQ(once.metrics_json, wide.metrics_json);
  EXPECT_EQ(once.trace_json, wide.trace_json);
  EXPECT_DOUBLE_EQ(once.local_fraction, wide.local_fraction);
  EXPECT_EQ(once.stats.pulled_bytes, wide.stats.pulled_bytes);
  EXPECT_EQ(once.stats.epochs, wide.stats.epochs);
}

// A rack-local hotspot, hier vs flat.  Hot and cold buffers live on
// server 0, self-local until t=31ms; then the consumer moves to server 1
// while server 0's own application reclaims most of its DRAM.  Rack 0
// has room for the displaced bytes (server 1), but rack 0's peers carry
// private floors and ballast while rack 1 sits idle — so the flat
// solver's cluster-wide overflow placement sizes up a rack 1 region and
// the drains follow it across the spine.  The scoped rack tier places
// the same overflow on server 1 and never touches the spine.
Bytes RunHotspot(bool hierarchical) {
  sim::FluidSimulator sim;
  MetricsRegistry metrics;
  sim.set_metrics(&metrics);
  auto topo = fabric::Topology::MakeLogical(&sim, kServers,
                                            fabric::LinkProfile::Link1());
  topo.AssignRackShards(kPerRack);
  topo.ProvisionSpine(topo.link().bandwidth / 4);
  cluster::Cluster cluster(Config());
  core::PoolManager manager(&cluster);
  manager.access_tracker().set_half_life(Milliseconds(20));
  manager.set_metrics(&metrics);

  std::vector<core::BufferId> hot;
  for (int i = 0; i < 4; ++i) {
    auto buf = manager.Allocate(MiB(2), 0);
    EXPECT_TRUE(buf.ok());
    hot.push_back(*buf);
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(manager.Allocate(MiB(2), 0).ok());  // cold, never touched
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(manager.Allocate(MiB(2), 2).ok());  // ballast on server 2
  }

  ControllerConfig loop;
  loop.period = Milliseconds(2);
  loop.min_step = MiB(1);
  loop.cooldown = Milliseconds(4);
  loop.estimator.time_constant = Milliseconds(5);

  std::unique_ptr<HierController> hier;
  std::unique_ptr<SizingController> flat;
  // Rack 0's peers run their own applications (private floors); rack 1 is
  // an idle expansion rack with strictly more slack than any rack-0 peer —
  // the bait the flat solver's cluster-wide overflow placement takes.
  const auto set_floor = [&](cluster::ServerId s, Bytes floor) {
    if (hier != nullptr) {
      hier->rack_of(s).sizing().estimator().SetPrivateFloor(s, floor);
    }
    if (flat != nullptr) flat->estimator().SetPrivateFloor(s, floor);
  };
  if (hierarchical) {
    HierConfig hc;
    hc.period = Milliseconds(2);
    hc.horizon = Milliseconds(80);
    hc.rack = loop;
    hier = std::make_unique<HierController>(
        HierController::Bindings{.sim = &sim, .manager = &manager,
                                 .topology = &topo},
        hc);
    hier->set_metrics(&metrics);
    hier->Start();
  } else {
    ControllerConfig fc = loop;
    fc.horizon = Milliseconds(80);
    flat = std::make_unique<SizingController>(
        SizingController::Bindings{.sim = &sim, .manager = &manager,
                                   .topology = &topo},
        fc);
    flat->set_metrics(&metrics);
    flat->Start();
  }
  set_floor(1, MiB(8));
  set_floor(2, MiB(8));

  constexpr SimTime kShift = Milliseconds(31);  // between controller epochs
  for (SimTime t = 0; t < Milliseconds(80); t += Milliseconds(1)) {
    sim.ScheduleAt(t, [&](SimTime now) {
      const cluster::ServerId accessor = now < kShift ? 0 : 1;
      for (const core::BufferId buf : hot) {
        auto spans = manager.Spans(buf, 0, MiB(2));
        if (!spans.ok()) continue;
        for (const core::LocatedSpan& span : *spans) {
          manager.access_tracker().RecordAccess(
              span.segment, accessor, static_cast<double>(span.bytes), now);
        }
      }
    });
  }
  // The hotspot: server 0's own application wants most of its DRAM back,
  // forcing a shrink whose drains reveal each plane's placement policy.
  sim.ScheduleAt(kShift, [&](SimTime) { set_floor(0, MiB(28)); });
  sim.Run();

  return hier != nullptr ? hier->SpineBytesMoved() : flat->stats().spine_bytes;
}

TEST(HierControllerTest, RackTierHandlesRackLocalHotspotWithoutTheSpine) {
  EXPECT_EQ(RunHotspot(/*hierarchical=*/true), 0u);
}

TEST(HierControllerTest, FlatControllerCrossesTheSpineOnTheSameHotspot) {
  EXPECT_GT(RunHotspot(/*hierarchical=*/false), 0u);
}

}  // namespace
}  // namespace lmp::ctrl::hier
