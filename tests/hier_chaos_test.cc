// Chaos × hierarchical control plane: a whole rack fails mid-run, the
// fault listener forces an out-of-band spine round, replica promotion
// re-homes the protected working set onto the surviving rack, and the
// survivor's rack-local loop migrates it next to its new consumer — the
// tenant's local-fraction SLO is fully attained after a short grace
// window.  Replayed (and with 8 worker threads) the scenario produces
// byte-identical metrics, trace, and SLO-ledger JSON.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "common/trace.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "ctrl/demand_estimator.h"
#include "ctrl/hier/hier_controller.h"
#include "ctrl/slo_ledger.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::ctrl::hier {
namespace {

constexpr int kPerRack = 3;
constexpr int kServers = 2 * kPerRack;
constexpr SimTime kFail = Milliseconds(60);   // rack 0 dies here
constexpr SimTime kGrace = Milliseconds(50);  // settle before SLO scoring
constexpr SimTime kEnd = Milliseconds(160);
constexpr Bytes kBufferBytes = MiB(2);

cluster::ClusterConfig Config() {
  cluster::ClusterConfig config;
  config.num_servers = kServers;
  config.server_total_memory = MiB(32);
  config.server_shared_memory = MiB(32);
  config.frame_size = KiB(64);
  config.with_backing = true;
  return config;
}

struct RunResult {
  std::string trace_json;
  std::string metrics_json;
  std::string slo_json;
  HierStats stats;
  SloAttainment tenant_slo;
  bool rack0_alive = true;
  int hot_segments_total = 0;
  int hot_segments_in_rack1 = 0;
};

// Rack 0 hosts the tenant: four replicated MiB(2) hot buffers on server 0,
// consumed locally until the whole rack fails at kFail, when the consumer
// resumes from rack 1's server 4.  Ballast on servers 1 and 2 keeps them
// strictly less free than rack 1's servers, so the most-free replica
// placement puts every copy across the spine — the failure is survivable
// by construction, and the test asserts the control plane actually
// delivers on that: an out-of-band spine round fires, the promoted
// primaries migrate next to server 4, and the tenant's local-fraction SLO
// (floor 0.6) is met on every post-grace sample.
RunResult RunRackFailScenario(int threads) {
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

  // Ballast first: replica placement is most-free-first, and rack 1 must
  // stay strictly freer than servers 1 and 2 through all eight placements
  // or a copy lands inside the failure domain it exists to escape.
  EXPECT_TRUE(manager.Allocate(MiB(8), 1).ok());
  EXPECT_TRUE(manager.Allocate(MiB(8), 2).ok());

  std::vector<core::BufferId> buffers;
  for (int i = 0; i < 4; ++i) {
    auto buf = manager.Allocate(kBufferBytes, 0);
    EXPECT_TRUE(buf.ok());
    buffers.push_back(*buf);
  }
  core::ReplicationManager replication(&manager, /*replication_factor=*/2);
  for (const core::BufferId buf : buffers) {
    EXPECT_TRUE(replication.ProtectBuffer(buf).ok());
  }

  chaos::FaultInjector injector(chaos::FaultInjector::Bindings{
      .sim = &sim, .topology = &topo, .manager = &manager});
  injector.set_trace(&collector);
  injector.set_metrics(&metrics);
  chaos::FaultPlan plan;
  plan.RackFailAt(kFail, {0, 1, 2});
  EXPECT_TRUE(injector.SchedulePlan(plan).ok());

  HierConfig hc;
  hc.period = Milliseconds(2);
  hc.horizon = kEnd;
  hc.global_every = 2;
  hc.rack.min_step = MiB(1);
  hc.rack.cooldown = Milliseconds(4);
  hc.rack.estimator.time_constant = Milliseconds(5);
  auto hier = std::make_unique<HierController>(
      HierController::Bindings{.sim = &sim,
                               .manager = &manager,
                               .topology = &topo,
                               .injector = &injector},
      hc);
  hier->set_metrics(&metrics);
  hier->set_trace(&collector);

  SloLedger ledger;
  SloTargets targets;
  targets.local_fraction_floor = 0.6;
  ledger.Register("tenant-a", targets);
  hier->Start();

  // The tenant's locality experience is its consumer's: score server 4's
  // own traffic once the post-failure grace window has elapsed.
  DemandEstimator meter(&manager);
  meter.RestrictTo(4, 5);
  for (SimTime t = 0; t < kEnd; t += Milliseconds(1)) {
    sim.ScheduleAt(t, [&](SimTime now) {
      const cluster::ServerId accessor = now < kFail ? 0 : 4;
      for (const core::BufferId buf : buffers) {
        auto spans = manager.Spans(buf, 0, kBufferBytes);
        if (!spans.ok()) continue;  // mid-failover: skip this tick
        for (const core::LocatedSpan& span : *spans) {
          manager.access_tracker().RecordAccess(
              span.segment, accessor, static_cast<double>(span.bytes), now);
        }
      }
      if (now >= kFail + kGrace) {
        const double fraction = meter.ObservedLocalFraction(now);
        ledger.RecordLocalFraction("tenant-a", fraction);
      }
    });
  }
  sim.Run();

  RunResult run;
  run.stats = hier->stats();
  run.rack0_alive = hier->rack(0).Summary(kEnd).alive;
  for (const core::BufferId buf : buffers) {
    // Copy the id list: range-for over the temporary StatusOr's member
    // would dangle in C++20.
    const std::vector<core::SegmentId> segs = manager.Describe(buf)->segments;
    for (const core::SegmentId seg : segs) {
      ++run.hot_segments_total;
      if (manager.segment_map().Find(seg)->home.server >=
          static_cast<cluster::ServerId>(kPerRack)) {
        ++run.hot_segments_in_rack1;
      }
    }
  }
  if (const SloAttainment* a = ledger.Find("tenant-a"); a != nullptr) {
    run.tenant_slo = *a;
  }
  run.trace_json = collector.ToChromeJson();
  run.metrics_json = trace::MetricsJson(metrics);
  run.slo_json = ledger.Json();
  return run;
}

TEST(HierChaosTest, RackFailureForcesSpineResolveAndRestoresSlo) {
  const RunResult run = RunRackFailScenario(1);
  // The rack-fail event reached the listener: at least one out-of-band
  // spine round ran on top of the periodic cadence.
  EXPECT_GE(run.stats.oob_resolves, 1u);
  EXPECT_GT(run.stats.epochs, run.stats.oob_resolves);
  EXPECT_FALSE(run.rack0_alive);
  // Replica promotion saved the whole protected set — every hot segment
  // is homed on the surviving rack.
  EXPECT_GT(run.hot_segments_total, 0);
  EXPECT_EQ(run.hot_segments_in_rack1, run.hot_segments_total);
  // After the grace window the tenant's SLO is not just recovering but
  // attained: every sampled local fraction cleared the 0.6 floor.
  EXPECT_GT(run.tenant_slo.local_samples, 0u);
  EXPECT_DOUBLE_EQ(run.tenant_slo.LocalAttainment(), 1.0);
  EXPECT_TRUE(run.tenant_slo.Met());
}

TEST(HierChaosTest, ReplayAndThreadSweepAreByteIdentical) {
  const RunResult a = RunRackFailScenario(1);
  const RunResult b = RunRackFailScenario(1);
  const RunResult wide = RunRackFailScenario(8);
  EXPECT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.slo_json, b.slo_json);
  EXPECT_EQ(a.trace_json, wide.trace_json);
  EXPECT_EQ(a.metrics_json, wide.metrics_json);
  EXPECT_EQ(a.slo_json, wide.slo_json);
  EXPECT_EQ(a.stats.epochs, wide.stats.epochs);
  EXPECT_EQ(a.stats.oob_resolves, wide.stats.oob_resolves);
}

}  // namespace
}  // namespace lmp::ctrl::hier
