// Chaos × control plane: a server crash mid-epoch triggers an out-of-band
// re-solve, the pool re-balances onto the survivors, and the observed
// local fraction recovers to its SLO by the end of the run.  The same
// scenario replayed twice produces byte-identical ctrl.* metrics and
// kCtrl trace JSON — the controller adds no nondeterminism on top of the
// fault injector's.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "common/trace.h"
#include "core/pool_manager.h"
#include "ctrl/controller.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::ctrl {
namespace {

constexpr int kServers = 4;
constexpr SimTime kShift = Milliseconds(30);
constexpr SimTime kEnd = Milliseconds(120);
constexpr int kBuffers = 6;
constexpr Bytes kBufferBytes = MiB(1);

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
  double local_fraction = 0;
  double fresh_optimum = 0;
  ControllerStats stats;
};

// The bench_ctrl crash scenario in miniature: tenant traffic shifts from
// server 0 to server 1 at kShift, server 3 crashes at 50ms and recovers
// at 80ms, and the closed loop follows both disruptions.
RunResult RunCrashScenario() {
  sim::FluidSimulator sim;
  auto topo = fabric::Topology::MakeLogical(&sim, kServers,
                                            fabric::LinkProfile::Link1());
  cluster::Cluster cluster(Config());
  core::PoolManager manager(&cluster);
  manager.access_tracker().set_half_life(Milliseconds(20));

  RunResult run;
  trace::TraceCollector collector;
  MetricsRegistry metrics;
  collector.set_clock([&sim] { return sim.now(); });
  sim.set_trace(&collector);
  manager.set_trace(&collector);
  manager.set_metrics(&metrics);

  chaos::FaultInjector injector(chaos::FaultInjector::Bindings{
      .sim = &sim, .topology = &topo, .manager = &manager});
  injector.set_trace(&collector);
  injector.set_metrics(&metrics);
  chaos::FaultPlan plan;
  plan.CrashAt(Milliseconds(50), 3).RecoverAt(Milliseconds(80), 3);
  EXPECT_TRUE(injector.SchedulePlan(plan).ok());

  std::vector<core::BufferId> buffers;
  for (int i = 0; i < kBuffers; ++i) {
    auto buf = manager.Allocate(kBufferBytes, 0);
    EXPECT_TRUE(buf.ok());
    buffers.push_back(*buf);
  }

  ControllerConfig config;
  config.period = Milliseconds(2);
  config.cooldown = Milliseconds(4);
  config.min_step = KiB(256);
  config.horizon = kEnd;
  config.estimator.time_constant = Milliseconds(5);
  config.estimator.headroom_factor = 1.25;
  auto controller = std::make_unique<SizingController>(
      SizingController::Bindings{.sim = &sim,
                                 .manager = &manager,
                                 .topology = &topo,
                                 .injector = &injector},
      config);
  controller->set_metrics(&metrics);
  controller->set_trace(&collector);
  controller->Start();

  for (SimTime t = 0; t < kEnd; t += Milliseconds(1)) {
    sim.ScheduleAt(t, [&](SimTime now) {
      const cluster::ServerId accessor = now < kShift ? 0 : 1;
      for (const core::BufferId buf : buffers) {
        auto spans = manager.Spans(buf, 0, kBufferBytes);
        if (!spans.ok()) continue;  // crashed home: skip this tick
        for (const core::LocatedSpan& span : *spans) {
          manager.access_tracker().RecordAccess(
              span.segment, accessor, static_cast<double>(span.bytes), now);
        }
      }
    });
  }
  sim.Run();

  run.local_fraction = controller->estimator().ObservedLocalFraction(kEnd);
  run.fresh_optimum =
      core::SizingOptimizer::Solve(cluster,
                                   controller->estimator().Estimate(kEnd))
          .LocalFraction();
  run.stats = controller->stats();
  run.trace_json = collector.ToChromeJson();
  run.metrics_json = trace::MetricsJson(metrics);
  return run;
}

TEST(CtrlChaosTest, CrashTriggersOutOfBandResolveAndPoolRecovers) {
  const RunResult run = RunCrashScenario();
  // Crash and recovery each fire the chaos listener.
  EXPECT_GE(run.stats.oob_resolves, 2u);
  EXPECT_GT(run.stats.epochs, run.stats.oob_resolves);
  // The shift was followed: server 0 shrank via at least one drain and the
  // loop kept converging through the crash window.
  EXPECT_GE(run.stats.drains_completed, 1u);
  EXPECT_GE(run.stats.grows, 1u);
  // SLO: by the end of the run the observed local fraction is close to
  // what a fresh offline solve of the final demand would plan.  The
  // tolerance absorbs pre-shift traffic that was remote by construction.
  EXPECT_GE(run.fresh_optimum, 0.99);
  EXPECT_GE(run.local_fraction, run.fresh_optimum - 0.15);
}

TEST(CtrlChaosTest, ReplayIsByteIdentical) {
  const RunResult a = RunCrashScenario();
  const RunResult b = RunCrashScenario();
  EXPECT_FALSE(a.trace_json.empty());
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_DOUBLE_EQ(a.local_fraction, b.local_fraction);
  EXPECT_EQ(a.stats.resize_bytes, b.stats.resize_bytes);
  EXPECT_EQ(a.stats.drain_bytes, b.stats.drain_bytes);
  EXPECT_EQ(a.stats.epochs, b.stats.epochs);
}

}  // namespace
}  // namespace lmp::ctrl
