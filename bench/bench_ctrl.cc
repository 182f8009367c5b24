// Control-plane bench (§5 "Sizing the shared regions", closed-loop): a
// demand shift mid-run — the tenant traffic moves from server 0 to server
// 1 while server 0's own application grows and wants its memory back.
//
//   * closed-loop: lmp::ctrl re-estimates demand every 5ms, re-solves the
//     sizing optimization, drains server 0's stranded frames to peers
//     (priced as DMA flows), lands the deferred shrink, and the migrator
//     moves the hot working set next to the new consumer.  The observed
//     local fraction recovers to within a small tolerance of what a fresh
//     offline solve of the *final* demand achieves.
//   * static: the t=0 layout is frozen (the paper's one-shot sizing);
//     after the shift every tenant access is remote and server 0's grown
//     application is stuck behind pool frames it cannot reclaim.
//   * physical pool: nothing to control — pooled data lives on the box, so
//     the local fraction is 0 before and after the shift by construction
//     (reported analytically; there is no sizing lever to simulate).
//
// The crash variants replay the same shift with server 3 crashing
// mid-epoch and recovering 40ms later; the chaos listener triggers
// out-of-band re-solves so capacity leaves and rejoins the plan without
// waiting for the next period.
//
// Deterministic: pure sim time, no RNG — stdout, --trace-out and
// --metrics-out are byte-identical across runs.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_injector.h"
#include "chaos/fault_plan.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/table.h"
#include "common/trace.h"
#include "core/pool_manager.h"
#include "ctrl/controller.h"
#include "ctrl/slo_ledger.h"
#include "fabric/topology.h"
#include "obs/time_series.h"
#include "sim/fluid.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

constexpr int kServers = 4;
constexpr Bytes kServerMem = MiB(64);
constexpr Bytes kFrame = KiB(64);
constexpr int kBuffers = 12;
constexpr Bytes kBufferBytes = MiB(2);

constexpr SimTime kTick = Milliseconds(2);
constexpr SimTime kShift = Milliseconds(80);
constexpr SimTime kEnd = Milliseconds(300);

struct Scenario {
  std::string label;
  bool closed_loop = true;
  bool crash = false;
};

struct Outcome {
  double local_fraction = 0;   // observed at kEnd, traffic-weighted
  double fresh_optimum = 0;    // LocalFraction of a fresh solve at kEnd
  ctrl::ControllerStats stats; // zero-initialised when no controller ran
};

// One tick of tenant traffic from `accessor`: touch every buffer (feeding
// the hotness tracker) and price any remote span as a DMA flow.
void Touch(sim::FluidSimulator& sim, fabric::Topology& topo,
           core::PoolManager& manager,
           const std::vector<core::BufferId>& buffers,
           cluster::ServerId accessor) {
  for (const core::BufferId buf : buffers) {
    auto spans = manager.Spans(buf, 0, kBufferBytes);
    if (!spans.ok()) continue;  // crashed home: tenant skips this tick
    for (const core::LocatedSpan& span : *spans) {
      manager.access_tracker().RecordAccess(
          span.segment, accessor, static_cast<double>(span.bytes),
          sim.now());
      if (!span.location.is_pool() && span.location.server != accessor) {
        sim.StartFlow(static_cast<double>(span.bytes),
                      topo.DmaRemotePath(accessor, span.location.server),
                      [&sim](sim::FlowId f, SimTime) {
                        (void)sim.ReleaseRecord(f);
                      });
      }
    }
  }
}

// `keep` receives the scenario's time-series recorder (when requested) so
// its samples survive this function's simulator.
Outcome Run(const Scenario& scenario, trace::TraceCollector* trace,
            bool want_series,
            std::vector<std::unique_ptr<obs::TimeSeriesRecorder>>* keep) {
  sim::FluidSimulator sim;
  // Flow durations (tenant DMA + drains) land in the global registry's
  // "fluid.flow_duration_ns" histogram — visible only via --metrics-out.
  sim.set_metrics(&MetricsRegistry::Global());
  cluster::ClusterConfig config;
  config.num_servers = kServers;
  config.server_total_memory = kServerMem;
  config.server_shared_memory = kServerMem;
  config.frame_size = kFrame;
  config.with_backing = true;
  auto topo = fabric::Topology::MakeLogical(&sim, kServers,
                                            fabric::LinkProfile::Link1());
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);
  // Phase traffic must outlive a few ticks but clear within a phase, so
  // the dominant accessor follows the shift.
  manager.access_tracker().set_half_life(Milliseconds(50));

  if (trace != nullptr) {
    trace->BeginProcess(scenario.label);
    trace->set_clock([&sim] { return sim.now(); });
    sim.set_trace(trace);
    manager.set_trace(trace);
  }

  chaos::FaultInjector injector(chaos::FaultInjector::Bindings{
      .sim = &sim, .topology = &topo, .manager = &manager});
  if (trace != nullptr) injector.set_trace(trace);
  if (scenario.crash) {
    chaos::FaultPlan plan;
    plan.CrashAt(Milliseconds(120), 3).RecoverAt(Milliseconds(160), 3);
    LMP_CHECK_OK(injector.SchedulePlan(plan));
  }

  // The tenant working set, produced on server 0.
  std::vector<core::BufferId> buffers;
  for (int i = 0; i < kBuffers; ++i) {
    auto buf = manager.Allocate(kBufferBytes, 0);
    LMP_CHECK(buf.ok());
    buffers.push_back(*buf);
  }

  ctrl::ControllerConfig ctrl_config;
  ctrl_config.period = Milliseconds(5);
  ctrl_config.min_step = MiB(1);
  ctrl_config.cooldown = Milliseconds(10);
  ctrl_config.horizon = kEnd;
  ctrl_config.estimator.time_constant = Milliseconds(10);
  // Size regions 25% above measured demand: the slack is what lets the
  // last stranded segment land next to its consumer instead of ping-
  // ponging through a packed region.
  ctrl_config.estimator.headroom_factor = 1.25;
  ctrl::SizingController controller(
      ctrl::SizingController::Bindings{.sim = &sim,
                                       .manager = &manager,
                                       .topology = &topo,
                                       .injector = &injector},
      ctrl_config);
  for (int s = 0; s < kServers; ++s) {
    controller.estimator().SetPrivateFloor(static_cast<cluster::ServerId>(s),
                                           MiB(8));
  }
  if (trace != nullptr) controller.set_trace(trace);
  if (scenario.closed_loop) controller.Start();

  // Opt-in telemetry sampling (--series-out=): snapshot controller and
  // fabric state every tick on the sim's own timer wheel.  The probes read
  // simulation state only, so the sidecar is byte-identical across runs.
  std::unique_ptr<obs::TimeSeriesRecorder> recorder;
  if (want_series) {
    obs::TimeSeriesRecorder::Config rc;
    rc.interval = kTick;
    rc.horizon = kEnd;
    rc.prefix = scenario.label + "/";
    recorder = std::make_unique<obs::TimeSeriesRecorder>(&sim, rc);
    recorder->AddGauge("local_fraction", [&controller, &sim] {
      return controller.estimator().ObservedLocalFraction(sim.now());
    });
    recorder->AddGauge("pending_drains", [&controller] {
      return static_cast<double>(controller.pending_drains());
    });
    recorder->AddCounter("ctrl.epochs", [&controller] {
      return controller.stats().epochs;
    });
    recorder->AddCounter("ctrl.resize_bytes", [&controller] {
      return controller.stats().resize_bytes;
    });
    for (int s = 0; s < kServers; ++s) {
      recorder->AddGauge("util.s" + std::to_string(s) + ".port",
                         [&sim, &topo, s] {
                           return sim.Utilization(topo.port(
                               static_cast<fabric::ServerIndex>(s)));
                         });
    }
    recorder->Start();
  }

  // Tenant ticks: server 0 until the shift, server 1 after.
  for (SimTime t = 0; t < kEnd; t += kTick) {
    sim.ScheduleAt(t, [&, t](SimTime now) {
      const cluster::ServerId accessor = now < kShift ? 0 : 1;
      Touch(sim, topo, manager, buffers, accessor);
      (void)t;
    });
  }
  // The shift: server 0's own application grows and wants its DRAM back.
  sim.ScheduleAt(kShift, [&](SimTime) {
    controller.estimator().SetPrivateFloor(0, MiB(48));
  });

  sim.Run();

  if (recorder != nullptr) keep->push_back(std::move(recorder));

  Outcome out;
  out.local_fraction = controller.estimator().ObservedLocalFraction(kEnd);
  out.fresh_optimum =
      core::SizingOptimizer::Solve(cluster,
                                   controller.estimator().Estimate(kEnd))
          .LocalFraction();
  if (scenario.closed_loop) out.stats = controller.stats();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  lmp::bench::TraceSidecar sidecar(lmp::bench::Args::Parse(argc, argv));
  ctrl::SloLedger* slo = sidecar.slo_ledger();
  std::vector<std::unique_ptr<obs::TimeSeriesRecorder>> recorders;
  std::printf(
      "== Control plane: demand shift (tenant 0 -> 1, app 0 grows) at "
      "t=80ms ==\n");
  lmp::TablePrinter table({"Scenario", "Local frac", "Fresh solve",
                           "Epochs", "Grows", "Shrinks", "Drains",
                           "Drained MiB", "OOB solves"});
  const std::vector<Scenario> scenarios = {
      {"logical closed-loop", true, false},
      {"logical closed-loop + crash", true, true},
      {"logical static", false, false},
      {"logical static + crash", false, true},
  };
  for (const Scenario& s : scenarios) {
    const Outcome out =
        Run(s, sidecar.collector(), sidecar.wants_series(), &recorders);
    if (slo != nullptr) {
      // Each scenario is one tenant: the SLO is holding half the traffic
      // local through the shift, which only the closed loop manages.
      ctrl::SloTargets targets;
      targets.local_fraction_floor = 0.5;
      slo->Register(s.label, targets);
      slo->RecordLocalFraction(s.label, out.local_fraction);
    }
    table.AddRow(
        {s.label, lmp::TablePrinter::Num(out.local_fraction, 3),
         lmp::TablePrinter::Num(out.fresh_optimum, 3),
         std::to_string(out.stats.epochs), std::to_string(out.stats.grows),
         std::to_string(out.stats.shrinks),
         std::to_string(out.stats.drains_completed),
         lmp::TablePrinter::Num(
             static_cast<double>(out.stats.drain_bytes) / lmp::kMiB, 1),
         std::to_string(out.stats.oob_resolves)});
  }
  // Physical pool, for contrast: pooled data lives on the box, every
  // tenant access crosses the fabric before AND after the shift, and there
  // is no per-server sizing lever for a controller to actuate — the local
  // fraction is 0 by construction (Section 4.1).
  table.AddRow({"physical pool (fixed)", lmp::TablePrinter::Num(0.0, 3),
                "-", "-", "-", "-", "-", "-", "-"});
  if (slo != nullptr) {
    ctrl::SloTargets targets;
    targets.local_fraction_floor = 0.5;
    slo->Register("physical pool (fixed)", targets);
    slo->RecordLocalFraction("physical pool (fixed)", 0.0);
  }
  for (const auto& rec : recorders) sidecar.AddSeriesRecorder(rec.get());
  table.Print();
  std::printf(
      "\nClosed-loop sizing follows the shift: the estimator re-attributes\n"
      "demand to server 1, the solver shrinks server 0 (drained, priced as\n"
      "DMA flows) and grows server 1, and migration moves the hot set next\n"
      "to its consumer — so the observed local fraction lands near the\n"
      "fresh-solve optimum.  The static layout strands the working set\n"
      "remotely; the physical pool has no sizing lever at all (Section 5).\n");
  sidecar.Flush();
  return 0;
}
