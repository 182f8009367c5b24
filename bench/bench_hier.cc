// Hierarchical control plane bench: two racks of three servers behind an
// oversubscribed spine, comparing three control planes on two scenarios.
//
// Scenario "rack hotspot": the tenant working set lives on server 0
// (rack 0) with a pile of cold buffers beside it; at t=80ms the consumer
// moves to server 1 (same rack) while server 0's own application grows
// and wants most of its DRAM back.  Everything needed to react — room on
// server 1, the new consumer there too — is inside rack 0.  But rack 0's
// peers carry private floors and ballast while rack 1 sits idle, so the
// flat solver's cluster-wide overflow placement sizes up a rack 1 region
// and the displaced bytes drain across the spine toward it.  The
// hierarchical plane's rack controller solves and places within the rack
// by construction, so the same shift converges with strictly fewer
// control-plane bytes on the spine at an equal-or-better local fraction.
//
// Scenario "rack failure": rack 0 dies at t=80ms.  Replicated tenant
// buffers fail over to rack 1; the chaos listener forces an out-of-band
// spine round whose pull grants localize the survivors' hot segments.
//
//   * hierarchical — per-rack scoped sizing + GlobalCoordinator grants.
//   * hier (access bits) — same, but demand attribution comes from the
//     shared AccessBitSampler scan instead of exact hotness counters
//     (hotspot scenario only; shows the lossy source converging too).
//   * flat — one cluster-wide SizingController (PR 5's loop).
//   * static — the t=0 layout frozen.
//
// Reported per run: final observed local fraction, control-plane bytes
// moved across the spine, total spine uplink bytes (tenant + control),
// and epochs from the disturbance until the observed local fraction
// reaches within 2% of its final value.
//
// Deterministic: pure sim time, no RNG — stdout and every sidecar are
// byte-identical across runs and --threads= values (cross-rack flows pin
// their racks' solves to the sequential spill path).
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
#include "core/access_bits.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "ctrl/controller.h"
#include "ctrl/hier/hier_controller.h"
#include "ctrl/slo_ledger.h"
#include "fabric/topology.h"
#include "obs/time_series.h"
#include "sim/fluid.h"

#include "args.h"
#include "trace_sidecar.h"

namespace {

using namespace lmp;

constexpr int kRacks = 2;
constexpr int kPerRack = 3;
constexpr int kServers = kRacks * kPerRack;
constexpr Bytes kServerMem = MiB(64);
constexpr Bytes kFrame = KiB(64);
constexpr int kHotBuffers = 8;
constexpr int kColdBuffers = 6;
constexpr int kBallastBuffers = 12;
constexpr Bytes kBufferBytes = MiB(2);

constexpr SimTime kTick = Milliseconds(2);
constexpr SimTime kShift = Milliseconds(80);
constexpr SimTime kEnd = Milliseconds(300);

enum class Plane { kHier, kHierAccessBits, kFlat, kStatic };
enum class Shape { kHotspot, kRackFail };

struct Scenario {
  std::string label;
  Plane plane = Plane::kHier;
  Shape shape = Shape::kHotspot;
};

struct Outcome {
  double local_fraction = 0;  // observed at kEnd, traffic-weighted
  Bytes ctrl_spine_bytes = 0;  // control-plane bytes priced cross-rack
  double spine_total = 0;      // uplink bytes served (tenant + control)
  int convergence_epochs = -1;  // ticks from kShift to within 2% of final
  std::uint64_t pulls = 0, pushes = 0, oob = 0;
};

// One tick of tenant traffic from `accessor`: touch every buffer (feeding
// the exact tracker AND the access-bit sampler) and price remote spans as
// DMA flows.
void Touch(sim::FluidSimulator& sim, fabric::Topology& topo,
           core::PoolManager& manager, core::AccessBitSampler& bits,
           const std::vector<core::BufferId>& buffers,
           cluster::ServerId accessor) {
  for (const core::BufferId buf : buffers) {
    auto spans = manager.Spans(buf, 0, kBufferBytes);
    if (!spans.ok()) continue;  // crashed home: tenant skips this tick
    for (const core::LocatedSpan& span : *spans) {
      manager.access_tracker().RecordAccess(
          span.segment, accessor, static_cast<double>(span.bytes),
          sim.now());
      bits.OnAccess(span.segment, accessor, 0, span.bytes);
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

Outcome Run(const Scenario& scenario, int threads,
            trace::TraceCollector* trace, bool want_series,
            std::vector<std::unique_ptr<obs::TimeSeriesRecorder>>* keep) {
  sim::FluidSimulator sim;
  sim.set_metrics(&MetricsRegistry::Global());
  sim.set_threads(threads);
  cluster::ClusterConfig config;
  config.num_servers = kServers;
  config.server_total_memory = kServerMem;
  config.server_shared_memory = kServerMem;
  config.frame_size = kFrame;
  config.with_backing = true;
  auto topo = fabric::Topology::MakeLogical(&sim, kServers,
                                            fabric::LinkProfile::Link1());
  topo.AssignRackShards(kPerRack);
  // A quarter of the edge link rate: cross-rack moves are priced like the
  // oversubscribed spine they would cross in a real deployment.
  topo.ProvisionSpine(topo.link().bandwidth / 4);
  cluster::Cluster cluster(config);
  core::PoolManager manager(&cluster);
  manager.access_tracker().set_half_life(Milliseconds(50));
  core::AccessBitSampler bits(kFrame);

  if (trace != nullptr) {
    trace->BeginProcess(scenario.label);
    trace->set_clock([&sim] { return sim.now(); });
    sim.set_trace(trace);
    manager.set_trace(trace);
  }

  chaos::FaultInjector injector(chaos::FaultInjector::Bindings{
      .sim = &sim, .topology = &topo, .manager = &manager});
  if (trace != nullptr) injector.set_trace(trace);
  if (scenario.shape == Shape::kRackFail) {
    chaos::FaultPlan plan;
    plan.RackFailAt(kShift, {0, 1, 2});
    LMP_CHECK_OK(injector.SchedulePlan(plan));
  }

  // The hot tenant working set, produced on server 0 (rack 0)...
  std::vector<core::BufferId> hot;
  for (int i = 0; i < kHotBuffers; ++i) {
    auto buf = manager.Allocate(kBufferBytes, 0);
    LMP_CHECK(buf.ok());
    hot.push_back(*buf);
  }
  // ...cold archival buffers beside it (allocated, never touched again)...
  for (int i = 0; i < kColdBuffers; ++i) {
    LMP_CHECK(manager.Allocate(kBufferBytes, 0).ok());
  }
  // ...and ballast on server 2, keeping it busy enough that the overflow
  // from server 0's reclaim cannot simply hide there: rack 0 still has
  // room (server 1), but rack 1's idle servers offer strictly more slack,
  // and that asymmetry is what pulls the flat solver across the spine.
  for (int i = 0; i < kBallastBuffers; ++i) {
    LMP_CHECK(manager.Allocate(kBufferBytes, 2).ok());
  }

  // Rack failure needs something to fail over to: protect the hot set
  // with one extra replica each (lands on peers, some in rack 1).
  core::ReplicationManager replication(&manager, /*replication_factor=*/2);
  if (scenario.shape == Shape::kRackFail) {
    for (const core::BufferId buf : hot) {
      LMP_CHECK_OK(replication.ProtectBuffer(buf));
    }
  }

  ctrl::ControllerConfig loop;
  loop.period = Milliseconds(5);
  loop.min_step = MiB(1);
  loop.cooldown = Milliseconds(10);
  loop.estimator.time_constant = Milliseconds(10);
  loop.estimator.headroom_factor = 1.25;

  const bool hier_plane = scenario.plane == Plane::kHier ||
                          scenario.plane == Plane::kHierAccessBits;
  std::unique_ptr<ctrl::hier::HierController> hier;
  std::unique_ptr<ctrl::SizingController> flat;
  if (hier_plane) {
    ctrl::hier::HierConfig hc;
    hc.period = Milliseconds(5);
    hc.horizon = kEnd;
    hc.global_every = 2;
    hc.rack = loop;
    if (scenario.plane == Plane::kHierAccessBits) {
      hc.rack.estimator.source = ctrl::DemandSource::kAccessBits;
    }
    hier = std::make_unique<ctrl::hier::HierController>(
        ctrl::hier::HierController::Bindings{.sim = &sim,
                                             .manager = &manager,
                                             .topology = &topo,
                                             .injector = &injector},
        hc);
    if (scenario.plane == Plane::kHierAccessBits) {
      hier->set_access_bits(&bits);
    }
    // Rack 0's servers run their own applications; rack 1 is an idle
    // expansion rack (no floors), leaving it strictly more slack than any
    // rack-0 peer — the bait the flat solver's overflow placement takes.
    for (int s = 0; s < kPerRack; ++s) {
      hier->rack_of(static_cast<cluster::ServerId>(s))
          .sizing()
          .estimator()
          .SetPrivateFloor(static_cast<cluster::ServerId>(s), MiB(8));
    }
    if (trace != nullptr) hier->set_trace(trace);
    hier->Start();
  } else if (scenario.plane == Plane::kFlat) {
    ctrl::ControllerConfig fc = loop;
    fc.horizon = kEnd;
    flat = std::make_unique<ctrl::SizingController>(
        ctrl::SizingController::Bindings{.sim = &sim,
                                         .manager = &manager,
                                         .topology = &topo,
                                         .injector = &injector},
        fc);
    for (int s = 0; s < kPerRack; ++s) {
      flat->estimator().SetPrivateFloor(static_cast<cluster::ServerId>(s),
                                        MiB(8));
    }
    if (trace != nullptr) flat->set_trace(trace);
    flat->Start();
  }

  // Plane-independent locality measurement (full-cluster scope).
  ctrl::DemandEstimator meter(&manager);

  std::unique_ptr<obs::TimeSeriesRecorder> recorder;
  if (want_series) {
    obs::TimeSeriesRecorder::Config rc;
    rc.interval = kTick;
    rc.horizon = kEnd;
    rc.prefix = scenario.label + "/";
    recorder = std::make_unique<obs::TimeSeriesRecorder>(&sim, rc);
    recorder->AddGauge("local_fraction", [&meter, &sim] {
      return meter.ObservedLocalFraction(sim.now());
    });
    recorder->AddGauge("spine_bytes_served",
                       [&topo] { return topo.SpineBytesServed(); });
    if (hier_plane) {
      recorder->AddCounter("hier.epochs",
                           [&hier] { return hier->stats().epochs; });
      recorder->AddCounter("hier.granted_bytes", [&hier] {
        return hier->stats().granted_bytes;
      });
    }
    recorder->Start();
  }

  // Per-tick locality samples feed the convergence-epoch count.
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(kEnd / kTick) + 1);

  // Tenant ticks: server 0 until the shift, server 1 after (rack failure
  // moves the consumer to rack 1's server 4 — the failover reader).
  for (SimTime t = 0; t < kEnd; t += kTick) {
    sim.ScheduleAt(t, [&](SimTime now) {
      cluster::ServerId accessor = 0;
      if (now >= kShift) {
        accessor = scenario.shape == Shape::kRackFail ? 4 : 1;
      }
      Touch(sim, topo, manager, bits, hot, accessor);
      samples.push_back(meter.ObservedLocalFraction(now));
    });
  }
  if (scenario.shape == Shape::kHotspot) {
    // The hotspot: server 0's own application grows and wants its DRAM
    // back, forcing a shrink whose drains reveal each plane's placement.
    sim.ScheduleAt(kShift, [&](SimTime) {
      if (hier != nullptr) {
        hier->rack_of(0).sizing().estimator().SetPrivateFloor(0, MiB(48));
      }
      if (flat != nullptr) flat->estimator().SetPrivateFloor(0, MiB(48));
    });
  }

  sim.Run();

  if (recorder != nullptr) keep->push_back(std::move(recorder));

  Outcome out;
  out.local_fraction = meter.ObservedLocalFraction(kEnd);
  out.spine_total = topo.SpineBytesServed();
  // Epochs (ticks) from the disturbance until the observed local fraction
  // first comes within 2% of its final value and stays converged.
  const auto shift_idx = static_cast<std::size_t>(kShift / kTick);
  out.convergence_epochs = -1;
  for (std::size_t i = samples.size(); i-- > shift_idx;) {
    if (samples[i] < out.local_fraction - 0.02) {
      out.convergence_epochs = static_cast<int>(i + 1 - shift_idx);
      break;
    }
  }
  if (out.convergence_epochs < 0) out.convergence_epochs = 0;
  if (hier != nullptr) {
    out.ctrl_spine_bytes = hier->SpineBytesMoved();
    out.pulls = hier->stats().pull_grants;
    out.pushes = hier->stats().push_grants;
    out.oob = hier->stats().oob_resolves;
  } else if (flat != nullptr) {
    out.ctrl_spine_bytes = flat->stats().spine_bytes;
    out.oob = flat->stats().oob_resolves;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const lmp::bench::Args args = lmp::bench::Args::Parse(argc, argv);
  lmp::bench::TraceSidecar sidecar(args);
  ctrl::SloLedger* slo = sidecar.slo_ledger();
  std::vector<std::unique_ptr<obs::TimeSeriesRecorder>> recorders;
  std::printf(
      "== Hierarchical control plane: 2 racks x 3 servers, spine at 1/4 "
      "edge rate ==\n");
  lmp::TablePrinter table({"Scenario", "Plane", "Local frac",
                           "Ctrl spine MiB", "Spine total MiB", "Conv ticks",
                           "Pulls", "Pushes", "OOB"});
  const std::vector<Scenario> scenarios = {
      {"rack hotspot", Plane::kHier, Shape::kHotspot},
      {"rack hotspot", Plane::kHierAccessBits, Shape::kHotspot},
      {"rack hotspot", Plane::kFlat, Shape::kHotspot},
      {"rack hotspot", Plane::kStatic, Shape::kHotspot},
      {"rack failure", Plane::kHier, Shape::kRackFail},
      {"rack failure", Plane::kFlat, Shape::kRackFail},
      {"rack failure", Plane::kStatic, Shape::kRackFail},
  };
  const auto plane_name = [](Plane p) {
    switch (p) {
      case Plane::kHier: return "hierarchical";
      case Plane::kHierAccessBits: return "hier (access bits)";
      case Plane::kFlat: return "flat";
      case Plane::kStatic: return "static";
    }
    return "?";
  };
  for (const Scenario& s : scenarios) {
    Scenario labeled = s;
    labeled.label = s.label + " / " + plane_name(s.plane);
    const Outcome out = Run(labeled, args.threads, sidecar.collector(),
                            sidecar.wants_series(), &recorders);
    if (slo != nullptr) {
      ctrl::SloTargets targets;
      targets.local_fraction_floor = 0.5;
      slo->Register(labeled.label, targets);
      slo->RecordLocalFraction(labeled.label, out.local_fraction);
    }
    table.AddRow(
        {s.label, plane_name(s.plane),
         lmp::TablePrinter::Num(out.local_fraction, 3),
         lmp::TablePrinter::Num(
             static_cast<double>(out.ctrl_spine_bytes) / lmp::kMiB, 2),
         lmp::TablePrinter::Num(out.spine_total / lmp::kMiB, 1),
         std::to_string(out.convergence_epochs), std::to_string(out.pulls),
         std::to_string(out.pushes), std::to_string(out.oob)});
  }
  for (const auto& rec : recorders) sidecar.AddSeriesRecorder(rec.get());
  table.Print();
  std::printf(
      "\nThe hotspot is rack-local and the hierarchy treats it that way:\n"
      "rack 0's controller drains onto its own servers, so the spine sees\n"
      "none of the control plane's bytes, while the flat controller's\n"
      "cluster-wide most-free placement hauls the cold set across the\n"
      "oversubscribed uplinks for the same final locality.  Under rack\n"
      "failure the coordinator's out-of-band pull grants localize the\n"
      "failed-over replicas without waiting for the periodic cadence.\n");
  sidecar.Flush();
  return 0;
}
