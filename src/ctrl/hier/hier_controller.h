// HierController: the two-level control plane, assembled.
//
// One sim-time loop drives both tiers:
//
//   epoch:  [scan shared access bits once, if configured]
//           rack 0 epoch -> rack 1 epoch -> ...       (rack-local sizing)
//   every `global_every` epochs (and out-of-band on chaos events):
//           collect RackSummary per rack
//           GlobalCoordinator::Solve  ->  SpinePlan
//           execute pull grants, then push grants     (rack-id order)
//
// Rack epochs are strictly rack-local (scoped SizingControllers), so the
// only cross-rack traffic the control plane generates is what the spine
// round explicitly granted — the property bench_hier measures against the
// flat controller, whose drains and migrations wander across racks
// whenever a peer there looks attractive.
//
// Chaos: with a FaultInjector bound, server crash/recover and rack-fail
// events trigger an out-of-band epoch *with a forced spine round* through
// a zero-delay timer, so a dead rack's demand is re-homed onto survivors
// without waiting for the periodic cadence.
//
// Determinism: racks are driven in id order off the fluid simulator's
// clock; the coordinator is pure arithmetic.  Byte-identical sidecars
// across runs and `--threads=` values.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chaos/fault_injector.h"
#include "common/metrics.h"
#include "common/units.h"
#include "ctrl/controller.h"
#include "ctrl/hier/global_coordinator.h"
#include "ctrl/hier/rack_controller.h"

namespace lmp::ctrl::hier {

struct HierConfig {
  SimTime period = Milliseconds(100);
  // Stop scheduling epochs at/after this sim time (< 0: run until Stop()).
  SimTime horizon = -1;
  // Spine rounds run every N rack epochs (>= 1).  Rack tiers react fast;
  // the global tier reasons over smoothed summaries and can afford to be
  // slower — that asymmetry is the point of the hierarchy.
  int global_every = 2;
  // Template for every rack's scoped SizingController (scope fields and
  // period/horizon are overwritten per rack).
  ControllerConfig rack;
};

struct HierStats {
  std::uint64_t epochs = 0;
  std::uint64_t global_rounds = 0;
  std::uint64_t oob_resolves = 0;  // chaos-triggered spine rounds
  std::uint64_t pull_grants = 0;
  std::uint64_t push_grants = 0;
  Bytes granted_bytes = 0;  // budgets issued
  Bytes pulled_bytes = 0;   // bytes pull grants actually moved
  Bytes pushed_bytes = 0;   // bytes push grants actually moved
  double last_local_fraction = 1.0;  // cluster-wide, traffic-weighted
};

class HierController {
 public:
  struct Bindings {
    sim::FluidSimulator* sim = nullptr;        // required: clock + timers
    core::PoolManager* manager = nullptr;      // required
    fabric::Topology* topology = nullptr;      // rack map + spine pricing
    chaos::FaultInjector* injector = nullptr;  // faults => OOB spine round
  };

  // Rack boundaries come from the topology's rack shards; without a
  // topology (or with racks never assigned) the whole cluster forms one
  // rack and the controller degenerates to the flat loop plus a trivial
  // spine tier.
  HierController(Bindings bindings, HierConfig config = {});

  int num_racks() const { return static_cast<int>(racks_.size()); }
  RackController& rack(int r) { return *racks_[r]; }
  const RackController& rack(int r) const { return *racks_[r]; }
  // The rack controller owning `server`.
  RackController& rack_of(cluster::ServerId server);

  // Starts the periodic loop: first epoch at now + period.
  void Start();
  void Stop();
  bool running() const { return running_; }

  // One full epoch (all racks; spine round if due) at the simulator's
  // current time.
  void RunEpochNow();

  const HierStats& stats() const { return stats_; }
  const HierConfig& config() const { return config_; }

  // Control-plane bytes that actually crossed the spine: granted pulls
  // and pushes, plus any cross-rack drain traffic from the rack tiers
  // (zero by construction while every rack has in-rack room).
  Bytes SpineBytesMoved() const;

  // Shares one access-bit sampler across all rack estimators; the
  // controller scans it exactly once per epoch.
  void set_access_bits(core::AccessBitSampler* sampler);

  void set_metrics(MetricsRegistry* registry);
  void set_trace(trace::TraceCollector* collector);

 private:
  void ScheduleNext();
  void RunEpoch(SimTime now, bool out_of_band);
  void RunGlobalRound(SimTime now, bool out_of_band);

  sim::FluidSimulator* sim_;
  core::PoolManager* manager_;
  fabric::Topology* topology_;
  chaos::FaultInjector* injector_;
  HierConfig config_;

  // Stable addresses: rack controllers capture `this` in callbacks.
  std::vector<std::unique_ptr<RackController>> racks_;
  // Full-cluster estimator used only for ObservedLocalFraction telemetry
  // (never Estimate()d, so it carries no smoothing state).
  DemandEstimator probe_estimator_;

  bool running_ = false;
  bool epoch_scheduled_ = false;
  core::AccessBitSampler* sampler_ = nullptr;

  HierStats stats_;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
  trace::TraceCollector* trace_ = nullptr;
};

}  // namespace lmp::ctrl::hier
