// SizingController: the closed sizing loop the paper leaves open.
//
// §5 frames shared-region sizing as a *periodically solved* optimization;
// the offline SizingOptimizer solves it once and defers any shrink that
// live frames block.  The controller closes the loop as a sim-time timer:
//
//   telemetry ──> DemandEstimator ──> SizingOptimizer::Solve ──> actuate
//        ^                                                        │
//        └── drains (MigrationEngine moves, priced as DMA flows) <┘
//
// Every `period` it (1) estimates per-server demand from hotness and
// allocation watermarks, (2) re-solves, and (3) actuates with damping:
// deltas under `min_step` are ignored (hysteresis) and a server that just
// resized rests for `cooldown`, so steady demand converges to a fixed
// point instead of oscillating.  A shrink blocked by live frames becomes a
// *drain*: the stranded segments (coldest first) migrate to peers
// functionally now, the moved bytes are priced as DMA flows on the fabric,
// and the ResizeShared retries when the last flow completes — deferred
// shrinks land instead of lingering.
//
// Chaos integration: with a FaultInjector bound, server crash/recover
// events trigger an out-of-band re-solve (through a zero-delay timer, so
// the injector's own apply path never re-enters the controller), and the
// pool re-balances onto the survivors without waiting for the next epoch.
//
// Determinism: everything runs off the fluid simulator's clock, servers
// are visited in id order, and no wall time or randomness enters — the
// same scenario reproduces byte-identical ctrl.* metrics and kCtrl traces.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "chaos/fault_injector.h"
#include "common/metrics.h"
#include "common/units.h"
#include "core/migration.h"
#include "core/pool_manager.h"
#include "core/sizing.h"
#include "ctrl/demand_estimator.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::trace {
class TraceCollector;
}

namespace lmp::ctrl {

// A segment whose frames block a shared-region shrink (it holds at least
// one frame in the tail the resize would remove).
struct DrainVictim {
  core::SegmentId seg = core::kInvalidSegment;
  Bytes size = 0;
  double heat = 0;  // decayed traffic at selection time
};

// The active segments blocking a shrink of `server` to `target_bytes`:
// coldest first (they are the cheapest to lose locality on), then by
// segment id.  Empty when the shrink is already possible; target 0
// returns every active resident.
std::vector<DrainVictim> BlockedResidents(core::PoolManager& manager,
                                          cluster::ServerId server,
                                          Bytes target_bytes, SimTime now);

// The live server in [first, limit), other than `exclude`, with the most
// free shared bytes among those with at least `need` free; ties go to the
// lowest id.  Returns `exclude` when none qualifies.
cluster::ServerId MostFreePeer(const cluster::Cluster& cluster,
                               cluster::ServerId first,
                               cluster::ServerId limit,
                               cluster::ServerId exclude, Bytes need);

struct ControllerConfig {
  SimTime period = Milliseconds(100);
  // Damping: ignore resizes smaller than this (hysteresis band) and let a
  // freshly resized server rest before touching it again.
  Bytes min_step = MiB(1);
  SimTime cooldown = Milliseconds(200);
  // Stop scheduling epochs at/after this sim time (< 0: never stop).
  // Benches set it to the workload horizon so FluidSimulator::Run
  // terminates once the last flow drains.
  SimTime horizon = -1;
  // Each epoch ends with a locality-balancing round (migrations are priced
  // as DMA flows like drains).
  core::MigrationConfig migration;
  EstimatorConfig estimator;
  // Rack scope: when scope_limit > scope_first the controller manages only
  // servers [scope_first, scope_limit) — its estimator, solver, drains,
  // and migration all stay inside the range, so a hierarchical deployment
  // can run one scoped controller per rack without them fighting over
  // segments.  Default (0, 0) manages the whole cluster.  The migration
  // scope is propagated automatically when unset.
  cluster::ServerId scope_first = 0;
  cluster::ServerId scope_limit = 0;
};

struct ControllerStats {
  std::uint64_t epochs = 0;
  std::uint64_t resolves = 0;      // periodic + out-of-band solver runs
  std::uint64_t oob_resolves = 0;  // chaos-triggered subset of the above
  std::uint64_t grows = 0;
  std::uint64_t shrinks = 0;           // includes drain-completed shrinks
  std::uint64_t shrinks_partial = 0;   // drain retired above its target
  std::uint64_t shrinks_deferred = 0;  // blocked shrinks that became drains
  std::uint64_t skipped_small = 0;     // |delta| < min_step
  std::uint64_t skipped_cooldown = 0;
  std::uint64_t skipped_draining = 0;  // server had a drain in flight
  std::uint64_t drains_started = 0;
  std::uint64_t drains_completed = 0;
  std::uint64_t drains_failed = 0;  // OOM or still blocked at retry
  Bytes drain_bytes = 0;            // bytes moved by drain migrations
  Bytes resize_bytes = 0;           // |delta| summed over landed resizes
  Bytes spine_bytes = 0;  // control-plane bytes priced across racks
  Bytes last_unmet_demand = 0;
  double last_local_fraction = 1.0;  // observed, traffic-weighted
};

class SizingController {
 public:
  struct Bindings {
    sim::FluidSimulator* sim = nullptr;       // required: clock + timers
    core::PoolManager* manager = nullptr;     // required
    fabric::Topology* topology = nullptr;     // prices drain/migration DMA
    chaos::FaultInjector* injector = nullptr; // crash => out-of-band solve
  };

  SizingController(Bindings bindings, ControllerConfig config = {});

  DemandEstimator& estimator() { return estimator_; }
  const DemandEstimator& estimator() const { return estimator_; }
  core::MigrationEngine& migration_engine() { return migrator_; }

  // Starts the periodic loop: first epoch at now + period.
  void Start();

  // One epoch at the simulator's current time (tests, manual rebalances).
  void RunEpochNow();

  // Resizes `server`'s shared region to `target` bytes at the simulator's
  // current time, without the epoch's damping; each epoch actuates its
  // plan through this same step.  The resize lands now when nothing
  // blocks it; a shrink blocked by live frames starts a drain instead,
  // whose shrink retries once the displaced segments' DMA flows complete
  // (run the simulator, then read stats()).  Unavailable for a crashed
  // server, FailedPrecondition while a drain on it is in flight,
  // InvalidArgument for a target it cannot hold.
  Status Drain(cluster::ServerId server, Bytes target);

  // Drains the controller currently has in flight.
  int pending_drains() const { return static_cast<int>(drains_.size()); }

  const ControllerStats& stats() const { return stats_; }
  const ControllerConfig& config() const { return config_; }

  // Scope helpers (full cluster when the config left scope unset).
  cluster::ServerId scope_first() const { return config_.scope_first; }
  cluster::ServerId scope_limit() const {
    return config_.scope_limit > config_.scope_first
               ? config_.scope_limit
               : static_cast<cluster::ServerId>(
                     manager_->cluster().num_servers());
  }

  void set_metrics(MetricsRegistry* registry);
  void set_trace(trace::TraceCollector* collector) { trace_ = collector; }

 private:
  struct PendingDrain {
    Bytes target_bytes = 0;
    int pending_flows = 0;
    Bytes moved_bytes = 0;
    SimTime started = 0;
  };

  void ScheduleNext();
  void RunEpoch(SimTime now, bool out_of_band);
  void Actuate(const core::SizingPlan& plan, SimTime now);
  void ActuatePass(const core::SizingPlan& plan, SimTime now, bool grows);
  void BeginDrain(cluster::ServerId server, Bytes target_bytes, SimTime now);
  void FinishDrainFlow(cluster::ServerId server);
  void RetryShrink(cluster::ServerId server);
  void RunMigrationRound(SimTime now);
  void PriceTransfer(const core::Location& from, const core::Location& to,
                     Bytes bytes, cluster::ServerId drain_server);
  void ExportEpochTelemetry(const core::SizingPlan& plan, SimTime now);

  sim::FluidSimulator* sim_;
  core::PoolManager* manager_;
  fabric::Topology* topology_;
  chaos::FaultInjector* injector_;
  ControllerConfig config_;

  DemandEstimator estimator_;
  core::MigrationEngine migrator_;

  bool running_ = false;
  bool epoch_scheduled_ = false;
  std::vector<SimTime> cooldown_until_;           // per server
  std::map<cluster::ServerId, PendingDrain> drains_;  // in flight

  ControllerStats stats_;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
  trace::TraceCollector* trace_ = nullptr;
};

}  // namespace lmp::ctrl
