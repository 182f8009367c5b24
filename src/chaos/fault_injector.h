// FaultInjector: replays a FaultPlan against a live deployment and
// measures recovery SLOs.
//
// The injector sits across the repo's two faces (ARCHITECTURE.md): when a
// server crashes it drives the FUNCTIONAL recovery immediately —
// PoolManager::OnServerCrash failover, ReplicationManager redundancy
// restoration, XOR-erasure rebuilds — then prices the bytes those
// recoveries moved as TIMING flows on the fluid simulator's fabric.  A
// recovered segment is functionally readable at once (the paper's instant
// failover), but counts as "not yet redundant"/"unavailable" until its
// priced transfer completes, which is what time-to-redundancy and
// unavailability windows report.
//
// Recovery transfers race the plan's link degradations: a transfer whose
// endpoint is crashed or whose link bandwidth is at/below
// `kDownThreshold` retries with bounded exponential backoff before being
// abandoned.
//
// Everything is driven by sim time (timers + flow completions), so the
// same plan and seed reproduce byte-identical traces and metrics.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "chaos/fault_plan.h"
#include "cluster/cluster.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "core/erasure.h"
#include "core/pool_manager.h"
#include "core/replication.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::trace {
class TraceCollector;
}

namespace lmp::obs {
class FlightRecorder;
}

namespace lmp::chaos {

// Recovery SLOs and bookkeeping, also exported as chaos.* metrics.
struct ChaosReport {
  int crashes = 0;
  int recoveries = 0;
  int link_degrades = 0;
  int link_restores = 0;
  int segments_lost = 0;      // no replica to fail over to at crash time
  int segments_rebuilt = 0;   // erasure rebuilds whose transfer completed
  int rebuilds_abandoned = 0; // double loss or retry budget exhausted
  int replicas_recreated = 0;
  Bytes bytes_rereplicated = 0;  // replication + erasure recovery traffic
  int transfer_retries = 0;
  // Max over recovery windows of (last recovery transfer done - crash).
  SimTime max_time_to_redundancy = 0;
  // Summed unavailability across watched buffers; windows still open are
  // closed at the report's query time.
  SimTime total_unavailability = 0;
  int buffers_affected = 0;
  // Bytes served by degraded ports while degraded.
  double degraded_bytes_served = 0;
};

class FaultInjector {
 public:
  // Retry-with-backoff bound for recovery transfers racing a degradation
  // window: attempt, then retry after backoff, 2x backoff, 4x backoff, ...
  // up to kMaxTransferRetries retries before the transfer is abandoned.
  static constexpr int kMaxTransferRetries = 4;
  static constexpr SimTime kRetryBackoff = Milliseconds(1);
  // A link whose bandwidth multiplier is at/below this is treated as down
  // for new recovery transfers (starting a flow through it would still
  // "work" in the fluid model, just glacially).
  static constexpr double kDownThreshold = 0.05;

  // sim + topology are required; the rest are optional layers the injector
  // drives when present.  With no PoolManager (e.g. the physical baseline)
  // crashes only mark cluster state — pooled data on the pool box survives
  // server crashes, which is exactly the contrast bench_chaos shows.
  struct Bindings {
    sim::FluidSimulator* sim = nullptr;
    fabric::Topology* topology = nullptr;
    core::PoolManager* manager = nullptr;
    cluster::Cluster* cluster = nullptr;  // required when manager is null
    core::ReplicationManager* replication = nullptr;
    core::XorErasureManager* erasure = nullptr;
  };

  explicit FaultInjector(Bindings bindings);

  // Applies one event now (at sim->now(); the event's `at` is ignored).
  Status Apply(const FaultEvent& event);

  // Schedules every plan event on the simulator's timer queue; flaps are
  // expanded into degrade/restore pairs.  Apply errors surface on the
  // first ApplyError() query rather than aborting the run.
  Status SchedulePlan(const FaultPlan& plan);

  // Tracks a buffer's unavailability windows (time any of its segments is
  // lost or awaiting a rebuild transfer).  Logical deployments only.
  Status WatchBuffer(core::BufferId buffer);

  // Recovery transfers still in flight or awaiting retry.
  int pending_recoveries() const { return outstanding_; }

  // First error hit by a timer-driven Apply (Ok when none).
  const Status& ApplyError() const { return apply_error_; }

  // Snapshot of the SLOs at the current sim time (open unavailability
  // windows are closed at now for the copy; state is not disturbed).
  ChaosReport report() const;

  void set_trace(trace::TraceCollector* collector) { trace_ = collector; }
  void set_metrics(MetricsRegistry* registry);
  // With a recorder bound, every fault and recovery step is logged into
  // its ring, and each server crash (rack failures crash several servers,
  // snapshotting once per victim) freezes a postmortem of the events
  // leading up to it.  The recorder must outlive the injector.
  void set_flight_recorder(obs::FlightRecorder* recorder) {
    flight_ = recorder;
  }

  // Invoked after every successfully applied event (flaps notify once when
  // their degrade/restore pairs are scheduled).  The control plane
  // subscribes here to trigger out-of-band re-solves on crash/recover.
  // One listener; setting replaces the previous one.
  using EventListener = std::function<void(const FaultEvent&)>;
  void set_event_listener(EventListener listener) {
    listener_ = std::move(listener);
  }

 private:
  struct WatchedBuffer {
    Bytes size = 0;
    std::vector<core::SegmentId> segments;
    SimTime unavailable_since = -1;  // < 0: currently available
    SimTime total_unavailable = 0;
    bool ever_affected = false;
  };

  Status Dispatch(const FaultEvent& event);
  Status ApplyCrash(cluster::ServerId server);
  Status ApplyRecover(cluster::ServerId server);
  Status ApplyDegrade(const FaultEvent& event);
  Status ApplyRestore(const FaultEvent& event);

  // Functional recovery after a crash, then pricing of the moved bytes.
  Status RecoverAfterCrash(cluster::ServerId server,
                           const std::vector<core::SegmentId>& lost);
  // Starts (or schedules a retry of) one recovery transfer.
  void StartRecoveryTransfer(cluster::ServerId src, cluster::ServerId dst,
                             Bytes bytes, core::SegmentId segment,
                             int attempt);
  void FinishRecoveryTransfer(core::SegmentId segment, Bytes bytes);
  void AbandonRecoveryTransfer(core::SegmentId segment);

  bool ServerCrashed(cluster::ServerId server) const;
  cluster::Cluster* cluster_ptr() const;
  // Deterministic live source server != dst, or dst itself when none.
  cluster::ServerId PickLiveSource(cluster::ServerId dst) const;

  void OpenWindows(const std::vector<core::SegmentId>& segments);
  void MaybeCloseWindows();
  double PortBytesServed(cluster::ServerId server) const;

  sim::FluidSimulator* sim_;
  fabric::Topology* topology_;
  core::PoolManager* manager_;
  cluster::Cluster* cluster_;
  core::ReplicationManager* replication_;
  core::XorErasureManager* erasure_;

  ChaosReport report_;
  Status apply_error_;

  // Recovery-window tracking: the earliest unresolved crash opens the
  // window; it closes when no transfers remain outstanding.
  int outstanding_ = 0;
  SimTime window_start_ = -1;

  // Segments whose rebuild transfer has not completed; reads succeed
  // functionally but the buffer counts as unavailable until drained.
  std::unordered_map<core::SegmentId, Bytes> rebuilding_;

  std::unordered_map<core::BufferId, WatchedBuffer> watched_;

  // BytesServed() baseline per degraded server port, taken at degrade
  // time and folded in at restore.
  std::unordered_map<cluster::ServerId, double> degrade_baseline_;

  trace::TraceCollector* trace_ = nullptr;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
  obs::FlightRecorder* flight_ = nullptr;
  EventListener listener_;
};

}  // namespace lmp::chaos
