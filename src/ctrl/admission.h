// AdmissionController: tenant admission against the sizing solver's
// headroom.
//
// The paper assumes the pool serves "high-value applications" first (§5);
// a multi-tenant deployment needs the other half of that story — deciding
// whether new demand may enter at all.  A tenant asks for a Lease of
// `bytes` pool memory at a `priority`; the controller answers one of:
//
//   * ACTIVE  — headroom covers it; the lease's demand is fed to the sizer.
//   * QUEUED  — the pool is full right now but the request fits the
//               deployment; it activates when capacity frees up.
//   * rejected (kOutOfMemory) — larger than the deployment can ever serve.
//
// Under pressure a higher-priority request preempts strictly-lower-priority
// active leases (cheapest first: lowest priority, most recently admitted);
// preempted leases fall back to the queue and re-activate when room
// returns.  When capacity shrinks (a crash, a re-solve with less slack)
// ReviewLeases() applies the same rule.
//
// The controller is policy only: it never touches the cluster.  The
// SizingController folds active leases into the demand vector and refreshes
// headroom every epoch, closing the loop.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/server.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "mem/frame_allocator.h"

namespace lmp::trace {
class TraceCollector;
}

namespace lmp::core {
struct AllocOptions;
}

namespace lmp::ctrl {

using LeaseId = std::uint64_t;
inline constexpr LeaseId kInvalidLease = 0;

struct TenantSpec {
  std::string name;
  Bytes bytes = 0;
  double priority = 1.0;
  // Server the tenant runs on (demand is attributed there); when absent
  // the controller picks the live server with the most free shared bytes.
  std::optional<cluster::ServerId> preferred;
  // Allocation-cohort mobility for the tenant's buffers: pinned tenants'
  // frames pack high and are never drain victims (latency-critical data
  // that must not move); mobile (the default) participates in compaction.
  mem::Mobility mobility = mem::Mobility::kMobile;
};

enum class LeaseState : std::uint8_t {
  kActive,    // demand is being served
  kQueued,    // waiting for headroom (new or preempted)
  kReleased,  // tenant gave it back
};

std::string_view LeaseStateName(LeaseState state);

struct Lease {
  LeaseId id = kInvalidLease;
  TenantSpec spec;
  LeaseState state = LeaseState::kQueued;
  cluster::ServerId server = 0;  // attribution point while active
};

struct AdmissionStats {
  std::uint64_t requests = 0;
  std::uint64_t admitted = 0;   // immediately active
  std::uint64_t queued = 0;     // parked at request time
  std::uint64_t rejected = 0;   // larger than the deployment
  std::uint64_t preempted = 0;  // active -> queued by a higher priority
  std::uint64_t promoted = 0;   // queued -> active
  std::uint64_t released = 0;
};

class AdmissionController {
 public:
  // `capacity` is the pool bytes the deployment could dedicate to leases
  // at best (live servers' DRAM minus private floors); the controller
  // refreshes it every epoch via UpdateHeadroom.
  explicit AdmissionController(Bytes capacity);

  // Admission decision.  Returns the lease (ACTIVE or QUEUED) or
  // kOutOfMemory when `spec.bytes` exceeds total capacity.
  StatusOr<Lease> RequestAdmission(const TenantSpec& spec);

  Status Release(LeaseId id);
  StatusOr<Lease> Get(LeaseId id) const;

  // Every lease ever requested (id order == arrival order), including
  // queued and released ones — callers filter on state.  The SLO ledger
  // walks this each epoch to score active tenants.
  const std::map<LeaseId, Lease>& leases() const { return leases_; }

  // Epoch refresh from the controller: `capacity` is the current best-case
  // lease capacity, `organic_demand` the estimator's non-lease demand.
  // Preempts active leases that no longer fit (lowest priority first) and
  // promotes queued leases into any remaining headroom (highest priority,
  // then arrival order).
  void UpdateHeadroom(Bytes capacity, Bytes organic_demand);

  // Active-lease demand per server, for the estimator (id order).
  std::vector<std::pair<cluster::ServerId, Bytes>> DemandByServer() const;

  // PoolManager allocation options for a lease: preferred server (the
  // active attribution point, else the spec's preference), the tenant's
  // cohort name ("tenant/<name>"), mobility, and priority.  This is how
  // admission identity reaches frame placement — allocate a lease's
  // buffers with `manager.Allocate(bytes, admission.AllocOptionsFor(lease))`
  // and its frames are placed by the tenant's mobility.
  core::AllocOptions AllocOptionsFor(const Lease& lease) const;

  // The server a fresh activation would be attributed to.  Injected by the
  // SizingController (it can see the cluster); identity placement
  // (preferred or server 0) when unset.
  using PlacementHint =
      std::function<cluster::ServerId(const TenantSpec& spec)>;
  void set_placement_hint(PlacementHint hint) { hint_ = std::move(hint); }

  Bytes capacity() const { return capacity_; }
  Bytes active_bytes() const;
  Bytes queued_bytes() const;
  Bytes headroom() const;  // capacity - organic - active (clamped at 0)

  const AdmissionStats& stats() const { return stats_; }

  void set_metrics(MetricsRegistry* registry);
  void set_trace(trace::TraceCollector* collector,
                 std::function<SimTime()> clock);

 private:
  bool Activate(Lease& lease);      // true when headroom covered it
  void PreemptToFit(Bytes needed, double above_priority);
  void PromoteQueued();
  void ExportGauges();
  void Emit(std::string_view what, const Lease& lease);

  Bytes capacity_;
  Bytes organic_ = 0;
  std::map<LeaseId, Lease> leases_;  // id order == arrival order
  LeaseId next_id_ = 1;
  PlacementHint hint_;
  AdmissionStats stats_;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
  trace::TraceCollector* trace_ = nullptr;
  std::function<SimTime()> clock_;
};

}  // namespace lmp::ctrl
