// RackController: the rack tier of the hierarchical control plane.
//
// Disaggregation across a whole datacenter does not survive contact with
// the spine: oversubscribed inter-rack links make "memory anywhere" cost
// what the paper's Table 1 charges for RDMA.  The hierarchical design
// keeps the paper's closed sizing loop (§5) *per rack* — each rack runs a
// scoped SizingController whose estimator, solver, drains, and migration
// never leave the rack — and reserves cross-rack moves for explicit spine
// grants issued by the GlobalCoordinator.
//
// A RackController therefore does three things:
//   * RunEpoch    — one scoped sizing epoch (delegates to the embedded
//                   SizingController; rack-local by construction).
//   * Summary     — the compressed state the coordinator prices: residual
//                   (unmet) demand, free headroom, remote-hot bytes (what
//                   a pull would localize), observed local fraction.
//   * ExecutePulls / ExecutePushes — consume a granted spine budget by
//                   migrating segments across the rack boundary, priced as
//                   DMA flows over the uplinks.
//
// Determinism: everything iterates servers and candidates in id order and
// runs off the fluid simulator's clock; no wall time or randomness.
#pragma once

#include <cstdint>

#include "common/units.h"
#include "ctrl/controller.h"

namespace lmp::ctrl::hier {

// The per-epoch digest a rack sends up to the spine coordinator — a few
// scalars instead of per-segment state, which is the point of the
// hierarchy: the global tier reasons about racks, not segments.
struct RackSummary {
  int rack = 0;
  // Demand the rack's own solve could not place (bytes).
  Bytes residual_demand = 0;
  // Free shared bytes across the rack's live servers.
  Bytes headroom = 0;
  // Bytes homed off-rack whose dominant accessor is in-rack — what a pull
  // grant would localize.
  Bytes remote_hot_bytes = 0;
  // Rack-scoped observed local fraction (traffic weighted).
  double local_fraction = 1.0;
  // False once every server in the rack is down (rack failure).
  bool alive = false;
};

struct RackStats {
  std::uint64_t pulls = 0;   // segments pulled in across the spine
  std::uint64_t pushes = 0;  // segments pushed out across the spine
  Bytes pulled_bytes = 0;
  Bytes pushed_bytes = 0;
  Bytes spine_bytes = 0;  // priced cross-rack bytes (pulls + pushes)
};

class RackController {
 public:
  // Owns servers [first, limit).  `bindings.injector` is ignored: chaos
  // events are the spine tier's to react to, and the injector has a
  // single listener slot.  `config`'s scope fields are overwritten.
  RackController(SizingController::Bindings bindings, int rack,
                 cluster::ServerId first, cluster::ServerId limit,
                 ControllerConfig config);

  RackController(const RackController&) = delete;
  RackController& operator=(const RackController&) = delete;

  int rack() const { return rack_; }
  cluster::ServerId first() const { return first_; }
  cluster::ServerId limit() const { return limit_; }

  SizingController& sizing() { return sizing_; }
  const SizingController& sizing() const { return sizing_; }

  // One rack-local sizing epoch at the simulator's current time.
  void RunEpoch(SimTime now);

  RackSummary Summary(SimTime now) const;

  // Consumes a pull grant: migrates the hottest off-rack-homed,
  // in-rack-dominated segments to their dominant accessor, up to `budget`
  // bytes, pricing each move as a DMA flow over the spine.  Returns the
  // bytes actually moved (candidates can be busy, dead, or oversized).
  Bytes ExecutePulls(SimTime now, Bytes budget);

  // Consumes a push grant toward servers [dst_first, dst_limit): moves
  // this rack's coldest mobile residents to the most-free live server
  // there, freeing room for demand the rack-local solve could not place.
  Bytes ExecutePushes(SimTime now, Bytes budget, cluster::ServerId dst_first,
                      cluster::ServerId dst_limit);

  const RackStats& stats() const { return stats_; }

  void set_metrics(MetricsRegistry* registry);

 private:
  // Prices one executed migration as a DMA flow (spine-aware accounting).
  void PriceDma(const core::Location& from, const core::Location& to,
                Bytes bytes);

  int rack_;
  cluster::ServerId first_;
  cluster::ServerId limit_;
  sim::FluidSimulator* sim_;
  core::PoolManager* manager_;
  fabric::Topology* topology_;
  SizingController sizing_;
  RackStats stats_;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
};

}  // namespace lmp::ctrl::hier
