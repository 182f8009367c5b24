#include "ctrl/hier/rack_controller.h"

#include "common/logging.h"

namespace lmp::ctrl::hier {

namespace {

SizingController::Bindings RackBindings(SizingController::Bindings b) {
  b.injector = nullptr;  // chaos reactions belong to the spine tier
  return b;
}

ControllerConfig RackScope(ControllerConfig c, cluster::ServerId first,
                           cluster::ServerId limit) {
  c.scope_first = first;
  c.scope_limit = limit;
  return c;
}

}  // namespace

RackController::RackController(SizingController::Bindings bindings, int rack,
                               cluster::ServerId first,
                               cluster::ServerId limit,
                               ControllerConfig config)
    : rack_(rack),
      first_(first),
      limit_(limit),
      sim_(bindings.sim),
      manager_(bindings.manager),
      topology_(bindings.topology),
      sizing_(RackBindings(bindings), RackScope(config, first, limit)) {
  LMP_CHECK(first < limit) << "empty rack";
}

void RackController::set_metrics(MetricsRegistry* registry) {
  LMP_CHECK(registry != nullptr);
  metrics_ = registry;
  sizing_.set_metrics(registry);
}

void RackController::RunEpoch(SimTime now) {
  LMP_CHECK(sim_->now() == now) << "rack epochs run on the driver's clock";
  sizing_.RunEpochNow();
}

RackSummary RackController::Summary(SimTime now) const {
  RackSummary s;
  s.rack = rack_;
  s.residual_demand = sizing_.stats().last_unmet_demand;
  const cluster::Cluster& cluster = manager_->cluster();
  for (cluster::ServerId id = first_; id < limit_; ++id) {
    if (cluster.server(id).crashed()) continue;
    s.alive = true;
    s.headroom += cluster.server(id).shared_allocator().free_bytes();
  }
  s.remote_hot_bytes = sizing_.estimator().RemoteHotBytes(now);
  s.local_fraction = sizing_.estimator().ObservedLocalFraction(now);
  return s;
}

void RackController::PriceDma(const core::Location& from,
                              const core::Location& to, Bytes bytes) {
  if (topology_ == nullptr || from.is_pool() || to.is_pool() ||
      from.server == to.server || bytes == 0) {
    return;
  }
  if (topology_->CrossRack(from.server, to.server)) {
    stats_.spine_bytes += bytes;
    metrics_->Increment("hier.spine_bytes", bytes);
  }
  sim_->StartFlow(static_cast<double>(bytes),
                  topology_->DmaRemotePath(from.server, to.server),
                  [this](sim::FlowId f, SimTime) {
                    (void)sim_->ReleaseRecord(f);
                  });
}

Bytes RackController::ExecutePulls(SimTime now, Bytes budget) {
  Bytes moved = 0;
  const cluster::Cluster& cluster = manager_->cluster();
  for (const DemandEstimator::PullCandidate& c :
       sizing_.estimator().PullCandidates(now)) {
    if (moved + c.size > budget) continue;  // try smaller candidates
    if (cluster.server(c.dst).crashed()) continue;
    if (cluster.server(c.dst).shared_allocator().free_bytes() < c.size) {
      continue;
    }
    auto rec_or = manager_->MigrateSegment(c.seg, c.dst);
    if (!rec_or.ok()) continue;  // busy or OOM: next candidate
    ++stats_.pulls;
    moved += rec_or->bytes;
    PriceDma(rec_or->from, rec_or->to, rec_or->bytes);
  }
  stats_.pulled_bytes += moved;
  metrics_->Increment("hier.pulled_bytes", moved);
  return moved;
}

Bytes RackController::ExecutePushes(SimTime now, Bytes budget,
                                    cluster::ServerId dst_first,
                                    cluster::ServerId dst_limit) {
  Bytes moved = 0;
  cluster::Cluster& cluster = manager_->cluster();
  for (cluster::ServerId src = first_; src < limit_; ++src) {
    if (moved >= budget) break;
    if (cluster.server(src).crashed()) continue;
    // All residents of `src`, coldest first — the cheapest segments to
    // exile across the spine.
    for (const DrainVictim& v : BlockedResidents(*manager_, src, 0, now)) {
      if (moved + v.size > budget) continue;
      const cluster::ServerId dest =
          MostFreePeer(cluster, dst_first, dst_limit, src, v.size);
      if (dest == src) continue;  // destination rack cannot absorb it
      auto rec_or = manager_->MigrateSegment(v.seg, dest);
      if (!rec_or.ok()) continue;  // busy: next victim
      ++stats_.pushes;
      moved += rec_or->bytes;
      PriceDma(rec_or->from, rec_or->to, rec_or->bytes);
    }
  }
  stats_.pushed_bytes += moved;
  metrics_->Increment("hier.pushed_bytes", moved);
  return moved;
}

}  // namespace lmp::ctrl::hier
