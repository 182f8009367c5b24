#include "ctrl/controller.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::ctrl {

namespace {

// Propagates the controller's rack scope into the migration config when
// the caller left the latter unscoped, so one scope declaration governs
// the whole loop.
core::MigrationConfig ScopedMigration(const ControllerConfig& config) {
  core::MigrationConfig m = config.migration;
  if (config.scope_limit > config.scope_first &&
      m.scope_limit <= m.scope_first) {
    m.scope_first = config.scope_first;
    m.scope_limit = config.scope_limit;
  }
  return m;
}

}  // namespace

std::vector<DrainVictim> BlockedResidents(core::PoolManager& manager,
                                          cluster::ServerId server,
                                          Bytes target_bytes, SimTime now) {
  // The shrink is blocked by segments holding frames in the region being
  // removed (the allocator trims from the tail).  Those — and only those —
  // must leave.
  const std::uint64_t target_frames = mem::FramesForBytes(
      target_bytes, manager.cluster().server(server).frame_size());
  std::vector<DrainVictim> residents;
  const core::Location here = core::Location::OnServer(server);
  // Only frames bound on this server can block its shrink, so walk its
  // frame map rather than the whole segment map.  Replicas bound here for
  // a segment homed elsewhere are not residents.
  const core::LocalFrameMap* frames = manager.FindLocalMap(here);
  if (frames == nullptr) return residents;
  frames->ForEach([&](core::SegmentId id,
                      const std::vector<mem::FrameRun>& runs) {
    const core::SegmentInfo* info = manager.segment_map().Find(id);
    if (info == nullptr || info->home != here ||
        info->state != core::SegmentState::kActive) {
      return;
    }
    for (const mem::FrameRun& run : runs) {
      if (run.end() > target_frames) {
        residents.push_back(DrainVictim{
            id, info->size, manager.access_tracker().TotalBytes(id, now)});
        return;
      }
    }
  });
  // Tie-break on segment id: ForEach order is hash-map order, and the
  // drain sequence feeds deterministic traces.
  std::sort(residents.begin(), residents.end(),
            [](const DrainVictim& a, const DrainVictim& b) {
              return std::tie(a.heat, a.seg) < std::tie(b.heat, b.seg);
            });
  return residents;
}

cluster::ServerId MostFreePeer(const cluster::Cluster& cluster,
                               cluster::ServerId first,
                               cluster::ServerId limit,
                               cluster::ServerId exclude, Bytes need) {
  cluster::ServerId best = exclude;
  Bytes best_free = 0;
  for (cluster::ServerId id = first; id < limit; ++id) {
    if (id == exclude || cluster.server(id).crashed()) continue;
    const Bytes free = cluster.server(id).shared_allocator().free_bytes();
    if (free >= need && free > best_free) {
      best = id;
      best_free = free;
    }
  }
  return best;
}

SizingController::SizingController(Bindings bindings, ControllerConfig config)
    : sim_(bindings.sim),
      manager_(bindings.manager),
      topology_(bindings.topology),
      injector_(bindings.injector),
      config_(config),
      estimator_(bindings.manager, config.estimator),
      migrator_(bindings.manager, ScopedMigration(config)) {
  LMP_CHECK(sim_ != nullptr);
  LMP_CHECK(manager_ != nullptr);
  LMP_CHECK(config_.period > 0);
  LMP_CHECK(config_.cooldown >= 0);
  if (config_.scope_limit > config_.scope_first) {
    estimator_.RestrictTo(config_.scope_first, config_.scope_limit);
  }
  cooldown_until_.assign(manager_->cluster().num_servers(), -1.0);
  if (injector_ != nullptr) {
    injector_->set_event_listener([this](const chaos::FaultEvent& event) {
      if (!running_) return;
      switch (event.kind) {
        case chaos::FaultKind::kServerCrash:
        case chaos::FaultKind::kServerRecover:
        case chaos::FaultKind::kRackFail:
          // Defer through a zero-delay timer: the injector is mid-Apply
          // (possibly inside its own timer callback) and the re-solve
          // must not run from inside its call stack.
          sim_->ScheduleAfter(0, [this](SimTime t) {
            if (!running_) return;
            ++stats_.oob_resolves;
            metrics_->Increment("ctrl.oob_resolves");
            RunEpoch(t, /*out_of_band=*/true);
          });
          break;
        default:
          break;  // link events change rates, not capacity
      }
    });
  }
}

void SizingController::set_metrics(MetricsRegistry* registry) {
  LMP_CHECK(registry != nullptr);
  metrics_ = registry;
}

void SizingController::Start() {
  if (running_) return;
  running_ = true;
  metrics_->Increment("ctrl.starts");
  ScheduleNext();
}

void SizingController::ScheduleNext() {
  if (!running_ || epoch_scheduled_) return;
  const SimTime next = sim_->now() + config_.period;
  if (config_.horizon >= 0 && next > config_.horizon) {
    running_ = false;
    return;
  }
  epoch_scheduled_ = true;
  sim_->ScheduleAt(next, [this](SimTime t) {
    epoch_scheduled_ = false;
    RunEpoch(t, /*out_of_band=*/false);
    ScheduleNext();
  });
}

void SizingController::RunEpochNow() {
  RunEpoch(sim_->now(), /*out_of_band=*/false);
}

void SizingController::RunEpoch(SimTime now, bool out_of_band) {
  ++stats_.epochs;
  metrics_->Increment("ctrl.epochs");

  // (1) Estimate + solve.
  std::vector<core::ServerDemand> demands = estimator_.Estimate(now);
  const core::SizingPlan plan =
      core::SizingOptimizer::Solve(manager_->cluster(), std::move(demands));
  ++stats_.resolves;
  metrics_->Increment("ctrl.resolves");

  // (2) Actuate with damping, turning blocked shrinks into drains.
  Actuate(plan, now);

  // (3) Locality balancing rides the same epoch.
  RunMigrationRound(now);

  ExportEpochTelemetry(plan, now);
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kCtrl,
                    out_of_band ? "ctrl_oob_epoch" : "ctrl_epoch", now,
                    {trace::Arg("epoch", stats_.epochs),
                     trace::Arg("unmet", plan.unmet_demand),
                     trace::Arg("local_fraction", stats_.last_local_fraction),
                     trace::Arg("pending_drains",
                                static_cast<std::uint64_t>(drains_.size()))});
  }
}

void SizingController::Actuate(const core::SizingPlan& plan, SimTime now) {
  // Grows land first: a shrink's drain needs somewhere for the displaced
  // frames to go, and the grow that creates that room is usually part of
  // the same plan (the demand that left one server arrived at another).
  ActuatePass(plan, now, /*grows=*/true);
  ActuatePass(plan, now, /*grows=*/false);
}

void SizingController::ActuatePass(const core::SizingPlan& plan, SimTime now,
                                   bool grows) {
  cluster::Cluster& cluster = manager_->cluster();
  for (const auto& entry : plan.entries) {
    auto& srv = cluster.server(entry.server);
    if (srv.crashed()) continue;
    const Bytes current = srv.shared_bytes();
    const Bytes target = entry.shared_bytes;
    if (target == current || (target > current) != grows) continue;
    if (drains_.count(entry.server) > 0) {
      ++stats_.skipped_draining;
      metrics_->Increment("ctrl.skipped_draining");
      continue;
    }
    const Bytes delta = target > current ? target - current : current - target;
    if (delta < config_.min_step) {
      ++stats_.skipped_small;
      metrics_->Increment("ctrl.skipped_small");
      continue;
    }
    if (cooldown_until_[entry.server] >= 0 &&
        now < cooldown_until_[entry.server]) {
      ++stats_.skipped_cooldown;
      metrics_->Increment("ctrl.skipped_cooldown");
      continue;
    }

    // Anything but a landed resize or a drain (bad target) is a solver
    // bug worth surfacing loudly.
    const Status st = Drain(entry.server, target);
    LMP_CHECK(st.ok()) << "resize of server " << entry.server
                       << " failed: " << st.ToString();
  }
}

Status SizingController::Drain(cluster::ServerId server, Bytes target) {
  cluster::Cluster& cluster = manager_->cluster();
  if (server >= static_cast<cluster::ServerId>(cluster.num_servers())) {
    return InvalidArgumentError("unknown server");
  }
  if (cluster.server(server).crashed()) {
    return UnavailableError("server is crashed");
  }
  if (drains_.count(server) > 0) {
    return FailedPreconditionError("a drain is already in flight");
  }
  const SimTime now = sim_->now();
  auto& srv = cluster.server(server);
  const Bytes current = srv.shared_bytes();
  const Status st = srv.ResizeShared(target);
  if (st.ok()) {
    if (target > current) {
      ++stats_.grows;
      metrics_->Increment("ctrl.grows");
    } else {
      ++stats_.shrinks;
      metrics_->Increment("ctrl.shrinks");
    }
    const Bytes delta = target > current ? target - current : current - target;
    stats_.resize_bytes += delta;
    metrics_->Increment("ctrl.resize_bytes", delta);
    cooldown_until_[server] = now + config_.cooldown;
    if (trace_ != nullptr) {
      trace_->Instant(trace::Category::kCtrl, "resize", now,
                      {trace::Arg("server", server),
                       trace::Arg("from", current),
                       trace::Arg("to", target)});
    }
    return Status::Ok();
  }
  if (!IsFailedPrecondition(st)) return st;
  // Live frames in the way: the §5 answer is a drain, not a deferral.
  ++stats_.shrinks_deferred;
  metrics_->Increment("ctrl.shrinks_deferred");
  BeginDrain(server, target, now);
  return Status::Ok();
}

void SizingController::PriceTransfer(const core::Location& from,
                                     const core::Location& to, Bytes bytes,
                                     cluster::ServerId drain_server) {
  const bool track = drain_server != cluster::ServerId(-1);
  if (topology_ == nullptr || from.is_pool() || to.is_pool() ||
      from.server == to.server) {
    // No fabric model (or an intra-host copy): free, but a tracked drain
    // still needs its completion signal — defer it through a zero-delay
    // flow so retry ordering matches the priced case.
    if (track) {
      sim_->StartFlow(0, {}, [this, drain_server](sim::FlowId f, SimTime) {
        (void)sim_->ReleaseRecord(f);
        FinishDrainFlow(drain_server);
      });
    }
    return;
  }
  if (topology_->CrossRack(from.server, to.server)) {
    // Control-plane bytes that cross the spine — the quantity the
    // hierarchical design exists to minimize.
    stats_.spine_bytes += bytes;
    metrics_->Increment("ctrl.spine_bytes", bytes);
  }
  sim_->StartFlow(static_cast<double>(bytes),
                  topology_->DmaRemotePath(from.server, to.server),
                  [this, drain_server, track](sim::FlowId f, SimTime) {
                    (void)sim_->ReleaseRecord(f);
                    if (track) FinishDrainFlow(drain_server);
                  });
}

void SizingController::BeginDrain(cluster::ServerId server,
                                  Bytes target_bytes, SimTime now) {
  const std::vector<DrainVictim> victims =
      BlockedResidents(*manager_, server, target_bytes, now);
  cluster::Cluster& cluster = manager_->cluster();

  PendingDrain drain;
  drain.target_bytes = target_bytes;
  drain.started = now;
  std::vector<core::MigrationRecord> records;
  bool failed = false;
  for (const DrainVictim& v : victims) {
    // Placement, best first:
    //  1. The victim's dominant accessor, when it is a live peer with room
    //     — the drain then doubles as a locality migration.
    //  2. Compaction below the cut on the draining server itself — right
    //     when the drainer IS the dominant accessor (exiling the segment
    //     would just make the migrator haul it back next epoch) or when
    //     the shrink is blocked by fragmentation alone.
    //  3. The live peer with the most free shared bytes.
    cluster::ServerId dest = server;
    core::AccessTracker::DominantAccessor dom;
    if (manager_->access_tracker().Dominant(v.seg, now, &dom) &&
        dom.server != server && dom.server >= scope_first() &&
        dom.server < scope_limit() &&
        !cluster.server(dom.server).crashed() &&
        cluster.server(dom.server).shared_allocator().free_bytes() >=
            v.size) {
      dest = dom.server;
    }
    if (dest == server) {
      auto rec_or = manager_->CompactSegment(v.seg, target_bytes);
      if (rec_or.ok()) {
        if (rec_or->bytes > 0) {
          records.push_back(*rec_or);
          drain.moved_bytes += rec_or->bytes;
        }
        continue;
      }
      if (IsFailedPrecondition(rec_or.status())) continue;  // busy
      // No room below the cut: fall through to the most-free in-scope
      // peer (a scoped controller drains within its rack; off-rack room
      // is the spine coordinator's to grant).
      dest = MostFreePeer(cluster, scope_first(), scope_limit(), server,
                          v.size);
    }
    if (dest == server) {
      // Nobody can absorb the displaced bytes.
      if (trace_ != nullptr) {
        trace_->Instant(trace::Category::kCtrl, "drain_oom", now,
                        {trace::Arg("server", server),
                         trace::Arg("segment", v.seg)});
      }
      failed = true;
      break;
    }
    auto rec_or = manager_->MigrateSegment(v.seg, dest);
    if (!rec_or.ok()) {
      if (IsFailedPrecondition(rec_or.status())) continue;  // busy; next epoch
      failed = true;
      break;
    }
    records.push_back(*rec_or);
    drain.moved_bytes += rec_or->bytes;
  }

  if (failed) {
    // Give up on this drain.  Segments already moved stay moved, so their
    // bytes still cost fabric time and count as drained; the next epoch
    // re-solves from the new occupancy.
    ++stats_.drains_failed;
    metrics_->Increment("ctrl.drains_failed");
    if (drain.moved_bytes > 0) {
      stats_.drain_bytes += drain.moved_bytes;
      metrics_->Increment("ctrl.drain_bytes", drain.moved_bytes);
    }
    for (const core::MigrationRecord& rec : records) {
      PriceTransfer(rec.from, rec.to, rec.bytes, cluster::ServerId(-1));
    }
    return;
  }

  ++stats_.drains_started;
  stats_.drain_bytes += drain.moved_bytes;
  metrics_->Increment("ctrl.drains_started");
  metrics_->Increment("ctrl.drain_bytes", drain.moved_bytes);
  if (trace_ != nullptr) {
    trace_->Begin(trace::Category::kCtrl, "drain", server, now,
                  {trace::Arg("server", server),
                   trace::Arg("target", target_bytes),
                   trace::Arg("segments",
                              static_cast<std::uint64_t>(records.size())),
                   trace::Arg("bytes", drain.moved_bytes)});
  }

  // Price the moved bytes as DMA flows; the shrink retries when the last
  // one completes.  A drain that needed no migrations (every blocker was
  // busy) still defers its retry through one zero-byte flow.
  drain.pending_flows = static_cast<int>(records.empty() ? 1 : records.size());
  drains_[server] = drain;
  if (records.empty()) {
    PriceTransfer(core::Location::OnServer(server),
                  core::Location::OnServer(server), 0, server);
  } else {
    for (const core::MigrationRecord& rec : records) {
      PriceTransfer(rec.from, rec.to, rec.bytes, server);
    }
  }
}

void SizingController::FinishDrainFlow(cluster::ServerId server) {
  auto it = drains_.find(server);
  if (it == drains_.end()) return;
  if (--it->second.pending_flows > 0) return;
  RetryShrink(server);
}

void SizingController::RetryShrink(cluster::ServerId server) {
  const PendingDrain drain = drains_.at(server);
  drains_.erase(server);
  const SimTime now = sim_->now();
  auto& srv = manager_->cluster().server(server);
  const Bytes current = srv.shared_bytes();
  Status st = srv.crashed() ? UnavailableError("server crashed mid-drain")
                            : srv.ResizeShared(drain.target_bytes);
  bool partial = false;
  if (!st.ok() && !srv.crashed()) {
    // Frames still sit past the cut (stragglers the drain could not place,
    // or fresh allocations).  Shrink as far as the highest live frame lets
    // us rather than surrendering the whole delta; the next epoch
    // re-solves from there.
    const Bytes feasible =
        srv.shared_allocator().HighestAllocatedEnd() * srv.frame_size();
    if (feasible > drain.target_bytes && feasible < current) {
      st = srv.ResizeShared(feasible);
      partial = st.ok();
    }
  }
  if (st.ok()) {
    ++stats_.shrinks;
    ++stats_.drains_completed;
    const Bytes landed = current - srv.shared_bytes();
    stats_.resize_bytes += landed;
    metrics_->Increment("ctrl.shrinks");
    metrics_->Increment("ctrl.drains_completed");
    metrics_->RecordValue("ctrl.drain_duration_ns",
                          static_cast<std::uint64_t>(now - drain.started));
    if (partial) {
      ++stats_.shrinks_partial;
      metrics_->Increment("ctrl.shrinks_partial");
    }
    metrics_->Increment("ctrl.resize_bytes", landed);
    cooldown_until_[server] = now + config_.cooldown;
  } else {
    // New allocations landed in the tail while the drain was in flight
    // (or the server died).  The next epoch re-solves and may drain again.
    ++stats_.drains_failed;
    metrics_->Increment("ctrl.drains_failed");
  }
  if (trace_ != nullptr) {
    trace_->End(trace::Category::kCtrl, "drain", server, now);
    trace_->Instant(trace::Category::kCtrl,
                    st.ok() ? "drain_done" : "drain_retry_blocked", now,
                    {trace::Arg("server", server),
                     trace::Arg("bytes", drain.moved_bytes),
                     trace::Arg("elapsed_ns", now - drain.started)});
  }
}

void SizingController::RunMigrationRound(SimTime now) {
  std::vector<core::MigrationRecord> records;
  const core::MigrationRoundStats round =
      migrator_.RunOnce(now, &records).value_or(core::MigrationRoundStats{});
  metrics_->Increment("ctrl.migrations",
                      static_cast<std::uint64_t>(round.migrated));
  metrics_->Increment("ctrl.migration_bytes", round.bytes_moved);
  metrics_->RecordValue("ctrl.migration_round_segments",
                        static_cast<std::uint64_t>(round.migrated));
  for (const core::MigrationRecord& rec : records) {
    PriceTransfer(rec.from, rec.to, rec.bytes, cluster::ServerId(-1));
  }
}

void SizingController::ExportEpochTelemetry(const core::SizingPlan& plan,
                                            SimTime now) {
  stats_.last_unmet_demand = plan.unmet_demand;
  stats_.last_local_fraction = estimator_.ObservedLocalFraction(now);
  metrics_->SetGauge("ctrl.unmet_demand",
                     static_cast<double>(plan.unmet_demand));
  metrics_->SetGauge("ctrl.local_fraction", stats_.last_local_fraction);
  metrics_->SetGauge("ctrl.planned_local_fraction", plan.LocalFraction());
  metrics_->SetGauge("ctrl.pending_drains",
                     static_cast<double>(drains_.size()));
}

}  // namespace lmp::ctrl
