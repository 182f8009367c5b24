#include "chaos/fault_injector.h"

#include <algorithm>
#include <string>

#include "common/logging.h"
#include "common/trace.h"
#include "obs/flight_recorder.h"

namespace lmp::chaos {

FaultInjector::FaultInjector(Bindings bindings)
    : sim_(bindings.sim),
      topology_(bindings.topology),
      manager_(bindings.manager),
      cluster_(bindings.cluster),
      replication_(bindings.replication),
      erasure_(bindings.erasure) {
  LMP_CHECK(sim_ != nullptr);
  LMP_CHECK(topology_ != nullptr);
  LMP_CHECK(manager_ != nullptr || cluster_ != nullptr)
      << "need a PoolManager or a Cluster to crash servers";
}

void FaultInjector::set_metrics(MetricsRegistry* registry) {
  LMP_CHECK(registry != nullptr);
  metrics_ = registry;
}

cluster::Cluster* FaultInjector::cluster_ptr() const {
  return manager_ != nullptr ? &manager_->cluster() : cluster_;
}

bool FaultInjector::ServerCrashed(cluster::ServerId server) const {
  const cluster::Cluster* c = cluster_ptr();
  if (c == nullptr ||
      server >= static_cast<cluster::ServerId>(c->num_servers())) {
    return false;
  }
  return c->server(server).crashed();
}

cluster::ServerId FaultInjector::PickLiveSource(cluster::ServerId dst) const {
  const int n = topology_->num_servers();
  for (int s = 0; s < n; ++s) {
    const auto id = static_cast<cluster::ServerId>(s);
    if (id != dst && !ServerCrashed(id)) return id;
  }
  return dst;  // no live peer; caller prices the transfer as free
}

Status FaultInjector::SchedulePlan(const FaultPlan& plan) {
  for (const FaultEvent& event : plan.events()) {
    if (event.at < sim_->now()) {
      return InvalidArgumentError("plan event in the past");
    }
    sim_->ScheduleAt(event.at, [this, event](SimTime) {
      const Status st = Apply(event);
      if (!st.ok() && apply_error_.ok()) apply_error_ = st;
    });
  }
  return Status::Ok();
}

Status FaultInjector::Apply(const FaultEvent& event) {
  const Status st = Dispatch(event);
  if (st.ok() && listener_) listener_(event);
  return st;
}

Status FaultInjector::Dispatch(const FaultEvent& event) {
  switch (event.kind) {
    case FaultKind::kServerCrash:
      if (event.servers.size() != 1) {
        return InvalidArgumentError("crash wants one server");
      }
      return ApplyCrash(event.servers[0]);
    case FaultKind::kServerRecover:
      if (event.servers.size() != 1) {
        return InvalidArgumentError("recover wants one server");
      }
      return ApplyRecover(event.servers[0]);
    case FaultKind::kLinkDegrade:
      return ApplyDegrade(event);
    case FaultKind::kLinkRestore:
      return ApplyRestore(event);
    case FaultKind::kLinkFlap: {
      if (event.servers.size() != 1) {
        return InvalidArgumentError("flap wants one server");
      }
      // Expand relative to now: `count` outages of `down` every `period`.
      for (int i = 0; i < event.flap_count; ++i) {
        FaultEvent down = event;
        down.kind = FaultKind::kLinkDegrade;
        FaultEvent up = event;
        up.kind = FaultKind::kLinkRestore;
        const SimTime start =
            static_cast<SimTime>(i) * event.period_ns;
        sim_->ScheduleAfter(start, [this, down](SimTime) {
          const Status st = ApplyDegrade(down);
          if (!st.ok() && apply_error_.ok()) apply_error_ = st;
        });
        sim_->ScheduleAfter(start + event.down_ns, [this, up](SimTime) {
          const Status st = ApplyRestore(up);
          if (!st.ok() && apply_error_.ok()) apply_error_ = st;
        });
      }
      return Status::Ok();
    }
    case FaultKind::kRackFail:
      if (flight_ != nullptr) {
        flight_->Record(sim_->now(), "fault.rack",
                        std::to_string(event.servers.size()) +
                            " servers failing together");
      }
      for (cluster::ServerId s : event.servers) {
        LMP_RETURN_IF_ERROR(ApplyCrash(s));
      }
      return Status::Ok();
  }
  return InternalError("unhandled fault kind");
}

Status FaultInjector::ApplyCrash(cluster::ServerId server) {
  const SimTime now = sim_->now();
  ++report_.crashes;
  metrics_->Increment("chaos.crashes");
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kChaos, "fault_crash", now,
                    {trace::Arg("server", static_cast<std::uint64_t>(server))});
  }
  if (flight_ != nullptr) {
    flight_->Record(now, "fault.crash",
                    "server s" + std::to_string(server));
  }
  if (manager_ == nullptr) {
    // Timing-only / physical deployment: the cluster records the crash;
    // pooled data lives on the pool box and survives (the paper's §5
    // argument for why the blast radius differs between deployments).
    const Status st = cluster_->server(server).Crash();
    if (st.ok() && flight_ != nullptr) {
      flight_->SnapshotPostmortem("server_crash:s" + std::to_string(server),
                                  now);
    }
    return st;
  }
  LMP_ASSIGN_OR_RETURN(const std::vector<core::SegmentId> lost,
                       manager_->OnServerCrash(server));
  // A segment re-lost while its rebuild transfer is in flight is one
  // rebuild obligation, not two: segments_lost counts obligations so that
  // segments_rebuilt + rebuilds_abandoned accounts for every one of them.
  int newly_lost = 0;
  for (const core::SegmentId seg : lost) {
    if (rebuilding_.count(seg) == 0) ++newly_lost;
  }
  report_.segments_lost += newly_lost;
  metrics_->Increment("chaos.segments_lost",
                      static_cast<std::uint64_t>(newly_lost));
  OpenWindows(lost);
  const Status st = RecoverAfterCrash(server, lost);
  // Snapshot after recovery kicks off, so the postmortem shows both the
  // context leading up to the crash and the transfers it triggered.
  if (st.ok() && flight_ != nullptr) {
    flight_->SnapshotPostmortem("server_crash:s" + std::to_string(server),
                                now);
  }
  return st;
}

Status FaultInjector::ApplyRecover(cluster::ServerId server) {
  ++report_.recoveries;
  metrics_->Increment("chaos.recoveries");
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kChaos, "fault_recover", sim_->now(),
                    {trace::Arg("server", static_cast<std::uint64_t>(server))});
  }
  if (flight_ != nullptr) {
    flight_->Record(sim_->now(), "fault.recover",
                    "server s" + std::to_string(server));
  }
  if (manager_ == nullptr) return cluster_->server(server).Recover();
  return manager_->OnServerRecover(server);
}

double FaultInjector::PortBytesServed(cluster::ServerId server) const {
  return sim_->BytesServed(topology_->port(server));
}

Status FaultInjector::ApplyDegrade(const FaultEvent& event) {
  if (event.servers.size() != 1) {
    return InvalidArgumentError("degrade wants one server");
  }
  const SimTime now = sim_->now();
  const cluster::ServerId server = event.servers[0];
  // Re-degrading an already-degraded link folds the bytes served so far
  // at the old severity before re-baselining (multipliers are absolute).
  auto it = degrade_baseline_.find(server);
  if (it != degrade_baseline_.end()) {
    report_.degraded_bytes_served += PortBytesServed(server) - it->second;
  }
  LMP_RETURN_IF_ERROR(topology_->SetLinkHealth(server, event.bandwidth_mult,
                                               event.latency_mult));
  degrade_baseline_[server] = PortBytesServed(server);
  ++report_.link_degrades;
  metrics_->Increment("chaos.link_degrades");
  if (flight_ != nullptr) {
    flight_->Record(now, "link.degrade",
                    "link s" + std::to_string(server) + " bw x" +
                        trace::JsonNumber(event.bandwidth_mult));
  }
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kChaos, "link_degrade", now,
                    {trace::Arg("target", "s" + std::to_string(server)),
                     trace::Arg("bw_mult", event.bandwidth_mult),
                     trace::Arg("lat_mult", event.latency_mult)});
  }
  return Status::Ok();
}

Status FaultInjector::ApplyRestore(const FaultEvent& event) {
  if (event.servers.size() != 1) {
    return InvalidArgumentError("restore wants one server");
  }
  const SimTime now = sim_->now();
  const cluster::ServerId server = event.servers[0];
  auto it = degrade_baseline_.find(server);
  if (it != degrade_baseline_.end()) {
    report_.degraded_bytes_served += PortBytesServed(server) - it->second;
    degrade_baseline_.erase(it);
  }
  LMP_RETURN_IF_ERROR(topology_->RestoreLink(server));
  ++report_.link_restores;
  metrics_->Increment("chaos.link_restores");
  if (flight_ != nullptr) {
    flight_->Record(now, "link.restore", "link s" + std::to_string(server));
  }
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kChaos, "link_restore", now,
                    {trace::Arg("target", "s" + std::to_string(server))});
  }
  return Status::Ok();
}

Status FaultInjector::RecoverAfterCrash(
    cluster::ServerId server, const std::vector<core::SegmentId>& lost) {
  // Functional recovery happens NOW (this is the repo's functional face);
  // the bytes it moved are then priced as fabric flows whose completions
  // define redundancy/availability (the timing face).
  if (erasure_ != nullptr) {
    for (core::SegmentId seg : lost) {
      const bool already_rebuilding = rebuilding_.count(seg) > 0;
      const Status st = erasure_->RecoverSegment(seg);
      if (!st.ok()) {
        if (IsDataLoss(st) || IsNotFound(st)) {
          // Double loss in the group, or never protected: unrecoverable.
          AbandonRecoveryTransfer(seg);
          continue;
        }
        return st;
      }
      // A re-lost segment whose rebuild transfer is still in flight was
      // functionally re-rebuilt just now, but its bytes are already being
      // priced — don't start (and charge) a second transfer.
      if (already_rebuilding) continue;
      const core::SegmentInfo* info = manager_->segment_map().Find(seg);
      LMP_CHECK(info != nullptr && !info->home.is_pool());
      // Rebuild reads all k surviving group members into the new home.
      const Bytes transfer =
          info->size * static_cast<Bytes>(erasure_->group_size());
      rebuilding_.emplace(seg, info->size);
      StartRecoveryTransfer(PickLiveSource(info->home.server),
                            info->home.server, transfer, seg, 0);
    }
  }
  if (replication_ != nullptr) {
    std::vector<core::ReplicaRecord> records;
    LMP_ASSIGN_OR_RETURN(const int created,
                         replication_->RestoreRedundancy(&records));
    (void)server;
    report_.replicas_recreated += created;
    metrics_->Increment("chaos.replicas_recreated",
                        static_cast<std::uint64_t>(created));
    for (const core::ReplicaRecord& rec : records) {
      LMP_CHECK(!rec.from.is_pool() && !rec.to.is_pool());
      StartRecoveryTransfer(rec.from.server, rec.to.server, rec.bytes,
                            rec.segment, 0);
    }
  }
  MaybeCloseWindows();
  return Status::Ok();
}

void FaultInjector::StartRecoveryTransfer(cluster::ServerId src,
                                          cluster::ServerId dst, Bytes bytes,
                                          core::SegmentId segment,
                                          int attempt) {
  if (attempt == 0) {
    if (outstanding_ == 0) window_start_ = sim_->now();
    ++outstanding_;
  }
  // The source may have crashed since the transfer was first scheduled.
  if (ServerCrashed(src)) src = PickLiveSource(dst);
  const bool endpoint_down = ServerCrashed(src) || ServerCrashed(dst);
  const bool link_down =
      topology_->link_bandwidth_mult(src) <= kDownThreshold ||
      topology_->link_bandwidth_mult(dst) <= kDownThreshold;
  if (endpoint_down || link_down) {
    if (attempt >= kMaxTransferRetries) {
      AbandonRecoveryTransfer(segment);
      --outstanding_;
      // No TTR is recorded for a window that ends in abandonment —
      // redundancy was never reached — but the window must still close so
      // a later crash starts its own.
      if (outstanding_ == 0) window_start_ = -1;
      MaybeCloseWindows();
      return;
    }
    ++report_.transfer_retries;
    metrics_->Increment("chaos.transfer_retries");
    if (trace_ != nullptr) {
      trace_->Instant(trace::Category::kChaos, "transfer_retry", sim_->now(),
                      {trace::Arg("segment", segment),
                       trace::Arg("attempt", attempt + 1)});
    }
    if (flight_ != nullptr) {
      flight_->Record(sim_->now(), "recovery.retry",
                      "segment " + std::to_string(segment) + " attempt " +
                          std::to_string(attempt + 1));
    }
    const SimTime delay =
        kRetryBackoff * static_cast<double>(1u << attempt);
    sim_->ScheduleAfter(delay,
                        [this, src, dst, bytes, segment, attempt](SimTime) {
                          StartRecoveryTransfer(src, dst, bytes, segment,
                                                attempt + 1);
                        });
    return;
  }
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kChaos, "recovery_transfer_start",
                    sim_->now(),
                    {trace::Arg("segment", segment),
                     trace::Arg("src", static_cast<std::uint64_t>(src)),
                     trace::Arg("dst", static_cast<std::uint64_t>(dst)),
                     trace::Arg("bytes", bytes)});
  }
  if (flight_ != nullptr) {
    flight_->Record(sim_->now(), "recovery.start",
                    "segment " + std::to_string(segment) + " s" +
                        std::to_string(src) + "->s" + std::to_string(dst) +
                        " " + std::to_string(bytes) + "B");
  }
  // With no live peer to read from, the copy is intra-host: free in the
  // fabric model (empty path completes via a zero-delay timer).
  sim_->StartFlow(static_cast<double>(bytes),
                  src == dst ? sim::Path{} : topology_->DmaRemotePath(src, dst),
                  [this, segment, bytes](sim::FlowId f, SimTime) {
                    (void)sim_->ReleaseRecord(f);
                    FinishRecoveryTransfer(segment, bytes);
                  });
}

void FaultInjector::FinishRecoveryTransfer(core::SegmentId segment,
                                           Bytes bytes) {
  report_.bytes_rereplicated += bytes;
  metrics_->Increment("chaos.bytes_rereplicated", bytes);
  if (rebuilding_.count(segment) > 0) {
    // If the segment is lost AGAIN (its group suffered a double loss while
    // this transfer was in flight), the rebuild did not succeed: the
    // obligation stays open and the abandonment was already recorded.
    const core::SegmentInfo* info =
        manager_ != nullptr ? manager_->segment_map().Find(segment) : nullptr;
    if (info == nullptr || info->state != core::SegmentState::kLost) {
      rebuilding_.erase(segment);
      ++report_.segments_rebuilt;
      metrics_->Increment("chaos.segments_rebuilt");
    }
  }
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kChaos, "recovery_transfer_done",
                    sim_->now(),
                    {trace::Arg("segment", segment),
                     trace::Arg("bytes", bytes)});
  }
  if (flight_ != nullptr) {
    flight_->Record(sim_->now(), "recovery.done",
                    "segment " + std::to_string(segment) + " " +
                        std::to_string(bytes) + "B");
  }
  --outstanding_;
  if (outstanding_ == 0 && window_start_ >= 0) {
    const SimTime ttr = sim_->now() - window_start_;
    report_.max_time_to_redundancy =
        std::max(report_.max_time_to_redundancy, ttr);
    metrics_->SetGauge("chaos.max_time_to_redundancy_ns",
                       report_.max_time_to_redundancy);
    metrics_->RecordValue("chaos.time_to_redundancy_ns",
                          static_cast<std::uint64_t>(ttr));
    window_start_ = -1;
  }
  MaybeCloseWindows();
}

void FaultInjector::AbandonRecoveryTransfer(core::SegmentId segment) {
  // The segment stays in rebuilding_, so a watched buffer holding it
  // remains unavailable: an abandoned rebuild is an outage that did not
  // end, not one that quietly succeeded.
  ++report_.rebuilds_abandoned;
  metrics_->Increment("chaos.rebuilds_abandoned");
  if (flight_ != nullptr) {
    flight_->Record(sim_->now(), "recovery.abandoned",
                    "segment " + std::to_string(segment));
  }
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kChaos, "recovery_abandoned",
                    sim_->now(), {trace::Arg("segment", segment)});
  }
}

Status FaultInjector::WatchBuffer(core::BufferId buffer) {
  if (manager_ == nullptr) {
    return FailedPreconditionError(
        "buffer watching needs a PoolManager binding");
  }
  LMP_ASSIGN_OR_RETURN(const core::BufferInfo info,
                       manager_->Describe(buffer));
  WatchedBuffer watched;
  watched.size = info.size;
  watched.segments = info.segments;
  watched_.emplace(buffer, std::move(watched));
  return Status::Ok();
}

void FaultInjector::OpenWindows(
    const std::vector<core::SegmentId>& segments) {
  if (segments.empty()) return;
  const SimTime now = sim_->now();
  for (auto& [id, watched] : watched_) {
    const bool hit = std::any_of(
        watched.segments.begin(), watched.segments.end(),
        [&](core::SegmentId seg) {
          return std::find(segments.begin(), segments.end(), seg) !=
                 segments.end();
        });
    if (!hit) continue;
    watched.ever_affected = true;
    if (watched.unavailable_since < 0) watched.unavailable_since = now;
  }
}

void FaultInjector::MaybeCloseWindows() {
  const SimTime now = sim_->now();
  for (auto& [id, watched] : watched_) {
    if (watched.unavailable_since < 0) continue;
    const bool still_unavailable = std::any_of(
        watched.segments.begin(), watched.segments.end(),
        [&](core::SegmentId seg) {
          if (rebuilding_.count(seg) > 0) return true;
          const core::SegmentInfo* info = manager_->segment_map().Find(seg);
          return info != nullptr &&
                 info->state == core::SegmentState::kLost;
        });
    if (still_unavailable) continue;
    watched.total_unavailable += now - watched.unavailable_since;
    watched.unavailable_since = -1;
    if (trace_ != nullptr) {
      trace_->Instant(trace::Category::kChaos, "buffer_available", now,
                      {trace::Arg("buffer", id)});
    }
  }
}

ChaosReport FaultInjector::report() const {
  ChaosReport out = report_;
  const SimTime now = sim_->now();
  for (const auto& [id, watched] : watched_) {
    out.total_unavailability += watched.total_unavailable;
    if (watched.unavailable_since >= 0) {
      out.total_unavailability += now - watched.unavailable_since;
    }
    if (watched.ever_affected) ++out.buffers_affected;
  }
  // Links still degraded: fold the bytes served since their baselines.
  for (const auto& [server, baseline] : degrade_baseline_) {
    out.degraded_bytes_served += PortBytesServed(server) - baseline;
  }
  return out;
}

}  // namespace lmp::chaos
