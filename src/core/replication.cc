#include "core/replication.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::core {

ReplicationManager::ReplicationManager(PoolManager* manager,
                                       int replication_factor)
    : manager_(manager), replication_factor_(replication_factor) {
  LMP_CHECK(manager != nullptr);
  LMP_CHECK(replication_factor >= 1);
}

StatusOr<cluster::ServerId> ReplicationManager::PickReplicaHost(
    const SegmentInfo& info) const {
  auto& cluster = manager_->cluster();
  cluster::ServerId best = 0;
  Bytes best_free = 0;
  bool found = false;
  for (int s = 0; s < cluster.num_servers(); ++s) {
    const auto id = static_cast<cluster::ServerId>(s);
    const auto& srv = cluster.server(id);
    if (srv.crashed()) continue;
    if (!info.home.is_pool() && info.home.server == id) continue;
    bool is_replica = false;
    for (const Location& rep : info.replicas) {
      if (!rep.is_pool() && rep.server == id) {
        is_replica = true;
        break;
      }
    }
    if (is_replica) continue;
    const Bytes free = srv.shared_allocator().free_bytes();
    if (free < info.size) continue;
    if (!found || free > best_free) {
      best = id;
      best_free = free;
      found = true;
    }
  }
  if (!found) {
    return OutOfMemoryError("no eligible replica host for segment " +
                            std::to_string(info.id));
  }
  return best;
}

Status ReplicationManager::CreateReplica(SegmentInfo* info,
                                         cluster::ServerId host) {
  const Location loc = Location::OnServer(host);
  LMP_ASSIGN_OR_RETURN(auto runs,
                       manager_->AllocateFramesAt(loc, info->size));
  // Copy primary bytes into the replica.
  auto src_runs_or = manager_->local_map(info->home).RunsOf(info->id);
  if (src_runs_or.ok()) {
    const Status st = manager_->CopySegmentData(
        info->home, src_runs_or.value(), loc, runs, info->size);
    if (!st.ok()) {
      LMP_CHECK_OK(manager_->FreeFramesAt(loc, runs));
      return st;
    }
  }
  LMP_RETURN_IF_ERROR(
      manager_->local_map(loc).Bind(info->id, info->size, runs));
  info->replicas.push_back(loc);
  if (trace::TraceCollector* t = manager_->trace(); t != nullptr) {
    t->Instant(trace::Category::kReplication, "replica_create", t->now(),
               {trace::Arg("segment", info->id),
                trace::Arg("host", static_cast<std::uint64_t>(host)),
                trace::Arg("bytes", info->size)});
  }
  return Status::Ok();
}

Status ReplicationManager::ProtectSegment(SegmentId seg) {
  SegmentInfo* info = manager_->mutable_segment_map().FindMutable(seg);
  if (info == nullptr) return NotFoundError("unknown segment");
  if (info->state != SegmentState::kActive) {
    return FailedPreconditionError("segment not active");
  }
  while (static_cast<int>(info->replicas.size()) < replication_factor_) {
    LMP_ASSIGN_OR_RETURN(cluster::ServerId host, PickReplicaHost(*info));
    LMP_RETURN_IF_ERROR(CreateReplica(info, host));
  }
  if (std::find(protected_.begin(), protected_.end(), seg) ==
      protected_.end()) {
    protected_.push_back(seg);
  }
  return Status::Ok();
}

Status ReplicationManager::ProtectBuffer(BufferId buffer) {
  LMP_ASSIGN_OR_RETURN(BufferInfo info, manager_->Describe(buffer));
  for (SegmentId seg : info.segments) {
    LMP_RETURN_IF_ERROR(ProtectSegment(seg));
  }
  return Status::Ok();
}

StatusOr<int> ReplicationManager::RestoreRedundancy(
    std::vector<ReplicaRecord>* records) {
  int created = 0;
  // Compact into `alive` as we scan: freed segments (no longer in the map)
  // and crash-lost ones can never regain redundancy, so carrying them
  // forward would make every future restoration rescan dead ids.  On an
  // error return protected_ is left untouched; the next successful pass
  // prunes.
  std::vector<SegmentId> alive;
  alive.reserve(protected_.size());
  for (SegmentId seg : protected_) {
    SegmentInfo* info = manager_->mutable_segment_map().FindMutable(seg);
    if (info == nullptr || info->state == SegmentState::kLost) continue;
    alive.push_back(seg);
    if (info->state != SegmentState::kActive) continue;
    // Drop replica records that point at crashed hosts.
    std::erase_if(info->replicas, [&](const Location& rep) {
      return !rep.is_pool() &&
             manager_->cluster().server(rep.server).crashed();
    });
    while (static_cast<int>(info->replicas.size()) < replication_factor_) {
      auto host_or = PickReplicaHost(*info);
      if (!host_or.ok()) break;  // not enough live capacity right now
      LMP_RETURN_IF_ERROR(CreateReplica(info, host_or.value()));
      ++created;
      if (records != nullptr) {
        records->push_back(ReplicaRecord{seg, info->home,
                                         info->replicas.back(), info->size});
      }
    }
  }
  const std::size_t pruned = protected_.size() - alive.size();
  protected_ = std::move(alive);
  if (trace::TraceCollector* t = manager_->trace(); t != nullptr) {
    t->Instant(trace::Category::kReplication, "restore_redundancy",
               t->now(),
               {trace::Arg("created", created),
                trace::Arg("pruned", static_cast<std::uint64_t>(pruned))});
  }
  return created;
}

}  // namespace lmp::core
