#include "core/erasure.h"

#include <algorithm>

#include "common/logging.h"

namespace lmp::core {
namespace {

// Reads a segment's raw bytes via its home's frame map and backing store,
// through the const path so never-written frames read as zeros without
// being materialized.  Returns false when the cluster runs without backing
// (timing-only mode).
bool ReadSegmentBytes(PoolManager& mgr, const SegmentInfo& info,
                      std::vector<std::byte>* out) {
  const mem::BackingStore* store = mgr.BackingAt(info.home);
  if (store == nullptr) return false;
  auto runs_or = mgr.local_map(info.home).RunsOf(info.id);
  if (!runs_or.ok()) return false;
  const Bytes frame_size = store->frame_size();
  out->resize(info.size);
  Bytes pos = 0;
  for (const auto& run : runs_or.value()) {
    for (mem::FrameNumber f = run.first; f < run.end() && pos < info.size;
         ++f) {
      const Bytes take = std::min(frame_size, info.size - pos);
      auto frame = store->Frame(f);
      std::copy_n(frame.begin(), take, out->begin() + pos);
      pos += take;
    }
  }
  return pos == info.size;
}

bool WriteSegmentBytes(PoolManager& mgr, const Location& home, SegmentId seg,
                       Bytes size, std::span<const std::byte> in) {
  mem::BackingStore* store = mgr.BackingAt(home);
  if (store == nullptr) return false;
  auto runs_or = mgr.local_map(home).RunsOf(seg);
  if (!runs_or.ok()) return false;
  const Bytes frame_size = store->frame_size();
  Bytes pos = 0;
  for (const auto& run : runs_or.value()) {
    for (mem::FrameNumber f = run.first; f < run.end() && pos < size; ++f) {
      const Bytes take = std::min(frame_size, size - pos);
      store->Write(f * frame_size, in.subspan(pos, take));
      pos += take;
    }
  }
  return pos == size;
}

}  // namespace

XorErasureManager::XorErasureManager(PoolManager* manager, int group_size)
    : manager_(manager), group_size_(group_size) {
  LMP_CHECK(manager != nullptr);
  LMP_CHECK(group_size >= 2);
}

const XorErasureManager::Group* XorErasureManager::GroupOf(
    SegmentId seg) const {
  for (const Group& g : groups_) {
    if (g.parity == seg) return &g;
    for (SegmentId m : g.members) {
      if (m == seg) return &g;
    }
  }
  return nullptr;
}

StatusOr<cluster::ServerId> XorErasureManager::PickHost(
    const Group& group, Bytes size, bool allow_parity_colocation) const {
  auto& cluster = manager_->cluster();
  const SegmentMap& segs = manager_->segment_map();
  auto hosts_member = [&](cluster::ServerId id) {
    for (SegmentId m : group.members) {
      const SegmentInfo* mi = segs.Find(m);
      if (mi != nullptr && mi->state != SegmentState::kLost &&
          !mi->home.is_pool() && mi->home.server == id) {
        return true;
      }
    }
    if (!allow_parity_colocation && group.parity != kInvalidSegment) {
      const SegmentInfo* pi = segs.Find(group.parity);
      if (pi != nullptr && pi->state != SegmentState::kLost &&
          !pi->home.is_pool() && pi->home.server == id) {
        return true;
      }
    }
    return false;
  };

  bool found = false;
  cluster::ServerId best = 0;
  Bytes best_free = 0;
  for (int s = 0; s < cluster.num_servers(); ++s) {
    const auto id = static_cast<cluster::ServerId>(s);
    const auto& srv = cluster.server(id);
    if (srv.crashed() || hosts_member(id)) continue;
    const Bytes free = srv.shared_allocator().free_bytes();
    if (free < size) continue;
    if (!found || free > best_free) {
      best = id;
      best_free = free;
      found = true;
    }
  }
  if (!found) return OutOfMemoryError("no host for parity/recovery segment");
  return best;
}

Status XorErasureManager::XorInto(std::vector<std::byte>& acc,
                                  SegmentId seg) {
  const SegmentInfo* info = manager_->segment_map().Find(seg);
  if (info == nullptr) return NotFoundError("unknown segment");
  std::vector<std::byte> bytes;
  if (!ReadSegmentBytes(*manager_, *info, &bytes)) {
    return Status::Ok();  // timing-only mode: parity is metadata-only
  }
  if (acc.size() < bytes.size()) acc.resize(bytes.size(), std::byte{0});
  for (std::size_t i = 0; i < bytes.size(); ++i) acc[i] ^= bytes[i];
  return Status::Ok();
}

Status XorErasureManager::ProtectSegments(
    const std::vector<SegmentId>& segments) {
  for (std::size_t start = 0; start < segments.size();
       start += group_size_) {
    Group group;
    const std::size_t end =
        std::min(segments.size(), start + group_size_);
    Bytes size = 0;
    for (std::size_t i = start; i < end; ++i) {
      const SegmentInfo* info = manager_->segment_map().Find(segments[i]);
      if (info == nullptr) return NotFoundError("unknown segment");
      if (info->state != SegmentState::kActive) {
        return FailedPreconditionError("segment not active");
      }
      if (size == 0) {
        size = info->size;
      } else if (info->size != size) {
        return InvalidArgumentError(
            "erasure group members must have equal sizes");
      }
      group.members.push_back(segments[i]);
    }
    group.size = size;

    // Build parity = XOR of members.
    std::vector<std::byte> parity_bytes;
    for (SegmentId m : group.members) {
      LMP_RETURN_IF_ERROR(XorInto(parity_bytes, m));
    }

    LMP_ASSIGN_OR_RETURN(
        cluster::ServerId host,
        PickHost(group, size, /*allow_parity_colocation=*/false));
    const Location loc = Location::OnServer(host);
    LMP_ASSIGN_OR_RETURN(auto runs, manager_->AllocateFramesAt(loc, size));

    SegmentInfo parity;
    parity.id = next_parity_id_++;
    parity.size = size;
    parity.home = loc;
    LMP_RETURN_IF_ERROR(manager_->mutable_segment_map().Insert(parity));
    LMP_RETURN_IF_ERROR(manager_->local_map(loc).Bind(parity.id, size, runs));
    if (!parity_bytes.empty()) {
      parity_bytes.resize(size, std::byte{0});
      WriteSegmentBytes(*manager_, loc, parity.id, size, parity_bytes);
    }
    group.parity = parity.id;
    groups_.push_back(std::move(group));
  }
  return Status::Ok();
}

Status XorErasureManager::RecoverSegment(SegmentId seg) {
  const Group* group = GroupOf(seg);
  if (group == nullptr) return NotFoundError("segment not erasure-protected");
  SegmentInfo* info = manager_->mutable_segment_map().FindMutable(seg);
  if (info == nullptr) return NotFoundError("unknown segment");
  if (info->state != SegmentState::kLost) {
    return FailedPreconditionError("segment is not lost");
  }

  // Exactly one loss is recoverable; verify the rest of the group is alive.
  std::vector<SegmentId> survivors;
  for (SegmentId m : group->members) {
    if (m == seg) continue;
    const SegmentInfo* mi = manager_->segment_map().Find(m);
    if (mi == nullptr || mi->state == SegmentState::kLost) {
      return DataLossError("multiple losses in erasure group");
    }
    survivors.push_back(m);
  }
  if (group->parity != seg) {
    const SegmentInfo* pi = manager_->segment_map().Find(group->parity);
    if (pi == nullptr || pi->state == SegmentState::kLost) {
      return DataLossError("parity lost alongside member");
    }
    survivors.push_back(group->parity);
  }

  // Reconstruct = XOR of all survivors.
  std::vector<std::byte> rebuilt;
  for (SegmentId s : survivors) {
    LMP_RETURN_IF_ERROR(XorInto(rebuilt, s));
  }

  // Prefer a host with full fault independence; fall back to sharing with
  // the parity when the cluster is too small post-crash (availability over
  // redundancy — a later rebalance can restore independence).
  auto host_or = PickHost(*group, info->size,
                          /*allow_parity_colocation=*/false);
  if (!host_or.ok() && IsOutOfMemory(host_or.status())) {
    LMP_LOG(kWarning) << "erasure recovery of segment " << seg
                      << " co-locates with its parity (degraded "
                         "fault independence)";
    host_or = PickHost(*group, info->size,
                       /*allow_parity_colocation=*/true);
  }
  LMP_ASSIGN_OR_RETURN(cluster::ServerId host, std::move(host_or));
  const Location loc = Location::OnServer(host);
  LMP_ASSIGN_OR_RETURN(auto runs,
                       manager_->AllocateFramesAt(loc, info->size));
  LMP_RETURN_IF_ERROR(
      manager_->local_map(loc).Bind(seg, info->size, runs));
  if (!rebuilt.empty()) {
    rebuilt.resize(info->size, std::byte{0});
    WriteSegmentBytes(*manager_, loc, seg, info->size, rebuilt);
  }
  LMP_CHECK_OK(manager_->mutable_segment_map().UpdateHome(seg, loc));
  LMP_CHECK_OK(
      manager_->mutable_segment_map().SetState(seg, SegmentState::kActive));
  return Status::Ok();
}

StatusOr<int> XorErasureManager::RecoverAllLost() {
  int recovered = 0;
  for (const Group& g : groups_) {
    std::vector<SegmentId> all = g.members;
    all.push_back(g.parity);
    for (SegmentId s : all) {
      const SegmentInfo* info = manager_->segment_map().Find(s);
      if (info != nullptr && info->state == SegmentState::kLost) {
        LMP_RETURN_IF_ERROR(RecoverSegment(s));
        ++recovered;
      }
    }
  }
  return recovered;
}

}  // namespace lmp::core
