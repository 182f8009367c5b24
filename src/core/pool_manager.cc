#include "core/pool_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "common/trace.h"

namespace lmp::core {
namespace {

// Compact location label for trace-event args ("pool" or "s<N>").
std::string LocationLabel(const Location& loc) {
  return loc.is_pool() ? "pool" : "s" + std::to_string(loc.server);
}

}  // namespace

PoolManager::PoolManager(cluster::Cluster* cluster,
                         std::unique_ptr<PlacementPolicy> policy)
    : cluster_(cluster),
      policy_(policy ? std::move(policy)
                     : std::make_unique<LocalFirstPlacement>()) {
  LMP_CHECK(cluster != nullptr);
}

LocalFrameMap& PoolManager::local_map(const Location& loc) {
  auto it = local_maps_.find(loc);
  if (it == local_maps_.end()) {
    it = local_maps_.emplace(loc, LocalFrameMap(cluster_->config().frame_size))
             .first;
  }
  return it->second;
}

const LocalFrameMap* PoolManager::FindLocalMap(const Location& loc) const {
  auto it = local_maps_.find(loc);
  return it == local_maps_.end() ? nullptr : &it->second;
}

mem::BackingStore* PoolManager::BackingAt(const Location& loc) {
  if (loc.is_pool()) {
    return cluster_->pool().has_backing() ? &cluster_->pool().backing()
                                          : nullptr;
  }
  auto& srv = cluster_->server(loc.server);
  return srv.has_backing() ? &srv.backing() : nullptr;
}

StatusOr<std::vector<mem::FrameRun>> PoolManager::AllocateFramesAt(
    const Location& loc, Bytes bytes) {
  const Bytes frame_size = cluster_->config().frame_size;
  const mem::AllocRequest request =
      mem::AllocRequest::Of(mem::FramesForBytes(bytes, frame_size));
  if (loc.is_pool()) return cluster_->pool().allocator().Allocate(request);
  auto& srv = cluster_->server(loc.server);
  if (srv.crashed()) return UnavailableError("server crashed");
  return srv.shared_allocator().Allocate(request);
}

Status PoolManager::FreeFramesAt(const Location& loc,
                                 const std::vector<mem::FrameRun>& runs) {
  if (loc.is_pool()) {
    LMP_RETURN_IF_ERROR(cluster_->pool().allocator().Free(runs));
  } else {
    auto& srv = cluster_->server(loc.server);
    if (srv.crashed()) return Status::Ok();  // frames die with the host
    LMP_RETURN_IF_ERROR(srv.shared_allocator().Free(runs));
  }
  // Every free path (Free, shrink, migration source and rollback,
  // compaction, replicas) lands here, so this is where a freed frame's
  // bytes go: the next owner reads zeros.
  if (mem::BackingStore* store = BackingAt(loc)) {
    for (const mem::FrameRun& run : runs) store->Release(run.first, run.count);
  }
  return Status::Ok();
}

StatusOr<BufferId> PoolManager::Allocate(Bytes bytes,
                                         const AllocOptions& options) {
  if (bytes == 0) return InvalidArgumentError("zero-byte allocation");
  LMP_ASSIGN_OR_RETURN(std::vector<PlacementChunk> chunks,
                       policy_->Place(*cluster_, bytes, options.preferred));

  BufferInfo info;
  info.id = next_buffer_;
  info.size = bytes;

  // Materialise one segment per chunk.  On any failure, roll back fully.
  std::vector<std::pair<Location, std::vector<mem::FrameRun>>> allocated;
  auto rollback = [&] {
    for (std::size_t i = 0; i < allocated.size(); ++i) {
      LMP_CHECK_OK(FreeFramesAt(allocated[i].first, allocated[i].second));
      if (i < info.segments.size()) {
        (void)local_map(allocated[i].first).Unbind(info.segments[i]);
        (void)segments_.Remove(info.segments[i]);
      }
    }
  };

  for (const PlacementChunk& chunk : chunks) {
    const Location loc = Location::OnServer(chunk.server);
    auto frames_or = AllocateFramesAt(loc, chunk.bytes);
    if (!frames_or.ok()) {
      rollback();
      return frames_or.status();
    }
    allocated.emplace_back(loc, frames_or.value());

    SegmentInfo seg;
    seg.id = next_segment_++;
    seg.size = chunk.bytes;
    seg.home = loc;
    Status st = segments_.Insert(seg);
    if (st.ok()) {
      st = local_map(loc).Bind(seg.id, chunk.bytes,
                               std::move(frames_or).value());
    }
    if (!st.ok()) {
      (void)segments_.Remove(seg.id);  // may or may not have been inserted
      rollback();
      return st;
    }
    info.segments.push_back(seg.id);
  }

  RebuildEnds(info);
  buffers_[info.id] = std::move(info);
  metrics_->Increment("lmp.alloc.buffers");
  metrics_->Increment("lmp.alloc.bytes", bytes);
  return next_buffer_++;
}

Status PoolManager::SplitSegmentAt(BufferId buffer, Bytes offset) {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return NotFoundError("unknown buffer");
  BufferInfo& info = it->second;
  if (offset == 0 || offset >= info.size) {
    return InvalidArgumentError("split offset must be inside the buffer");
  }
  const Bytes frame_size = cluster_->config().frame_size;
  if (offset % frame_size != 0) {
    return InvalidArgumentError("split offset must be frame-aligned");
  }

  // Locate the owning segment and the split point within it.
  const std::size_t idx = SegmentIndexAt(info, offset);
  const Bytes seg_start = idx == 0 ? 0 : info.ends[idx - 1];
  if (offset == seg_start) {
    return Status::Ok();  // already a segment boundary: nothing to do
  }
  SegmentInfo* seg = segments_.FindMutable(info.segments[idx]);
  LMP_CHECK(seg != nullptr);
  if (seg->state != SegmentState::kActive) {
    return FailedPreconditionError("segment not active");
  }
  if (!seg->replicas.empty()) {
    return FailedPreconditionError("cannot split a replicated segment");
  }
  const Bytes within = offset - seg_start;
  // Partition the frame runs at `within`.
  LMP_ASSIGN_OR_RETURN(auto runs, local_map(seg->home).RunsOf(seg->id));
  std::vector<mem::FrameRun> head, tail;
  Bytes covered = 0;
  for (const mem::FrameRun& run : runs) {
    const Bytes run_bytes = run.count * frame_size;
    if (covered + run_bytes <= within) {
      head.push_back(run);
    } else if (covered >= within) {
      tail.push_back(run);
    } else {
      const std::uint64_t head_frames = (within - covered) / frame_size;
      head.push_back(mem::FrameRun{run.first, head_frames});
      tail.push_back(
          mem::FrameRun{run.first + head_frames, run.count - head_frames});
    }
    covered += run_bytes;
  }

  // New segment for the tail; shrink the head in place.
  SegmentInfo tail_seg;
  tail_seg.id = next_segment_++;
  tail_seg.size = seg->size - within;
  tail_seg.home = seg->home;
  LMP_RETURN_IF_ERROR(segments_.Insert(tail_seg));
  const Location home = seg->home;
  LMP_CHECK_OK(local_map(home).Unbind(seg->id));
  seg->size = within;
  ++seg->generation;  // cached translations must re-resolve
  LMP_CHECK_OK(local_map(home).Bind(seg->id, within, std::move(head)));
  LMP_CHECK_OK(
      local_map(home).Bind(tail_seg.id, tail_seg.size, std::move(tail)));
  info.segments.insert(
      info.segments.begin() + static_cast<std::ptrdiff_t>(idx) + 1,
      tail_seg.id);
  RebuildEnds(info);
  metrics_->Increment("lmp.segment.splits");
  return Status::Ok();
}

Status PoolManager::Grow(BufferId buffer, Bytes delta,
                         const AllocOptions& options) {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return NotFoundError("unknown buffer");
  if (delta == 0) return InvalidArgumentError("zero-byte grow");
  // Place and materialise the extension exactly like a fresh allocation,
  // then splice its segments onto the existing buffer.
  LMP_ASSIGN_OR_RETURN(BufferId extension, Allocate(delta, options));
  BufferInfo& ext_info = buffers_.at(extension);
  BufferInfo& info = buffers_.at(buffer);  // re-lookup: Allocate rehashed
  info.segments.insert(info.segments.end(), ext_info.segments.begin(),
                       ext_info.segments.end());
  info.size += delta;
  RebuildEnds(info);
  buffers_.erase(extension);
  metrics_->Increment("lmp.grow.bytes", delta);
  return Status::Ok();
}

Status PoolManager::Shrink(BufferId buffer, Bytes new_size) {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return NotFoundError("unknown buffer");
  BufferInfo& info = it->second;
  if (new_size == 0 || new_size > info.size) {
    return InvalidArgumentError("bad shrink size");
  }
  if (new_size == info.size) return Status::Ok();

  // Keep the segments below `new_size`; it must be a segment boundary.
  const std::size_t keep = SegmentIndexAt(info, new_size);
  if (keep == 0 || info.ends[keep - 1] != new_size) {
    return FailedPreconditionError(
        "shrink point inside a segment; SplitSegmentAt first");
  }

  // Release the tail segments (and their replicas).
  for (std::size_t i = keep; i < info.segments.size(); ++i) {
    const SegmentId seg = info.segments[i];
    const SegmentInfo* si = segments_.Find(seg);
    LMP_CHECK(si != nullptr);
    if (si->state != SegmentState::kLost) {
      auto runs_or = local_map(si->home).RunsOf(seg);
      if (runs_or.ok()) {
        LMP_CHECK_OK(FreeFramesAt(si->home, runs_or.value()));
        LMP_CHECK_OK(local_map(si->home).Unbind(seg));
      }
    }
    for (const Location& rep : si->replicas) {
      auto runs_or = local_map(rep).RunsOf(seg);
      if (runs_or.ok()) {
        LMP_CHECK_OK(FreeFramesAt(rep, runs_or.value()));
        LMP_CHECK_OK(local_map(rep).Unbind(seg));
      }
    }
    tracker_.Forget(seg);
    LMP_CHECK_OK(segments_.Remove(seg));
  }
  metrics_->Increment("lmp.shrink.bytes", info.size - new_size);
  info.segments.resize(keep);
  info.size = new_size;
  RebuildEnds(info);
  return Status::Ok();
}

PoolManager::PoolSnapshot PoolManager::Snapshot(SimTime now) const {
  PoolSnapshot snap;
  snap.buffers = buffers_.size();
  snap.segments = segments_.size();
  for (int s = 0; s < cluster_->num_servers(); ++s) {
    const auto id = static_cast<cluster::ServerId>(s);
    const auto& srv = cluster_->server(id);
    PoolSnapshot::ServerEntry entry;
    entry.server = id;
    entry.crashed = srv.crashed();
    entry.shared = srv.shared_bytes();
    entry.used = srv.shared_allocator().used_frames() * srv.frame_size();
    snap.servers.push_back(entry);
  }
  // Balancer backlog: per home server, bytes of segments whose dominant
  // accessor is some other server.
  segments_.ForEach([&](const SegmentInfo& info) {
    if (info.home.is_pool() || info.state != SegmentState::kActive) return;
    AccessTracker::DominantAccessor dom;
    if (!tracker_.Dominant(info.id, now, &dom)) return;
    if (dom.server != info.home.server) {
      snap.servers[info.home.server].remote_hot += info.size;
    }
  });
  return snap;
}

Status PoolManager::Free(BufferId buffer) {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return NotFoundError("unknown buffer");
  for (SegmentId seg : it->second.segments) {
    const SegmentInfo* info = segments_.Find(seg);
    LMP_CHECK(info != nullptr);
    if (info->state != SegmentState::kLost) {
      auto runs_or = local_map(info->home).RunsOf(seg);
      if (runs_or.ok()) {
        LMP_CHECK_OK(FreeFramesAt(info->home, runs_or.value()));
        LMP_CHECK_OK(local_map(info->home).Unbind(seg));
      }
    }
    // Free replica frames too.
    for (const Location& rep : info->replicas) {
      auto runs_or = local_map(rep).RunsOf(seg);
      if (runs_or.ok()) {
        LMP_CHECK_OK(FreeFramesAt(rep, runs_or.value()));
        LMP_CHECK_OK(local_map(rep).Unbind(seg));
      }
    }
    tracker_.Forget(seg);
    LMP_CHECK_OK(segments_.Remove(seg));
  }
  buffers_.erase(it);
  metrics_->Increment("lmp.free.buffers");
  return Status::Ok();
}

StatusOr<BufferInfo> PoolManager::Describe(BufferId buffer) const {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return NotFoundError("unknown buffer");
  return it->second;
}

void PoolManager::RebuildEnds(BufferInfo& info) const {
  info.ends.resize(info.segments.size());
  Bytes end = 0;
  for (std::size_t i = 0; i < info.segments.size(); ++i) {
    const SegmentInfo* si = segments_.Find(info.segments[i]);
    LMP_CHECK(si != nullptr && si->size > 0);
    end += si->size;
    info.ends[i] = end;
  }
  LMP_CHECK(end == info.size) << "segments do not cover the buffer";
}

StatusOr<std::vector<LocatedSpan>> PoolManager::Spans(BufferId buffer,
                                                      Bytes offset,
                                                      Bytes len) const {
  std::vector<LocatedSpan> spans;
  LMP_RETURN_IF_ERROR(ForEachSpan(
      buffer, offset, len,
      [&spans](const LocatedSpan& span) { spans.push_back(span); }));
  return spans;
}

StatusOr<double> PoolManager::LocalFraction(BufferId buffer,
                                            cluster::ServerId server) const {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return NotFoundError("unknown buffer");
  LMP_ASSIGN_OR_RETURN(auto spans, Spans(buffer, 0, it->second.size));
  Bytes local = 0;
  for (const auto& s : spans) {
    if (!s.location.is_pool() && s.location.server == server) {
      local += s.bytes;
    }
  }
  return static_cast<double>(local) / static_cast<double>(it->second.size);
}

Status PoolManager::AccessImpl(cluster::ServerId from, BufferId buffer,
                               Bytes offset, Bytes len,
                               std::span<std::byte> read_out,
                               std::span<const std::byte> write_in,
                               SimTime now) {
  const Bytes frame_size = cluster_->config().frame_size;
  Bytes cursor = 0;  // position within read_out / write_in
  return ForEachPiece(
      buffer, offset, len,
      [&](const SegmentInfo& si, Bytes seg_offset, Bytes piece) -> Status {
        if (si.state == SegmentState::kLost) {
          return DataLossError("segment lost");
        }
        tracker_.RecordAccess(si.id, from, static_cast<double>(piece), now);

        if (read_out.empty() && write_in.empty()) {
          cursor += piece;
          return Status::Ok();  // Touch(): accounting only
        }

        mem::BackingStore* store = BackingAt(si.home);
        if (store == nullptr) {
          return FailedPreconditionError(
              "cluster built without backing stores; use Touch()");
        }
        const Bytes piece_start = cursor;
        LMP_RETURN_IF_ERROR(local_maps_.at(si.home).ForEachExtent(
            si.id, seg_offset, piece, [&](const PhysicalExtent& e) {
              const Bytes byte_off = e.frame * frame_size + e.offset_in_frame;
              if (!read_out.empty()) {
                store->Read(byte_off, read_out.subspan(cursor, e.length));
              } else {
                store->Write(byte_off, write_in.subspan(cursor, e.length));
              }
              cursor += e.length;
            }));
        if (read_out.empty() && !si.replicas.empty()) {
          // Write-through to every replica.  Failure masking (§5) and the
          // zero-copy migration fast path both promote a replica
          // wholesale, so the copies must track the primary byte-for-byte
          // — a point-in-time copy silently reverts every write made since
          // protection.
          for (const Location& rep : si.replicas) {
            mem::BackingStore* rstore = BackingAt(rep);
            if (rstore == nullptr) continue;
            Bytes rep_cursor = piece_start;
            LMP_RETURN_IF_ERROR(local_maps_.at(rep).ForEachExtent(
                si.id, seg_offset, piece, [&](const PhysicalExtent& e) {
                  rstore->Write(e.frame * frame_size + e.offset_in_frame,
                                write_in.subspan(rep_cursor, e.length));
                  rep_cursor += e.length;
                }));
          }
        }
        return Status::Ok();
      });
}

Status PoolManager::Read(cluster::ServerId from, BufferId buffer,
                         Bytes offset, std::span<std::byte> out,
                         SimTime now) {
  return AccessImpl(from, buffer, offset, out.size(), out, {}, now);
}

Status PoolManager::Write(cluster::ServerId from, BufferId buffer,
                          Bytes offset, std::span<const std::byte> in,
                          SimTime now) {
  return AccessImpl(from, buffer, offset, in.size(), {}, in, now);
}

Status PoolManager::Touch(cluster::ServerId from, BufferId buffer,
                          Bytes offset, Bytes len, SimTime now) {
  return AccessImpl(from, buffer, offset, len, {}, {}, now);
}

Status PoolManager::CopySegmentData(const Location& from,
                                    const std::vector<mem::FrameRun>& from_runs,
                                    const Location& to,
                                    const std::vector<mem::FrameRun>& to_runs,
                                    Bytes size) {
  mem::BackingStore* src = BackingAt(from);
  mem::BackingStore* dst = BackingAt(to);
  if (src == nullptr || dst == nullptr) return Status::Ok();  // timing-only

  const std::uint64_t needed =
      mem::FramesForBytes(size, cluster_->config().frame_size);
  auto frames_in = [](const std::vector<mem::FrameRun>& runs) {
    std::uint64_t n = 0;
    for (const auto& r : runs) n += r.count;
    return n;
  };
  if (frames_in(from_runs) < needed || frames_in(to_runs) < needed) {
    return InternalError("copy: runs shorter than segment");
  }
  // Walk both run lists in lockstep, one frame at a time.
  auto s = from_runs.begin();
  auto d = to_runs.begin();
  std::uint64_t s_off = 0, d_off = 0;  // position within *s / *d
  for (std::uint64_t i = 0; i < needed; ++i) {
    for (; s_off == s->count; s_off = 0) ++s;
    for (; d_off == d->count; d_off = 0) ++d;
    dst->CopyFrame(*src, s->first + s_off++, d->first + d_off++);
  }
  return Status::Ok();
}

StatusOr<MigrationRecord> PoolManager::MigrateSegment(SegmentId seg,
                                                      cluster::ServerId dst) {
  SegmentInfo* info = segments_.FindMutable(seg);
  if (info == nullptr) return NotFoundError("unknown segment");
  if (info->state != SegmentState::kActive) {
    return FailedPreconditionError("segment not active");
  }
  const Location to = Location::OnServer(dst);
  if (info->home == to) {
    return FailedPreconditionError("segment already homed at destination");
  }
  if (cluster_->server(dst).crashed()) {
    return UnavailableError("destination crashed");
  }

  const Location from = info->home;

  // Fast path: the destination already holds a replica — promote it and
  // demote the old primary to replica status.  Zero bytes move; only the
  // coarse map changes (and stale translations age out by generation).
  for (Location& rep : info->replicas) {
    if (rep == to) {
      rep = from;
      LMP_CHECK_OK(segments_.UpdateHome(seg, to));
      metrics_->Increment("lmp.migrate.promotions");
      if (trace_ != nullptr) {
        trace_->Instant(trace::Category::kMigration, "migrate_promote",
                        trace_->now(),
                        {trace::Arg("segment", seg),
                         trace::Arg("from", LocationLabel(from)),
                         trace::Arg("to", LocationLabel(to))});
      }
      return MigrationRecord{seg, from, to, /*bytes=*/0};
    }
  }

  LMP_ASSIGN_OR_RETURN(auto src_runs, local_map(from).RunsOf(seg));
  LMP_ASSIGN_OR_RETURN(auto dst_runs, AllocateFramesAt(to, info->size));

  info->state = SegmentState::kMigrating;
  Status st = CopySegmentData(from, src_runs, to, dst_runs, info->size);
  if (st.ok()) {
    st = local_map(to).Bind(seg, info->size, dst_runs);
  }
  if (!st.ok()) {
    // Roll back fully: the segment stays active at its old home.
    info->state = SegmentState::kActive;
    LMP_CHECK_OK(FreeFramesAt(to, dst_runs));
    return st;
  }

  // Commit: re-home, release source.
  LMP_CHECK_OK(segments_.UpdateHome(seg, to));
  LMP_CHECK_OK(segments_.SetState(seg, SegmentState::kActive));
  LMP_CHECK_OK(local_map(from).Unbind(seg));
  LMP_CHECK_OK(FreeFramesAt(from, src_runs));

  metrics_->Increment("lmp.migrate.segments");
  metrics_->Increment("lmp.migrate.bytes", info->size);
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kMigration, "migrate_segment",
                    trace_->now(),
                    {trace::Arg("segment", seg),
                     trace::Arg("from", LocationLabel(from)),
                     trace::Arg("to", LocationLabel(to)),
                     trace::Arg("bytes", info->size)});
  }
  return MigrationRecord{seg, from, to, info->size};
}

StatusOr<MigrationRecord> PoolManager::CompactSegment(SegmentId seg,
                                                      Bytes bound_bytes) {
  SegmentInfo* info = segments_.FindMutable(seg);
  if (info == nullptr) return NotFoundError("unknown segment");
  if (info->state != SegmentState::kActive) {
    return FailedPreconditionError("segment not active");
  }
  if (info->home.is_pool()) {
    return FailedPreconditionError("pool-homed segments have no shrink cut");
  }
  auto& srv = cluster_->server(info->home.server);
  if (srv.crashed()) return UnavailableError("home crashed");

  const Bytes frame_size = cluster_->config().frame_size;
  const mem::FrameNumber bound =
      static_cast<mem::FrameNumber>(bound_bytes / frame_size);
  const Location home = info->home;
  LMP_ASSIGN_OR_RETURN(auto src_runs, local_map(home).RunsOf(seg));
  bool past_cut = false;
  for (const auto& r : src_runs) {
    if (r.end() > bound) {
      past_cut = true;
      break;
    }
  }
  if (!past_cut) return MigrationRecord{seg, home, home, /*bytes=*/0};

  const std::uint64_t frames = mem::FramesForBytes(info->size, frame_size);
  LMP_ASSIGN_OR_RETURN(
      auto dst_runs,
      srv.shared_allocator().Allocate(mem::AllocRequest::Below(frames, bound)));

  info->state = SegmentState::kMigrating;
  const Status st =
      CopySegmentData(home, src_runs, home, dst_runs, info->size);
  if (!st.ok()) {
    info->state = SegmentState::kActive;
    LMP_CHECK_OK(FreeFramesAt(home, dst_runs));
    return st;
  }
  // Commit: rebind to the packed frames, free the stragglers.  The home is
  // unchanged but the generation still bumps — cached translations may
  // have resolved frame-level addresses that just moved.
  LMP_CHECK_OK(local_map(home).Unbind(seg));
  LMP_CHECK_OK(local_map(home).Bind(seg, info->size, dst_runs));
  info->state = SegmentState::kActive;
  ++info->generation;
  LMP_CHECK_OK(FreeFramesAt(home, src_runs));

  metrics_->Increment("lmp.compact.segments");
  metrics_->Increment("lmp.compact.bytes", info->size);
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kMigration, "compact_segment",
                    trace_->now(),
                    {trace::Arg("segment", seg),
                     trace::Arg("home", LocationLabel(home)),
                     trace::Arg("bytes", info->size)});
  }
  return MigrationRecord{seg, home, home, info->size};
}

StatusOr<std::vector<SegmentId>> PoolManager::OnServerCrash(
    cluster::ServerId server) {
  if (server >= static_cast<cluster::ServerId>(cluster_->num_servers())) {
    return NotFoundError("unknown server");
  }
  LMP_RETURN_IF_ERROR(cluster_->server(server).Crash());
  const Location crashed = Location::OnServer(server);
  // Replica copies on the crashed host are gone: scrub the records so no
  // later operation (promotion, free) dereferences dead frames.
  segments_.ForEach([&](const SegmentInfo& info) {
    SegmentInfo* mutable_info = segments_.FindMutable(info.id);
    std::erase(mutable_info->replicas, crashed);
  });
  std::vector<SegmentId> lost;
  for (SegmentId seg : segments_.SegmentsAt(crashed)) {
    SegmentInfo* info = segments_.FindMutable(seg);
    LMP_CHECK(info != nullptr);
    // Fail over to the first live replica, if any.
    bool recovered = false;
    for (const Location& rep : info->replicas) {
      if (!rep.is_pool() && cluster_->server(rep.server).crashed()) continue;
      // Promote the replica to primary.
      info->home = rep;
      ++info->generation;
      info->replicas.erase(
          std::find(info->replicas.begin(), info->replicas.end(), rep));
      recovered = true;
      break;
    }
    if (trace_ != nullptr) {
      if (recovered) {
        trace_->Instant(trace::Category::kCrash, "failover", trace_->now(),
                        {trace::Arg("segment", seg),
                         trace::Arg("to", LocationLabel(info->home))});
      } else {
        trace_->Instant(trace::Category::kCrash, "segment_lost",
                        trace_->now(), {trace::Arg("segment", seg)});
      }
    }
    if (!recovered) {
      info->state = SegmentState::kLost;
      lost.push_back(seg);
    }
  }
  // Frames on the crashed host are gone; drop our bookkeeping for them.
  local_maps_.erase(crashed);
  metrics_->Increment("lmp.crash.servers");
  metrics_->Increment("lmp.crash.lost_segments", lost.size());
  if (trace_ != nullptr) {
    trace_->Instant(
        trace::Category::kCrash, "server_crash", trace_->now(),
        {trace::Arg("server", static_cast<std::uint64_t>(server)),
         trace::Arg("lost_segments",
                    static_cast<std::uint64_t>(lost.size()))});
  }
  return lost;
}

Status PoolManager::OnServerRecover(cluster::ServerId server) {
  if (server >= static_cast<cluster::ServerId>(cluster_->num_servers())) {
    return NotFoundError("unknown server");
  }
  LMP_RETURN_IF_ERROR(cluster_->server(server).Recover());
  metrics_->Increment("lmp.crash.recoveries");
  if (trace_ != nullptr) {
    trace_->Instant(trace::Category::kCrash, "server_recover", trace_->now(),
                    {trace::Arg("server", static_cast<std::uint64_t>(server))});
  }
  return Status::Ok();
}

}  // namespace lmp::core
