// PoolManager: the LMP runtime's allocation and data plane.
//
// Owns the global SegmentMap, the per-location fine-grained frame maps, and
// the hotness profile.  Allocations are split into segments by a placement
// policy; reads and writes resolve through the two-step translation path
// and (when the cluster has backing stores) move real bytes.  Migration
// re-homes a segment without changing its logical address — the property
// §5 calls out as the point of the addressing scheme.
//
// Buffers: an application allocation may span several segments (one per
// placement chunk).  A Buffer is an ordered list of segments; buffer
// offsets resolve to (segment, offset) pairs by prefix sums: each buffer
// keeps its segments' end offsets, so the first segment of a range is one
// binary search away and each further segment piece costs one SegmentMap
// lookup.
//
// The access path allocates nothing per call.  Read, Write and Touch visit
// the range's segment pieces and, within each, the frame map's extents in
// place (LocalFrameMap::ForEachExtent); ForEachSpan hands the merged
// LocatedSpans to a visitor, which is what the op engine prices.  Spans
// collects the same spans into a vector for callers that keep them.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "core/hotness.h"
#include "core/local_map.h"
#include "core/logical_address.h"
#include "core/placement.h"
#include "core/segment.h"
#include "core/segment_map.h"
#include "core/translation.h"

namespace lmp::trace {
class TraceCollector;
}

namespace lmp::core {

using BufferId = std::uint64_t;
inline constexpr BufferId kInvalidBuffer = 0;

struct BufferInfo {
  BufferId id = kInvalidBuffer;
  Bytes size = 0;
  std::vector<SegmentId> segments;  // in logical order
  // ends[i]: the buffer offset one past segments[i] (prefix sums of the
  // segment sizes, which are never 0; ends.back() == size).
  std::vector<Bytes> ends;
};

// A contiguous piece of a buffer homed at one location; what the timing
// layer consumes to build simulator flows.
struct LocatedSpan {
  Location location;
  Bytes bytes = 0;
  SegmentId segment = kInvalidSegment;
};

struct MigrationRecord {
  SegmentId segment = kInvalidSegment;
  Location from;
  Location to;
  Bytes bytes = 0;
};

// Options for PoolManager::Allocate/Grow — a request struct instead of a
// growing positional-parameter tail (see DESIGN.md, "request structs").
// The implicit ServerId constructors keep the call shape
// `Allocate(bytes, server)` working.
struct AllocOptions {
  // Server whose shared region placement should prefer.
  std::optional<cluster::ServerId> preferred;

  AllocOptions() = default;
  AllocOptions(cluster::ServerId preferred_server)  // NOLINT(runtime/explicit)
      : preferred(preferred_server) {}
  AllocOptions(  // NOLINT(runtime/explicit)
      std::optional<cluster::ServerId> preferred_server)
      : preferred(preferred_server) {}
  AllocOptions(std::nullopt_t) {}  // NOLINT(runtime/explicit)
};

class PoolManager {
 public:
  // The cluster must outlive the manager.  The default policy is the
  // paper's local-first placement.
  explicit PoolManager(cluster::Cluster* cluster,
                       std::unique_ptr<PlacementPolicy> policy = nullptr);

  cluster::Cluster& cluster() { return *cluster_; }
  const SegmentMap& segment_map() const { return segments_; }
  AccessTracker& access_tracker() { return tracker_; }
  PlacementPolicy& placement() { return *policy_; }

  // Allocation --------------------------------------------------------------

  // Allocates `bytes` from the pool, preferring `options.preferred`'s
  // shared region.  Fails with kOutOfMemory when the pool cannot hold it
  // (Figure 5).
  StatusOr<BufferId> Allocate(Bytes bytes, const AllocOptions& options = {});

  Status Free(BufferId buffer);

  // Grows `buffer` by `delta` bytes: new segments are placed by the
  // current policy (honouring `options`) and appended, so existing
  // offsets — and RemoteRefs — stay valid.
  Status Grow(BufferId buffer, Bytes delta, const AllocOptions& options = {});

  // Shrinks `buffer` to `new_size`, releasing whole tail segments (use
  // SplitSegmentAt first for byte-precise trims).  Fails with
  // kFailedPrecondition if the cut lands inside a segment.
  Status Shrink(BufferId buffer, Bytes new_size);

  StatusOr<BufferInfo> Describe(BufferId buffer) const;

  // Point-in-time view of pool health: per-server capacity and how many
  // bytes of each server's shared region hold segments whose dominant
  // accessor is remote (the balancer's backlog).
  struct PoolSnapshot {
    struct ServerEntry {
      cluster::ServerId server = 0;
      Bytes shared = 0;
      Bytes used = 0;
      Bytes remote_hot = 0;  // resident bytes another server wants more
      bool crashed = false;
    };
    std::vector<ServerEntry> servers;
    std::size_t buffers = 0;
    std::size_t segments = 0;
  };
  PoolSnapshot Snapshot(SimTime now) const;

  // Calls fn(const LocatedSpan&) for each located span covering
  // [offset, offset+len) of a buffer, in buffer order, merged per
  // contiguous location.  This is the locality picture Figures 2–5 are
  // built from.  Allocates nothing.  Fails with kNotFound for an unknown
  // buffer, kInvalidArgument for a range past its end and kDataLoss when a
  // covering segment was lost to a crash; on kDataLoss fn may already have
  // seen the spans before the lost one.
  template <typename Fn>
  Status ForEachSpan(BufferId buffer, Bytes offset, Bytes len, Fn&& fn) const;

  // ForEachSpan's spans, collected.
  StatusOr<std::vector<LocatedSpan>> Spans(BufferId buffer, Bytes offset,
                                           Bytes len) const;

  // Fraction of the buffer homed at `server` (0 when absent).
  StatusOr<double> LocalFraction(BufferId buffer,
                                 cluster::ServerId server) const;

  // Data plane ----------------------------------------------------------------

  // Real-data read/write (requires cluster backing stores).  Accesses are
  // recorded against `from` in the hotness profile at simulated time `now`.
  Status Read(cluster::ServerId from, BufferId buffer, Bytes offset,
              std::span<std::byte> out, SimTime now = 0);
  Status Write(cluster::ServerId from, BufferId buffer, Bytes offset,
               std::span<const std::byte> in, SimTime now = 0);

  // Accounting-only access (timing experiments without backing): records
  // hotness exactly like Read/Write.
  Status Touch(cluster::ServerId from, BufferId buffer, Bytes offset,
               Bytes len, SimTime now);

  // Migration ------------------------------------------------------------------

  // Re-homes one segment.  Copies real bytes when backing exists.  The
  // segment's logical address is unchanged; its generation is bumped.
  StatusOr<MigrationRecord> MigrateSegment(SegmentId seg,
                                           cluster::ServerId dst);

  // Moves `seg`'s frames below the `bound_bytes` cut on its CURRENT home
  // server — the intra-server half of a drain.  A shrink can be blocked by
  // pure fragmentation (live frames past the cut while the region below it
  // has room); compaction unblocks it without exiling the segment to a
  // peer, which matters when the draining server is also the segment's
  // dominant accessor.  Returns a record with from == to; bytes == 0 when
  // the segment already sat below the cut.  kOutOfMemory when the region
  // below the cut cannot hold it; kFailedPrecondition for pool-homed or
  // busy segments.
  StatusOr<MigrationRecord> CompactSegment(SegmentId seg, Bytes bound_bytes);

  // Splits one segment of `buffer` at `offset` bytes into its owning
  // segment, producing two adjacent segments with the same combined
  // contents and locations.  Buffer addresses, spans, and data are
  // unchanged — only the migration/replication granularity becomes finer,
  // so a balancer can move the hot half of a huge allocation without
  // paying to copy the cold half.  The segment must be unreplicated (split
  // replicas would need a parallel split on every copy).
  Status SplitSegmentAt(BufferId buffer, Bytes offset);

  // Failure handling ------------------------------------------------------------

  // Marks the server crashed.  Segments homed there fail over to a replica
  // when one exists (see ReplicationManager) or transition to kLost.
  // Returns the segments that were lost; fails with kNotFound for an
  // unknown server and kFailedPrecondition for a double crash.
  StatusOr<std::vector<SegmentId>> OnServerCrash(cluster::ServerId server);

  // Brings a crashed server back.  Its shared region rejoins the pool
  // empty: prior contents are gone, and segments lost in the crash stay
  // kLost until a recovery layer (erasure) rebuilds them.  Fails with
  // kNotFound / kFailedPrecondition like OnServerCrash.
  Status OnServerRecover(cluster::ServerId server);

  // Operational counters (lmp.alloc.*, lmp.migrate.*, ...); defaults to
  // the process-global registry.
  MetricsRegistry& metrics() { return *metrics_; }
  void set_metrics(MetricsRegistry* registry) {
    LMP_CHECK(registry != nullptr);
    metrics_ = registry;
  }

  // Optional trace sink for migration / crash / replication events; null
  // (the default) disables emission.  Timestamps come from the collector's
  // clock (set_clock), since the functional layer carries no sim time.
  void set_trace(trace::TraceCollector* collector) { trace_ = collector; }
  trace::TraceCollector* trace() const { return trace_; }

  // Internals used by the replication/erasure layer ---------------------------

  StatusOr<std::vector<mem::FrameRun>> AllocateFramesAt(const Location& loc,
                                                        Bytes bytes);
  Status FreeFramesAt(const Location& loc,
                      const std::vector<mem::FrameRun>& runs);
  LocalFrameMap& local_map(const Location& loc);
  // The frame map at `loc`, or null when none exists (nothing was ever
  // bound there, or the server crashed).  Unlike local_map(), never
  // creates one.
  const LocalFrameMap* FindLocalMap(const Location& loc) const;
  Status CopySegmentData(const Location& from,
                         const std::vector<mem::FrameRun>& from_runs,
                         const Location& to,
                         const std::vector<mem::FrameRun>& to_runs,
                         Bytes size);
  mem::BackingStore* BackingAt(const Location& loc);
  SegmentMap& mutable_segment_map() { return segments_; }

 private:
  // Recomputes info.ends from the segment sizes; called wherever the
  // segment list or a segment's size changes.
  void RebuildEnds(BufferInfo& info) const;

  // Index of the first segment that ends past `offset`: the one holding
  // it when offset < info.size, else info.segments.size().
  static std::size_t SegmentIndexAt(const BufferInfo& info, Bytes offset) {
    return static_cast<std::size_t>(
        std::upper_bound(info.ends.begin(), info.ends.end(), offset) -
        info.ends.begin());
  }

  // Calls fn(const SegmentInfo&, seg_offset, len) for each segment piece
  // of [offset, offset+len), in buffer order, and stops at the first
  // non-OK status fn returns.
  template <typename Fn>
  Status ForEachPiece(BufferId buffer, Bytes offset, Bytes len,
                      Fn&& fn) const;

  Status AccessImpl(cluster::ServerId from, BufferId buffer, Bytes offset,
                    Bytes len, std::span<std::byte> read_out,
                    std::span<const std::byte> write_in, SimTime now);

  cluster::Cluster* cluster_;
  std::unique_ptr<PlacementPolicy> policy_;
  SegmentMap segments_;
  AccessTracker tracker_;
  std::unordered_map<Location, LocalFrameMap> local_maps_;
  std::unordered_map<BufferId, BufferInfo> buffers_;
  SegmentId next_segment_ = 0;
  BufferId next_buffer_ = 1;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
  trace::TraceCollector* trace_ = nullptr;
};

template <typename Fn>
Status PoolManager::ForEachPiece(BufferId buffer, Bytes offset, Bytes len,
                                 Fn&& fn) const {
  auto it = buffers_.find(buffer);
  if (it == buffers_.end()) return NotFoundError("unknown buffer");
  const BufferInfo& info = it->second;
  if (offset + len > info.size) {
    return InvalidArgumentError("range exceeds buffer size");
  }
  Bytes pos = offset;
  const Bytes end = offset + len;
  for (std::size_t idx = SegmentIndexAt(info, offset); pos < end; ++idx) {
    const SegmentInfo* si = segments_.Find(info.segments[idx]);
    LMP_CHECK(si != nullptr);
    const Bytes seg_end = info.ends[idx];
    const Bytes take = std::min(end, seg_end) - pos;
    LMP_RETURN_IF_ERROR(fn(*si, pos - (seg_end - si->size), take));
    pos += take;
  }
  return Status::Ok();
}

template <typename Fn>
Status PoolManager::ForEachSpan(BufferId buffer, Bytes offset, Bytes len,
                                Fn&& fn) const {
  LocatedSpan span;  // the span being merged; bytes == 0 before the first
  LMP_RETURN_IF_ERROR(ForEachPiece(
      buffer, offset, len,
      [&](const SegmentInfo& si, Bytes, Bytes piece) -> Status {
        if (si.state == SegmentState::kLost) {
          return DataLossError("segment " + std::to_string(si.id) +
                               " lost to a crash");
        }
        if (span.bytes > 0 && span.location == si.home) {
          span.bytes += piece;
          return Status::Ok();
        }
        if (span.bytes > 0) fn(span);
        span = LocatedSpan{si.home, piece, si.id};
        return Status::Ok();
      }));
  if (span.bytes > 0) fn(span);
  return Status::Ok();
}

}  // namespace lmp::core
