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
// offsets resolve to (segment, offset) pairs by prefix sums.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.h"
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
// The implicit ServerId constructors keep the historical call shape
// `Allocate(bytes, server)` working while letting tenant-aware callers
// (ctrl::AdmissionController) attach cohort identity.
struct AllocOptions {
  // Server whose shared region placement should prefer.
  std::optional<cluster::ServerId> preferred;
  // Allocation cohort name threaded down to mem::FrameAllocator loci;
  // empty uses the default cohort (legacy next-fit placement).
  std::string locus;
  mem::Mobility mobility = mem::Mobility::kMobile;
  // Tenant priority recorded on the segments; drains evict low first.
  double priority = 1.0;

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
  void set_placement(std::unique_ptr<PlacementPolicy> policy);

  // Allocation --------------------------------------------------------------

  // Allocates `bytes` from the pool, preferring `options.preferred`'s
  // shared region; cohort fields steer frame placement inside each chosen
  // allocator.  Fails with kOutOfMemory when the pool cannot hold it
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

  // The located spans covering [offset, offset+len) of a buffer, merged
  // per contiguous location.  This is the locality picture Figures 2–5 are
  // built from.
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

  // Translation -------------------------------------------------------------------

  // Per-server translator (lazily created); exposes TLB-style stats.
  AddressTranslator& translator(cluster::ServerId server);

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

  StatusOr<std::vector<mem::FrameRun>> AllocateFramesAt(
      const Location& loc, Bytes bytes, const AllocOptions& options = {});

  // The cohort a segment was allocated under, for re-homing paths that
  // must keep it in the same locus at the destination.
  static AllocOptions CohortOf(const SegmentInfo& info) {
    AllocOptions options;
    options.locus = info.locus;
    options.mobility = info.mobility;
    options.priority = info.priority;
    return options;
  }
  Status FreeFramesAt(const Location& loc,
                      const std::vector<mem::FrameRun>& runs);
  LocalFrameMap& local_map(const Location& loc);
  Status CopySegmentData(const Location& from,
                         const std::vector<mem::FrameRun>& from_runs,
                         const Location& to,
                         const std::vector<mem::FrameRun>& to_runs,
                         Bytes size);
  mem::BackingStore* BackingAt(const Location& loc);
  SegmentMap& mutable_segment_map() { return segments_; }

 private:
  struct ResolvedPiece {
    SegmentId segment;
    Bytes seg_offset;
    Bytes len;
  };

  StatusOr<std::vector<ResolvedPiece>> ResolveRange(BufferId buffer,
                                                    Bytes offset,
                                                    Bytes len) const;

  Status AccessImpl(cluster::ServerId from, BufferId buffer, Bytes offset,
                    Bytes len, std::span<std::byte> read_out,
                    std::span<const std::byte> write_in, SimTime now);

  cluster::Cluster* cluster_;
  std::unique_ptr<PlacementPolicy> policy_;
  SegmentMap segments_;
  AccessTracker tracker_;
  std::unordered_map<Location, LocalFrameMap> local_maps_;
  std::unordered_map<BufferId, BufferInfo> buffers_;
  std::unordered_map<cluster::ServerId, std::unique_ptr<AddressTranslator>>
      translators_;
  SegmentId next_segment_ = 0;
  BufferId next_buffer_ = 1;
  MetricsRegistry* metrics_ = &MetricsRegistry::Global();
  trace::TraceCollector* trace_ = nullptr;
};

}  // namespace lmp::core
