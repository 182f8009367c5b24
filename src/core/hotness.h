// Access-hotness tracking (§5 "Locality balancing").
//
// The paper notes NUMA-style page-fault sampling is too slow for an LMP and
// proposes profiling accesses with performance counters / access bits.  We
// model that profile: per (segment, accessing-server) byte counters with
// exponential decay, so the migration policy sees *recent* traffic.  The
// decay is applied lazily on read using a configurable half-life in
// simulated time.
//
// Layout: one row per segment, holding one counter per server that has
// ever accessed it, sorted by server id.  A segment is touched by a
// handful of servers, so every read is one hash lookup plus a scan of a
// few entries.  Each counter decays on its own, as bytes * 2^(-dt/h) since
// its last update.
//
// Per-server index: for every server, the segments it holds a counter on,
// sorted by segment id, each with a pointer to the segment's row.  An
// entry is added when RecordAccess creates a counter and removed when the
// row is Forget/Clear-ed; nothing else changes the index, so a walk over
// one scope's servers (SegmentsOf) costs what that scope touched, not the
// size of the cluster, and reads a row without hashing into the table.
// Each row also remembers its last Dominant answer and the `now` it was
// taken at, so the several walks of one control epoch decay a row's
// counters once; RecordAccess on the row and set_half_life drop it.
// Decay itself is unchanged, so every read returns the same bits it would
// without the index or the memo.
//
// Order rules (so results do not depend on hash layout): TotalBytes,
// Dominant and ForEachAccessor visit a row's servers in ascending id
// order, sums accumulate in that order, and a Dominant tie goes to the
// lowest server id.  SegmentsOf lists segments in ascending id order, so
// a sum over a scope taken through the index accumulates by ascending
// server, then ascending segment id.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "cluster/server.h"
#include "common/units.h"
#include "core/logical_address.h"

namespace lmp::core {

class AccessTracker {
 public:
  struct Counter {
    cluster::ServerId server = 0;
    double bytes = 0;
    SimTime updated = 0;
  };
  struct DominantAccessor {
    cluster::ServerId server = 0;
    double share = 0.0;   // fraction of total traffic
    double bytes = 0.0;
  };
  struct Row {
    std::vector<Counter> counters;  // sorted by server
    // Dominant's last answer and the `now` it was taken at (NaN: none).
    mutable SimTime dominant_at = std::numeric_limits<SimTime>::quiet_NaN();
    mutable bool has_dominant = false;
    mutable DominantAccessor dominant;
  };

  // One index entry: a segment and its row.  The row pointer stays valid
  // until the segment is forgotten or the tracker cleared.
  struct Tracked {
    SegmentId seg = kInvalidSegment;
    const Row* row = nullptr;
  };

  explicit AccessTracker(SimTime half_life = Milliseconds(100))
      : half_life_(half_life) {}

  // The decay half-life should be a few times the workload's reuse
  // interval; experiments tune it to their epoch length.
  void set_half_life(SimTime half_life);
  SimTime half_life() const { return half_life_; }

  void RecordAccess(SegmentId seg, cluster::ServerId from, double bytes,
                    SimTime now);

  // Decayed bytes accessed by `from` on `seg`, as of `now`.
  double AccessedBytes(SegmentId seg, cluster::ServerId from,
                       SimTime now) const;
  double AccessedBytes(const Row& row, cluster::ServerId from,
                       SimTime now) const;

  // Total decayed bytes on `seg` across all servers, summed in ascending
  // server order.
  double TotalBytes(SegmentId seg, SimTime now) const;

  // The server with the highest decayed traffic on `seg` (lowest id on a
  // tie), and its share of the total.  Returns false if the segment has no
  // recorded traffic.  The dominant server always holds a counter on the
  // segment, so a walk over every server's SegmentsOf that keeps a
  // segment only under its dominant server visits each segment once.
  bool Dominant(SegmentId seg, SimTime now, DominantAccessor* out) const;
  bool Dominant(const Row& row, SimTime now, DominantAccessor* out) const;

  // Calls fn(server, decayed_bytes) for every server with a counter on
  // `seg`, in ascending server order.  Servers that never accessed the
  // segment are not visited (their AccessedBytes is exactly 0).
  template <typename Fn>
  void ForEachAccessor(SegmentId seg, SimTime now, Fn&& fn) const {
    auto it = table_.find(seg);
    if (it == table_.end()) return;
    for (const Counter& c : it->second.counters) {
      fn(c.server, Decayed(c, now));
    }
  }

  // The segments `server` holds a counter on, ascending by id; empty for
  // a server that never recorded an access.  Invalidated by the next
  // RecordAccess, Forget or Clear.
  const std::vector<Tracked>& SegmentsOf(cluster::ServerId server) const;
  // One past the highest server id that ever recorded an access: an
  // unscoped walk visits SegmentsOf(0 .. indexed_servers() - 1).
  cluster::ServerId indexed_servers() const {
    return static_cast<cluster::ServerId>(index_.size());
  }

  void Forget(SegmentId seg);
  void Clear();

  std::size_t tracked_segments() const { return table_.size(); }

 private:
  double Decayed(const Counter& c, SimTime now) const {
    if (c.bytes == 0) return 0;
    const SimTime dt = now - c.updated;
    if (dt <= 0) return c.bytes;
    return c.bytes * std::exp2(-dt / half_life_);
  }

  SimTime half_life_;
  std::unordered_map<SegmentId, Row> table_;
  std::vector<std::vector<Tracked>> index_;  // by server id
};

}  // namespace lmp::core
