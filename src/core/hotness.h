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
// Order rules (so results do not depend on hash layout): TotalBytes,
// Dominant and ForEachAccessor visit a row's servers in ascending id
// order, sums accumulate in that order, and a Dominant tie goes to the
// lowest server id.
#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/server.h"
#include "common/units.h"
#include "core/logical_address.h"

namespace lmp::core {

class AccessTracker {
 public:
  explicit AccessTracker(SimTime half_life = Milliseconds(100))
      : half_life_(half_life) {}

  // The decay half-life should be a few times the workload's reuse
  // interval; experiments tune it to their epoch length.
  void set_half_life(SimTime half_life) { half_life_ = half_life; }
  SimTime half_life() const { return half_life_; }

  void RecordAccess(SegmentId seg, cluster::ServerId from, double bytes,
                    SimTime now);

  // Decayed bytes accessed by `from` on `seg`, as of `now`.
  double AccessedBytes(SegmentId seg, cluster::ServerId from,
                       SimTime now) const;

  // Total decayed bytes on `seg` across all servers, summed in ascending
  // server order.
  double TotalBytes(SegmentId seg, SimTime now) const;

  // The server with the highest decayed traffic on `seg` (lowest id on a
  // tie), and its share of the total.  Returns false if the segment has no
  // recorded traffic.
  struct DominantAccessor {
    cluster::ServerId server = 0;
    double share = 0.0;   // fraction of total traffic
    double bytes = 0.0;
  };
  bool Dominant(SegmentId seg, SimTime now, DominantAccessor* out) const;

  // Calls fn(server, decayed_bytes) for every server with a counter on
  // `seg`, in ascending server order.  Servers that never accessed the
  // segment are not visited (their AccessedBytes is exactly 0).
  template <typename Fn>
  void ForEachAccessor(SegmentId seg, SimTime now, Fn&& fn) const {
    auto it = table_.find(seg);
    if (it == table_.end()) return;
    for (const Counter& c : it->second) fn(c.server, Decayed(c, now));
  }

  void Forget(SegmentId seg);
  void Clear() { table_.clear(); }

  std::size_t tracked_segments() const { return table_.size(); }

 private:
  struct Counter {
    cluster::ServerId server = 0;
    double bytes = 0;
    SimTime updated = 0;
  };
  using Row = std::vector<Counter>;  // sorted by server

  double Decayed(const Counter& c, SimTime now) const {
    if (c.bytes == 0) return 0;
    const SimTime dt = now - c.updated;
    if (dt <= 0) return c.bytes;
    return c.bytes * std::exp2(-dt / half_life_);
  }

  SimTime half_life_;
  std::unordered_map<SegmentId, Row> table_;
};

}  // namespace lmp::core
