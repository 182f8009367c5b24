#include "core/hotness.h"

#include <algorithm>

namespace lmp::core {

void AccessTracker::RecordAccess(SegmentId seg, cluster::ServerId from,
                                 double bytes, SimTime now) {
  Row& row = table_[seg];
  auto it = std::lower_bound(
      row.begin(), row.end(), from,
      [](const Counter& c, cluster::ServerId s) { return c.server < s; });
  if (it == row.end() || it->server != from) {
    it = row.insert(it, Counter{from, 0, 0});
  }
  it->bytes = Decayed(*it, now) + bytes;
  it->updated = now;
}

double AccessTracker::AccessedBytes(SegmentId seg, cluster::ServerId from,
                                    SimTime now) const {
  auto seg_it = table_.find(seg);
  if (seg_it == table_.end()) return 0;
  for (const Counter& c : seg_it->second) {
    if (c.server == from) return Decayed(c, now);
  }
  return 0;
}

double AccessTracker::TotalBytes(SegmentId seg, SimTime now) const {
  double total = 0;
  ForEachAccessor(seg, now,
                  [&](cluster::ServerId, double b) { total += b; });
  return total;
}

bool AccessTracker::Dominant(SegmentId seg, SimTime now,
                             DominantAccessor* out) const {
  double total = 0;
  double best = 0;
  cluster::ServerId best_server = 0;
  // Strict > over ascending servers: the lowest id wins a tie.
  ForEachAccessor(seg, now, [&](cluster::ServerId server, double b) {
    total += b;
    if (b > best) {
      best = b;
      best_server = server;
    }
  });
  if (total <= 0) return false;
  out->server = best_server;
  out->share = best / total;
  out->bytes = best;
  return true;
}

void AccessTracker::Forget(SegmentId seg) { table_.erase(seg); }

}  // namespace lmp::core
