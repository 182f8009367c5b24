#include "core/hotness.h"

#include <algorithm>

namespace lmp::core {

namespace {

std::vector<AccessTracker::Tracked>::iterator FindTracked(
    std::vector<AccessTracker::Tracked>& list, SegmentId seg) {
  return std::lower_bound(
      list.begin(), list.end(), seg,
      [](const AccessTracker::Tracked& t, SegmentId s) { return t.seg < s; });
}

}  // namespace

void AccessTracker::RecordAccess(SegmentId seg, cluster::ServerId from,
                                 double bytes, SimTime now) {
  Row& row = table_[seg];
  row.dominant_at = std::numeric_limits<SimTime>::quiet_NaN();
  std::vector<Counter>& counters = row.counters;
  auto it = std::lower_bound(
      counters.begin(), counters.end(), from,
      [](const Counter& c, cluster::ServerId s) { return c.server < s; });
  if (it == counters.end() || it->server != from) {
    it = counters.insert(it, Counter{from, 0, 0});
    if (from >= index_.size()) index_.resize(from + std::size_t{1});
    std::vector<Tracked>& list = index_[from];
    list.insert(FindTracked(list, seg), Tracked{seg, &row});
  }
  it->bytes = Decayed(*it, now) + bytes;
  it->updated = now;
}

double AccessTracker::AccessedBytes(SegmentId seg, cluster::ServerId from,
                                    SimTime now) const {
  auto seg_it = table_.find(seg);
  if (seg_it == table_.end()) return 0;
  return AccessedBytes(seg_it->second, from, now);
}

double AccessTracker::AccessedBytes(const Row& row, cluster::ServerId from,
                                    SimTime now) const {
  for (const Counter& c : row.counters) {
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
  auto it = table_.find(seg);
  return it != table_.end() && Dominant(it->second, now, out);
}

bool AccessTracker::Dominant(const Row& row, SimTime now,
                             DominantAccessor* out) const {
  if (row.dominant_at != now) {
    double total = 0;
    double best = 0;
    cluster::ServerId best_server = 0;
    // Strict > over ascending servers: the lowest id wins a tie.
    for (const Counter& c : row.counters) {
      const double b = Decayed(c, now);
      total += b;
      if (b > best) {
        best = b;
        best_server = c.server;
      }
    }
    row.dominant_at = now;
    row.has_dominant = total > 0;
    if (row.has_dominant) row.dominant = {best_server, best / total, best};
  }
  if (!row.has_dominant) return false;
  *out = row.dominant;
  return true;
}

const std::vector<AccessTracker::Tracked>& AccessTracker::SegmentsOf(
    cluster::ServerId server) const {
  static const std::vector<Tracked> kNone;
  return server < index_.size() ? index_[server] : kNone;
}

void AccessTracker::Forget(SegmentId seg) {
  auto it = table_.find(seg);
  if (it == table_.end()) return;
  for (const Counter& c : it->second.counters) {
    std::vector<Tracked>& list = index_[c.server];
    list.erase(FindTracked(list, seg));
  }
  table_.erase(it);
}

void AccessTracker::set_half_life(SimTime half_life) {
  half_life_ = half_life;
  for (auto& [seg, row] : table_) {
    row.dominant_at = std::numeric_limits<SimTime>::quiet_NaN();
  }
}

void AccessTracker::Clear() {
  table_.clear();
  for (std::vector<Tracked>& list : index_) list.clear();
}

}  // namespace lmp::core
