// Access-bit sampling (§5 "Locality balancing").
//
// The paper proposes two profiling mechanisms: performance counters (our
// AccessTracker models their exact byte counts) and page-table ACCESS BITS
// — one sticky bit per page per observer, set by hardware on touch and
// cleared by a periodic scan.  Access bits are cheap but lossy: a scan
// reveals only WHETHER a page was touched since the last scan, not how
// often or how much.  AccessBitSampler implements the scan-and-clear
// protocol and produces per-segment hotness estimates; the migration
// ablation can compare policies fed by exact counters vs sampled bits.
// Each scan also derives, in one pass, every touched segment's dominant
// accessor and per server the segments it touched (SegmentsOf), so a
// scoped demand estimator walks only its own servers' lists.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cluster/server.h"
#include "common/units.h"
#include "core/logical_address.h"

namespace lmp::core {

class AccessBitSampler {
 public:
  // `page_size` is the tracking granularity (typically the frame size).
  explicit AccessBitSampler(Bytes page_size);

  // Hardware path: mark pages of [offset, offset+len) in `seg` touched by
  // `server`.  Cheap: sets bits only.
  void OnAccess(SegmentId seg, cluster::ServerId server, Bytes offset,
                Bytes len);

  // Scan-and-clear: returns, per (segment, server), the number of pages
  // whose bit was set since the previous scan, then clears all bits.
  struct ScanEntry {
    SegmentId segment = kInvalidSegment;
    cluster::ServerId server = 0;
    std::uint64_t touched_pages = 0;
  };
  std::vector<ScanEntry> ScanAndClear();

  // Estimated bytes touched by `server` on `seg` in the LAST completed
  // scan interval (touched pages x page size) — the lossy analogue of
  // AccessTracker::AccessedBytes.
  double EstimatedBytes(SegmentId seg, cluster::ServerId server) const;

  // The server with the most touched pages on `seg` in the last interval.
  // A tie goes to the server met first in the scan's own order.
  struct Dominant {
    cluster::ServerId server = 0;
    double share = 0;
    double bytes = 0;
  };
  bool DominantAccessor(SegmentId seg, Dominant* out) const;

  // The segments `server` touched in the last completed interval,
  // ascending by id, each with its dominant accessor — the access-bits
  // twin of AccessTracker::SegmentsOf.  Rebuilt by every ScanAndClear.
  struct Touched {
    SegmentId seg = kInvalidSegment;
    const Dominant* dom = nullptr;
  };
  const std::vector<Touched>& SegmentsOf(cluster::ServerId server) const;

  Bytes page_size() const { return page_size_; }
  std::uint64_t scans() const { return scans_; }

 private:
  struct Key {
    SegmentId segment;
    cluster::ServerId server;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(
          (static_cast<std::uint64_t>(k.segment) << 32) | k.server);
    }
  };

  Bytes page_size_;
  std::uint64_t scans_ = 0;
  // Current interval: per (seg, server), the set of touched page indexes.
  std::unordered_map<Key, std::vector<bool>, KeyHash> bits_;
  // Last completed interval: per (seg, server), touched page count.
  std::unordered_map<Key, std::uint64_t, KeyHash> last_scan_;
  // Derived from last_scan_ by ScanAndClear: each touched segment's
  // dominant accessor, and per server the segments it touched.
  std::unordered_map<SegmentId, Dominant> dominant_;
  std::vector<std::vector<Touched>> by_server_;
};

}  // namespace lmp::core
