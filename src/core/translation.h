// AddressTranslator: the per-server translation path, with a TLB-like cache.
//
// Translation is two-step (§5): step 1 maps a segment to its home via the
// globally replicated coarse SegmentMap (a local lookup — the map is small
// enough to replicate everywhere); step 2 resolves offsets inside the home
// server via its LocalFrameMap.  The translator caches step-1 results and
// validates them by generation, so migrations invalidate stale entries
// lazily instead of requiring synchronous shootdowns.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/status.h"
#include "core/segment.h"
#include "core/segment_map.h"

namespace lmp::core {

struct TranslationStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t stale_hits = 0;  // cached entry invalidated by generation

  double HitRate() const {
    const auto total = hits + misses + stale_hits;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

// LRU cache of segment -> (home, generation).
class TranslationCache {
 public:
  explicit TranslationCache(std::size_t capacity);

  struct Entry {
    Location home;
    std::uint64_t generation = 0;
  };

  std::optional<Entry> Lookup(SegmentId id);
  void Insert(SegmentId id, Entry entry);
  void Invalidate(SegmentId id);

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<SegmentId, Entry>> lru_;
  std::unordered_map<SegmentId,
                     std::list<std::pair<SegmentId, Entry>>::iterator>
      map_;
};

class AddressTranslator {
 public:
  // `map` is the (conceptually replicated) global segment map; must outlive
  // the translator.
  AddressTranslator(const SegmentMap* map, std::size_t cache_capacity = 4096);

  // Step 1, with caching.  Returns the segment's current home.
  StatusOr<Location> TranslateHome(SegmentId id);

  // Full translation of a logical range: home plus, via the provided local
  // map of that home, the physical extents.  Used by the pool manager.
  StatusOr<Location> TranslateHome(LogicalAddress addr) {
    return TranslateHome(addr.segment());
  }

  const TranslationStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TranslationStats{}; }

 private:
  const SegmentMap* map_;
  TranslationCache cache_;
  TranslationStats stats_;
};

}  // namespace lmp::core
