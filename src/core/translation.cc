#include "core/translation.h"

#include "common/logging.h"

namespace lmp::core {

TranslationCache::TranslationCache(std::size_t capacity)
    : capacity_(capacity) {
  LMP_CHECK(capacity > 0);
}

std::optional<TranslationCache::Entry> TranslationCache::Lookup(
    SegmentId id) {
  auto it = map_.find(id);
  if (it == map_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void TranslationCache::Insert(SegmentId id, Entry entry) {
  auto it = map_.find(id);
  if (it != map_.end()) {
    it->second->second = entry;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (map_.size() >= capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
  }
  lru_.emplace_front(id, entry);
  map_[id] = lru_.begin();
}

void TranslationCache::Invalidate(SegmentId id) {
  auto it = map_.find(id);
  if (it == map_.end()) return;
  lru_.erase(it->second);
  map_.erase(it);
}

AddressTranslator::AddressTranslator(const SegmentMap* map,
                                     std::size_t cache_capacity)
    : map_(map), cache_(cache_capacity) {
  LMP_CHECK(map != nullptr);
}

StatusOr<Location> AddressTranslator::TranslateHome(SegmentId id) {
  const SegmentInfo* info = map_->Find(id);
  if (info == nullptr) {
    cache_.Invalidate(id);
    return NotFoundError("segment " + std::to_string(id));
  }

  if (auto cached = cache_.Lookup(id)) {
    if (cached->generation == info->generation) {
      ++stats_.hits;
      return cached->home;
    }
    ++stats_.stale_hits;
    cache_.Invalidate(id);
  } else {
    ++stats_.misses;
  }

  cache_.Insert(id, TranslationCache::Entry{info->home, info->generation});
  return info->home;
}

}  // namespace lmp::core
