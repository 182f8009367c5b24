#include "core/coherence.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace lmp::core {

CoherenceDirectory::CoherenceDirectory(Bytes region_size, Bytes granularity,
                                       int num_hosts,
                                       DirectoryOptions options)
    : region_size_(region_size),
      granularity_(granularity),
      num_hosts_(num_hosts),
      max_tracked_(options.max_tracked_blocks) {
  LMP_CHECK(granularity > 0 && region_size % granularity == 0)
      << "granularity must divide region size";
  LMP_CHECK(num_hosts > 0 && num_hosts <= 64);
  blocks_.resize(region_size / granularity);
  if (max_tracked_ != 0) {
    const std::uint64_t sentinel = blocks_.size();
    lru_.resize(sentinel + 1);
    lru_[sentinel] = LruLink{sentinel, sentinel};
  }
}

void CoherenceDirectory::Unlink(std::uint64_t b) {
  lru_[lru_[b].prev].next = lru_[b].next;
  lru_[lru_[b].next].prev = lru_[b].prev;
}

int CoherenceDirectory::Touch(std::uint64_t b) {
  const std::uint64_t sentinel = blocks_.size();
  int messages = 0;
  if (blocks_[b].state != BlockState::kInvalid) {
    Unlink(b);
  } else if (tracked_ < max_tracked_) {
    ++tracked_;
  } else {
    // Full: evict the least recent block (never `b`, which is untracked).
    const std::uint64_t victim = lru_[sentinel].next;
    Block& evicted = blocks_[victim];
    if (evicted.state == BlockState::kModified) {
      ++stats_.back_invalidations;
      ++stats_.downgrade_msgs;  // writeback
      messages = 2;
    } else {
      messages = std::popcount(evicted.sharers);
      stats_.back_invalidations += messages;
    }
    evicted = Block{};
    Unlink(victim);
  }
  const std::uint64_t last = lru_[sentinel].prev;
  lru_[b] = LruLink{last, sentinel};
  lru_[last].next = b;
  lru_[sentinel].prev = b;
  return messages;
}

Status CoherenceDirectory::CheckRange(int host, Bytes offset,
                                      Bytes len) const {
  if (host < 0 || host >= num_hosts_) {
    return InvalidArgumentError("bad host id");
  }
  if (len == 0) return InvalidArgumentError("zero-length access");
  if (offset + len > region_size_) {
    return InvalidArgumentError("access beyond coherent region");
  }
  return Status::Ok();
}

StatusOr<int> CoherenceDirectory::AcquireShared(int host, Bytes offset,
                                                Bytes len) {
  LMP_RETURN_IF_ERROR(CheckRange(host, offset, len));
  ++stats_.shared_acquires;
  const std::uint64_t mask = 1ull << host;
  int messages = 0;
  const Bytes first = offset / granularity_;
  const Bytes last = (offset + len - 1) / granularity_;
  for (Bytes b = first; b <= last; ++b) {
    if (max_tracked_ != 0) messages += Touch(b);
    Block& blk = blocks_[b];
    switch (blk.state) {
      case BlockState::kModified:
        if (blk.owner == host) {
          ++stats_.hits;
          break;  // owner reads its own dirty copy
        }
        // Downgrade the owner to Shared, fill the requester.
        ++stats_.downgrade_msgs;
        ++stats_.fills;
        messages += 2;
        blk.sharers = (1ull << blk.owner) | mask;
        blk.owner = -1;
        blk.state = BlockState::kShared;
        break;
      case BlockState::kShared:
        if (blk.sharers & mask) {
          ++stats_.hits;
        } else {
          ++stats_.fills;
          ++messages;
          blk.sharers |= mask;
        }
        break;
      case BlockState::kInvalid:
        ++stats_.fills;
        ++messages;
        blk.sharers = mask;
        blk.state = BlockState::kShared;
        break;
    }
  }
  return messages;
}

StatusOr<int> CoherenceDirectory::AcquireExclusive(int host, Bytes offset,
                                                   Bytes len) {
  LMP_RETURN_IF_ERROR(CheckRange(host, offset, len));
  ++stats_.exclusive_acquires;
  const std::uint64_t mask = 1ull << host;
  int messages = 0;
  const Bytes first = offset / granularity_;
  const Bytes last = (offset + len - 1) / granularity_;
  for (Bytes b = first; b <= last; ++b) {
    if (max_tracked_ != 0) messages += Touch(b);
    Block& blk = blocks_[b];
    switch (blk.state) {
      case BlockState::kModified:
        if (blk.owner == host) {
          ++stats_.hits;
          break;
        }
        // Invalidate the current owner (with writeback) and fill.
        ++stats_.invalidation_msgs;
        ++stats_.fills;
        messages += 2;
        blk.owner = host;
        blk.sharers = 0;
        break;
      case BlockState::kShared: {
        // Invalidate every other sharer.
        const std::uint64_t others = blk.sharers & ~mask;
        const int count = std::popcount(others);
        stats_.invalidation_msgs += count;
        messages += count;
        if (!(blk.sharers & mask)) {
          ++stats_.fills;
          ++messages;
        } else {
          ++stats_.hits;
        }
        blk.sharers = 0;
        blk.owner = host;
        blk.state = BlockState::kModified;
        break;
      }
      case BlockState::kInvalid:
        ++stats_.fills;
        ++messages;
        blk.owner = host;
        blk.sharers = 0;
        blk.state = BlockState::kModified;
        break;
    }
  }
  return messages;
}

void CoherenceDirectory::ReleaseHost(int host) {
  const std::uint64_t mask = 1ull << host;
  for (std::uint64_t b = 0; b < blocks_.size(); ++b) {
    Block& blk = blocks_[b];
    if (blk.state == BlockState::kModified && blk.owner == host) {
      ++stats_.downgrade_msgs;  // writeback
      blk = Block{};
    } else if (blk.state == BlockState::kShared && (blk.sharers & mask)) {
      blk.sharers &= ~mask;
      if (blk.sharers != 0) continue;
      blk.state = BlockState::kInvalid;
    } else {
      continue;
    }
    if (max_tracked_ != 0) {  // the block just became untracked
      Unlink(b);
      --tracked_;
    }
  }
}

BlockState CoherenceDirectory::StateOf(int host, Bytes offset) const {
  const Block& blk = blocks_[offset / granularity_];
  if (blk.state == BlockState::kModified) {
    return blk.owner == host ? BlockState::kModified : BlockState::kInvalid;
  }
  if (blk.state == BlockState::kShared && (blk.sharers & (1ull << host))) {
    return BlockState::kShared;
  }
  return BlockState::kInvalid;
}

int CoherenceDirectory::SharerCount(Bytes offset) const {
  const Block& blk = blocks_[offset / granularity_];
  if (blk.state == BlockState::kModified) return 1;
  return std::popcount(blk.sharers);
}

std::uint64_t CoherenceDirectory::TrackedBlocks() const {
  return static_cast<std::uint64_t>(
      std::count_if(blocks_.begin(), blocks_.end(), [](const Block& blk) {
        return blk.state != BlockState::kInvalid;
      }));
}

}  // namespace lmp::core
