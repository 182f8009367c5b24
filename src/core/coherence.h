// Software-managed directory coherence for the coherent region (§3.2, §5).
//
// LMPs deliberately do NOT make the whole pool cache-coherent — hardware
// multi-host coherence is the scalability trap prior DSM work fell into.
// Instead a few GBs of *coherent memory* exist for coordination, and the
// paper notes software-managed coherency may track state "at a granularity
// finer than a cache line to avoid false sharing".
//
// CoherenceDirectory implements MSI over fixed-size blocks.  The block
// granularity is a constructor parameter: the coherence bench compares a
// 64 B cache-line directory against 8/16 B sub-line tracking under a
// false-sharing workload (adjacent counters written by different servers).
// Every state transition counts the coherence messages it would generate,
// which is the currency the §5 discussion cares about.
//
// A directory may also be bounded in how many blocks it tracks at once, the
// way CXL's inclusive snoop filter is (§3.2: limiting coherent memory
// "lessens the likelihood of filling CXL's Inclusive Snoop Filter").  Once
// full, every block that becomes tracked evicts the least-recently-accessed
// one and back-invalidates its holders, so back-invalidations explode once
// the hosts' shared working set outgrows the bound (bench_snoop_filter).
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace lmp::core {

enum class BlockState : std::uint8_t { kInvalid, kShared, kModified };

struct CoherenceStats {
  std::uint64_t shared_acquires = 0;
  std::uint64_t exclusive_acquires = 0;
  std::uint64_t invalidation_msgs = 0;  // M/S copies killed at other hosts
  std::uint64_t downgrade_msgs = 0;     // M -> S writebacks
  std::uint64_t fills = 0;              // data transfers to the requester
  std::uint64_t hits = 0;               // access already permitted locally
  std::uint64_t back_invalidations = 0; // holders of blocks evicted for room

  std::uint64_t TotalMessages() const {
    return invalidation_msgs + downgrade_msgs + fills + back_invalidations;
  }
};

// Directory knobs beyond its shape (DESIGN.md §7).
struct DirectoryOptions {
  // Most blocks tracked at once; 0 = unbounded.  A block is tracked while
  // any host holds it.  When a block becomes tracked in a full directory,
  // the least-recently-accessed tracked block is evicted: each sharer gets
  // a back-invalidation, and a Modified owner gets one plus a writeback
  // (counted as a downgrade, as in ReleaseHost).
  std::uint64_t max_tracked_blocks = 0;
};

class CoherenceDirectory {
 public:
  // Tracks [0, region_size) in blocks of `granularity` bytes for up to 64
  // hosts.  granularity must divide region_size.
  CoherenceDirectory(Bytes region_size, Bytes granularity, int num_hosts,
                     DirectoryOptions options = {});

  // Ensures `host` may read [offset, offset+len).  Returns the number of
  // coherence messages generated (0 on a pure hit), back-invalidations
  // included.
  StatusOr<int> AcquireShared(int host, Bytes offset, Bytes len);

  // Ensures `host` may write [offset, offset+len), invalidating all other
  // copies of the touched blocks.
  StatusOr<int> AcquireExclusive(int host, Bytes offset, Bytes len);

  // Drops every copy held by `host` (crash, eviction).  Modified blocks
  // writeback (counted as downgrades).
  void ReleaseHost(int host);

  BlockState StateOf(int host, Bytes offset) const;
  int SharerCount(Bytes offset) const;
  // Blocks some host holds; O(num_blocks).
  std::uint64_t TrackedBlocks() const;

  Bytes granularity() const { return granularity_; }
  std::uint64_t num_blocks() const { return blocks_.size(); }
  const CoherenceStats& stats() const { return stats_; }
  void ResetStats() { stats_ = CoherenceStats{}; }

 private:
  struct Block {
    std::uint64_t sharers = 0;  // bitmask
    int owner = -1;             // valid when state == kModified
    BlockState state = BlockState::kInvalid;
  };

  // Recency list links; lru_[num_blocks] is the list's sentinel, its next
  // the least recently accessed tracked block.
  struct LruLink {
    std::uint64_t prev = 0;
    std::uint64_t next = 0;
  };

  Status CheckRange(int host, Bytes offset, Bytes len) const;
  // Bounded directories only, before block `b` is accessed: moves it to
  // the most-recent end, first evicting the least recent block when `b`
  // is about to become tracked in a full directory.  Returns the messages
  // the eviction cost.
  int Touch(std::uint64_t b);
  void Unlink(std::uint64_t b);

  Bytes region_size_;
  Bytes granularity_;
  int num_hosts_;
  std::uint64_t max_tracked_;
  std::vector<Block> blocks_;
  std::vector<LruLink> lru_;  // empty when unbounded
  std::uint64_t tracked_ = 0; // maintained only when bounded
  CoherenceStats stats_;
};

}  // namespace lmp::core
