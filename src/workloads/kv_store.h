// PoolKvStore: a key-value store whose table lives in the logical pool.
//
// This is the kind of application §6 says LMPs should inherit from the
// RDMA literature (FaRM-style KV stores), restated over load/store pool
// access.  The table is open-addressed with linear probing over fixed
// 64-byte records in one pool buffer; any server can Put/Get, and every
// access flows through the pool manager so the hotness profile (and thus
// the migration engine) sees the true access pattern — the kv_cache
// example uses exactly that to pull a hot shard local.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "common/status.h"
#include "core/lmp.h"

namespace lmp::workloads {

class PoolKvStore {
 public:
  static constexpr std::size_t kValueSize = 56;
  using Value = std::array<std::byte, kValueSize>;
  // Record tags are key+2 so 0/1 can mark empty/tombstone; the top two keys
  // would wrap onto those sentinels (a live record indistinguishable from
  // an empty or deleted slot — clobbered on the next colliding Put).  All
  // operations reject them with kInvalidArgument.
  static constexpr std::uint64_t kMaxKey = ~0ull - 2;

  // Capacity is rounded up to a power of two bucket count.
  static StatusOr<PoolKvStore> Create(Pool* pool, std::uint64_t capacity,
                                      cluster::ServerId home);

  // Inserts or overwrites.  Fails with kOutOfMemory when the table is full.
  Status Put(cluster::ServerId from, std::uint64_t key,
             std::span<const std::byte> value, SimTime now = 0);

  // kNotFound when absent.
  StatusOr<Value> Get(cluster::ServerId from, std::uint64_t key,
                      SimTime now = 0);

  Status Delete(cluster::ServerId from, std::uint64_t key, SimTime now = 0);

  // Multi-writer safe Put: serializes the mutation through a lock in the
  // pool's coherent region (§3.2 — coordination is exactly what the small
  // coherent slice exists for).  One TryLock; a held lock (a wedged peer —
  // the call is synchronous, so no holder can release meanwhile) returns
  // kUnavailable after the wait a queued acquirer would give up on.
  //
  // Time model: the TryLock is a CAS round trip to the coherent region and
  // costs `spin_rtt` of simulated time (<= 0 uses Link0's unloaded round
  // trip), as does the final unlock.  The put itself runs after the CAS,
  // so the hotness profile's timestamps see the lock's cost; `completed_at`
  // (optional) reports when the call finished — a kUnavailable timeout
  // takes max_spins * spin_rtt (max_spins >= 1), never zero time.
  Status PutLocked(core::DistributedLock* lock, cluster::ServerId from,
                   std::uint64_t key, std::span<const std::byte> value,
                   SimTime now = 0, int max_spins = 1000,
                   SimTime spin_rtt = 0, SimTime* completed_at = nullptr);

  std::uint64_t size() const { return size_; }
  std::uint64_t bucket_count() const { return buckets_; }
  core::BufferId buffer() const { return buffer_; }
  std::uint64_t total_probes() const { return probes_; }

  Status Release();

 private:
  // 64-byte record: 8-byte tag + 56-byte value.  Tag 0 = empty,
  // 1 = tombstone, otherwise key+2.
  struct Record {
    std::uint64_t tag = 0;
    Value value{};
  };
  static_assert(sizeof(Record) == 64);

  PoolKvStore(Pool* pool, core::BufferId buffer, std::uint64_t buckets)
      : pool_(pool), buffer_(buffer), buckets_(buckets) {}

  static std::uint64_t Hash(std::uint64_t key);
  static Status CheckKey(std::uint64_t key);
  StatusOr<Record> LoadRecord(cluster::ServerId from, std::uint64_t bucket,
                              SimTime now);
  Status StoreRecord(cluster::ServerId from, std::uint64_t bucket,
                     const Record& rec, SimTime now);

  Pool* pool_ = nullptr;
  core::BufferId buffer_ = core::kInvalidBuffer;
  std::uint64_t buckets_ = 0;
  std::uint64_t size_ = 0;
  std::uint64_t probes_ = 0;
};

}  // namespace lmp::workloads
