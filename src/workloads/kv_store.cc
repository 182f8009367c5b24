#include "workloads/kv_store.h"

#include <bit>
#include <cstring>

#include "common/logging.h"
#include "fabric/link.h"

namespace lmp::workloads {

Status PoolKvStore::CheckKey(std::uint64_t key) {
  if (key > kMaxKey) {
    return InvalidArgumentError("key wraps onto a record-tag sentinel");
  }
  return Status::Ok();
}

std::uint64_t PoolKvStore::Hash(std::uint64_t key) {
  // SplitMix64 finalizer: strong enough for table distribution.
  std::uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

StatusOr<PoolKvStore> PoolKvStore::Create(Pool* pool, std::uint64_t capacity,
                                          cluster::ServerId home) {
  LMP_CHECK(pool != nullptr);
  if (capacity == 0) return InvalidArgumentError("empty store");
  const std::uint64_t buckets = std::bit_ceil(capacity * 2);  // load <= 0.5
  LMP_ASSIGN_OR_RETURN(core::BufferId buffer,
                       pool->Allocate(buckets * sizeof(Record), home));
  // Zero the table so all tags read as empty.
  PoolKvStore store(pool, buffer, buckets);
  const Record zero{};
  for (std::uint64_t b = 0; b < buckets; ++b) {
    LMP_RETURN_IF_ERROR(store.StoreRecord(home, b, zero, 0));
  }
  return store;
}

StatusOr<PoolKvStore::Record> PoolKvStore::LoadRecord(cluster::ServerId from,
                                                      std::uint64_t bucket,
                                                      SimTime now) {
  Record rec;
  LMP_RETURN_IF_ERROR(pool_->manager().Read(
      from, buffer_, bucket * sizeof(Record),
      std::span<std::byte>(reinterpret_cast<std::byte*>(&rec), sizeof(rec)),
      now));
  return rec;
}

Status PoolKvStore::StoreRecord(cluster::ServerId from, std::uint64_t bucket,
                                const Record& rec, SimTime now) {
  return pool_->manager().Write(
      from, buffer_, bucket * sizeof(Record),
      std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(&rec), sizeof(rec)),
      now);
}

Status PoolKvStore::Put(cluster::ServerId from, std::uint64_t key,
                        std::span<const std::byte> value, SimTime now) {
  if (value.size() > kValueSize) {
    return InvalidArgumentError("value exceeds 56 bytes");
  }
  LMP_RETURN_IF_ERROR(CheckKey(key));
  const std::uint64_t tag = key + 2;
  std::uint64_t bucket = Hash(key) & (buckets_ - 1);
  std::optional<std::uint64_t> first_tombstone;
  for (std::uint64_t probe = 0; probe < buckets_; ++probe) {
    ++probes_;
    LMP_ASSIGN_OR_RETURN(Record rec, LoadRecord(from, bucket, now));
    if (rec.tag == tag || rec.tag == 0) {
      const bool inserting = (rec.tag == 0);
      // Prefer reusing an earlier tombstone on insert.
      const std::uint64_t target =
          (inserting && first_tombstone) ? *first_tombstone : bucket;
      Record out;
      out.tag = tag;
      std::memcpy(out.value.data(), value.data(), value.size());
      LMP_RETURN_IF_ERROR(StoreRecord(from, target, out, now));
      if (inserting) ++size_;
      return Status::Ok();
    }
    if (rec.tag == 1 && !first_tombstone) first_tombstone = bucket;
    bucket = (bucket + 1) & (buckets_ - 1);
  }
  if (first_tombstone) {
    Record out;
    out.tag = tag;
    std::memcpy(out.value.data(), value.data(), value.size());
    LMP_RETURN_IF_ERROR(StoreRecord(from, *first_tombstone, out, now));
    ++size_;
    return Status::Ok();
  }
  return OutOfMemoryError("kv table full");
}

StatusOr<PoolKvStore::Value> PoolKvStore::Get(cluster::ServerId from,
                                              std::uint64_t key,
                                              SimTime now) {
  LMP_RETURN_IF_ERROR(CheckKey(key));
  const std::uint64_t tag = key + 2;
  std::uint64_t bucket = Hash(key) & (buckets_ - 1);
  for (std::uint64_t probe = 0; probe < buckets_; ++probe) {
    ++probes_;
    LMP_ASSIGN_OR_RETURN(Record rec, LoadRecord(from, bucket, now));
    if (rec.tag == tag) return rec.value;
    if (rec.tag == 0) break;  // empty slot terminates the probe chain
    bucket = (bucket + 1) & (buckets_ - 1);
  }
  return NotFoundError("key " + std::to_string(key));
}

Status PoolKvStore::Delete(cluster::ServerId from, std::uint64_t key,
                           SimTime now) {
  LMP_RETURN_IF_ERROR(CheckKey(key));
  const std::uint64_t tag = key + 2;
  std::uint64_t bucket = Hash(key) & (buckets_ - 1);
  for (std::uint64_t probe = 0; probe < buckets_; ++probe) {
    ++probes_;
    LMP_ASSIGN_OR_RETURN(Record rec, LoadRecord(from, bucket, now));
    if (rec.tag == tag) {
      rec.tag = 1;  // tombstone
      rec.value.fill(std::byte{0});
      LMP_RETURN_IF_ERROR(StoreRecord(from, bucket, rec, now));
      --size_;
      return Status::Ok();
    }
    if (rec.tag == 0) break;
    bucket = (bucket + 1) & (buckets_ - 1);
  }
  return NotFoundError("key " + std::to_string(key));
}

Status PoolKvStore::PutLocked(core::DistributedLock* lock,
                              cluster::ServerId from, std::uint64_t key,
                              std::span<const std::byte> value, SimTime now,
                              int max_spins, SimTime spin_rtt,
                              SimTime* completed_at) {
  if (lock == nullptr) return InvalidArgumentError("null lock");
  if (max_spins < 1) return InvalidArgumentError("max_spins must be >= 1");
  if (spin_rtt <= 0) spin_rtt = fabric::LinkProfile::Link0().min_latency_ns;
  // One TryLock: a CAS round trip to the coherent region.  The call is
  // synchronous, so nothing can release a held lock while it waits; a
  // queued wait would time out, which is priced in closed form.
  auto held_or = lock->TryLock(static_cast<int>(from));
  if (!held_or.ok()) {
    if (completed_at) *completed_at = now + spin_rtt;
    return held_or.status();
  }
  if (!*held_or) {
    if (completed_at) *completed_at = now + max_spins * spin_rtt;
    return UnavailableError("kv lock held too long");
  }
  const Status put = Put(from, key, value, now + spin_rtt);
  // The unlock store pays its round trip too.
  if (completed_at) *completed_at = now + 2 * spin_rtt;
  LMP_RETURN_IF_ERROR(lock->Unlock(static_cast<int>(from)));
  return put;
}

Status PoolKvStore::Release() { return pool_->Free(buffer_); }

}  // namespace lmp::workloads
