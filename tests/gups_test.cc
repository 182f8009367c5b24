// Tests for the GUPS throughput model and the KV store's locked put.
#include <gtest/gtest.h>

#include "workloads/gups.h"
#include "workloads/kv_store.h"

namespace lmp::workloads {
namespace {

std::unique_ptr<Pool> MakePool() {
  auto pool = Pool::Create(PoolOptions::Small());
  EXPECT_TRUE(pool.ok());
  return std::move(pool).value();
}

// --- Throughput model -------------------------------------------------------

TEST(GupsModelTest, FullLocalityMatchesLoadedLatencyRatio) {
  GupsThroughputModel local{.cores = 14, .local_fraction = 1.0,
                            .link = fabric::LinkProfile::Link0()};
  GupsThroughputModel remote{.cores = 14, .local_fraction = 0.0,
                             .link = fabric::LinkProfile::Link0()};
  // 418 / 148 = 2.8x (§4.3's Link0 ratio).
  EXPECT_NEAR(local.Mups() / remote.Mups(), 2.8, 0.05);
}

TEST(GupsModelTest, Link1RatioIsLarger) {
  GupsThroughputModel local{.cores = 14, .local_fraction = 1.0,
                            .link = fabric::LinkProfile::Link1()};
  GupsThroughputModel remote{.cores = 14, .local_fraction = 0.0,
                             .link = fabric::LinkProfile::Link1()};
  EXPECT_NEAR(local.Mups() / remote.Mups(), 3.6, 0.07);
}

TEST(GupsModelTest, SoftwareOverheadDominates) {
  GupsThroughputModel cxl{.cores = 14, .local_fraction = 0.0,
                          .link = fabric::LinkProfile::Link0()};
  GupsThroughputModel swap{.cores = 14, .local_fraction = 0.0,
                           .link = fabric::LinkProfile::Link0(),
                           .software_overhead_ns = Microseconds(4)};
  EXPECT_GT(cxl.Mups() / swap.Mups(), 9.0);
}

TEST(GupsModelTest, ThroughputScalesWithCores) {
  GupsThroughputModel one{.cores = 1, .local_fraction = 0.5};
  GupsThroughputModel many{.cores = 14, .local_fraction = 0.5};
  EXPECT_NEAR(many.Mups() / one.Mups(), 14.0, 1e-9);
}

// --- KV locked put (coherent-region coordination) -------------------------

TEST(KvLockedPutTest, SerializesAndSucceeds) {
  auto pool = MakePool();
  auto kv = PoolKvStore::Create(pool.get(), 64, 0);
  ASSERT_TRUE(kv.ok());
  core::DistributedLock lock(&pool->coherent(), 0);
  const char v[] = "locked";
  ASSERT_TRUE(kv->PutLocked(&lock, 2, 9,
                            std::span<const std::byte>(
                                reinterpret_cast<const std::byte*>(v),
                                sizeof(v) - 1))
                  .ok());
  EXPECT_FALSE(lock.IsHeld());  // released afterwards
  EXPECT_TRUE(kv->Get(0, 9).ok());
  EXPECT_GE(lock.acquisitions(), 1u);
}

TEST(KvLockedPutTest, HeldLockTimesOut) {
  auto pool = MakePool();
  auto kv = PoolKvStore::Create(pool.get(), 64, 0);
  ASSERT_TRUE(kv.ok());
  core::DistributedLock lock(&pool->coherent(), 0);
  ASSERT_TRUE(*lock.TryLock(3));  // a wedged peer holds the lock
  const char v[] = "x";
  const Status st = kv->PutLocked(
      &lock, 1, 1,
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(v), 1),
      0, /*max_spins=*/5);
  EXPECT_TRUE(IsUnavailable(st));
  EXPECT_TRUE(IsNotFound(kv->Get(0, 1).status()));  // nothing written
}

}  // namespace
}  // namespace lmp::workloads
