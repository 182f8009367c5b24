// Steady-state allocation test for the op engine's B+tree hops.  Every
// global operator new in this binary is counted (support/counting_new.h,
// as in pool_manager_test), so a warmed closed loop of mixed get/put/scan
// ops can be held to a per-op allocation budget: op records, parked
// steps, timer slots and counter handles are all reused once warm.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "baselines/logical.h"
#include "common/metrics.h"
#include "ops/btree_ops.h"
#include "ops/op_engine.h"
#include "support/counting_new.h"
#include "workloads/pool_btree.h"

namespace lmp::ops {
namespace {

using workloads::PoolBtree;

cluster::ClusterConfig SmallBackedConfig() {
  cluster::ClusterConfig cfg;
  cfg.num_servers = 4;
  cfg.cores_per_server = 4;
  cfg.server_total_memory = MiB(64);
  cfg.server_shared_memory = MiB(64);
  cfg.with_backing = true;
  return cfg;
}

// A warmed closed loop of 1,000 mixed ops (50 % get, 35 % put, 15 % scan,
// 32 outstanding, issued from every server) allocates less than once per
// 20 ops: 20 in all at this writing, every one a chunk of a lock's waiter
// FIFO (a std::deque) as the queue moves.  Puts overwrite preloaded keys,
// so no insert splits a node.
TEST(OpsAllocTest, WarmClosedLoopAllocatesUnderBudget) {
  MetricsRegistry metrics;
  baselines::LogicalDeployment deploy(fabric::LinkProfile::Link0(),
                                      SmallBackedConfig());
  OpEngine::Options opts;
  opts.metrics = &metrics;
  OpEngine engine(&deploy.simulator(), &deploy.topology(), &deploy.manager(),
                  opts);
  auto tree_or = PoolBtree::Create(&deploy.manager(), 1024, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  constexpr std::uint64_t kKeys = 3000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree.Insert(0, k * 5, k).ok());
  }
  ASSERT_GE(tree.height(), 3);
  BtreeOpDriver driver(&engine, &tree, 4);

  // Callbacks capture one reference each: stored inline, never allocated.
  std::uint64_t values = 0;
  std::uint64_t rows_seen = 0;
  const std::function<void(StatusOr<std::uint64_t>)> on_value =
      [&values](StatusOr<std::uint64_t> v) { values += v.ok() ? 1 : 0; };
  const std::function<void(const PoolBtree::Rows&)> on_rows =
      [&rows_seen](const PoolBtree::Rows& rows) { rows_seen += rows.size(); };

  int submitted = 0;
  int target = 0;
  std::uint64_t failed = 0;
  auto submit_one = [&] {
    const int i = submitted++;
    const std::uint64_t key =
        static_cast<std::uint64_t>(i * 7919) % kKeys * 5;
    const auto server = static_cast<cluster::ServerId>(i % 4);
    const int core = (i / 4) % 4;
    const int mix = i % 20;
    if (mix < 10) {
      driver.SubmitGet(server, core, key, on_value);
    } else if (mix < 17) {
      driver.SubmitPut(server, core, key, static_cast<std::uint64_t>(i));
    } else {
      driver.SubmitScan(server, core, key, 16, on_rows);
    }
  };
  engine.set_on_complete([&](const OpResult& r) {
    if (!r.status.ok()) ++failed;
    if (submitted < target) submit_one();
  });
  auto run = [&](int ops) {
    submitted = 0;
    target = ops;
    for (int i = 0; i < 32; ++i) submit_one();
    ASSERT_TRUE(engine.Drain().ok());
  };

  constexpr int kOps = 1000;
  run(kOps);  // warm-up: free lists, timer slots, counters, histograms
  const std::uint64_t before = g_new_calls.load();
  run(kOps);
  const std::uint64_t allocations = g_new_calls.load() - before;

  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(engine.completed(), 2u * kOps);
  EXPECT_EQ(values, 2u * (kOps / 2));  // every get found its key
  EXPECT_GT(rows_seen, 0u);
  EXPECT_EQ(driver.states_in_use(), 0u);
  RecordProperty("allocations", static_cast<int>(allocations));
  EXPECT_LT(allocations, static_cast<std::uint64_t>(kOps / 20))
      << allocations << " allocations for " << kOps << " ops";
}

}  // namespace
}  // namespace lmp::ops
