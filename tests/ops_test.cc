// Request-level op engine tests: state machines advance only on simulator
// completions, every hop and lock round trip costs simulated time, and the
// async B+tree driver agrees with the tree's synchronous surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "baselines/logical.h"
#include "common/metrics.h"
#include "ops/btree_ops.h"
#include "ops/op_engine.h"
#include "workloads/pool_btree.h"

namespace lmp::ops {
namespace {

using baselines::LogicalDeployment;
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

struct Harness {
  Harness()
      : deploy(fabric::LinkProfile::Link0(), SmallBackedConfig()),
        engine(&deploy.simulator(), &deploy.topology(), &deploy.manager(),
               MakeOptions(&metrics)) {}

  static OpEngine::Options MakeOptions(MetricsRegistry* registry) {
    OpEngine::Options opts;
    opts.metrics = registry;
    return opts;
  }

  MetricsRegistry metrics;
  LogicalDeployment deploy;
  OpEngine engine;
};

TEST(OpEngineTest, ReadOpCostsSimTimeAndRecordsLatency) {
  Harness h;
  auto buf = h.deploy.manager().Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());

  std::vector<OpResult> results;
  h.engine.set_on_complete(
      [&](const OpResult& r) { results.push_back(r); });
  h.engine.Submit(OpKind::kGet, /*server=*/1, /*core=*/0,
                  [&](OpEngine::Op& op) {
                    h.engine.Read(op, *buf, 0, KiB(4), [&](OpEngine::Op& o) {
                      h.engine.Finish(o);
                    });
                  });
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].status.ok());
  EXPECT_EQ(results[0].hops, 1);
  EXPECT_GT(results[0].finish_time, results[0].submit_time);
  const Histogram* hist = h.metrics.FindHistogram("ops.get");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
  EXPECT_GT(hist->p50(), 0u);
  EXPECT_EQ(h.metrics.Counter("ops.completed"), 1u);
  EXPECT_EQ(h.metrics.Counter("ops.hops"), 1u);
}

TEST(OpEngineTest, StepsNeverRunInsideSubmit) {
  Harness h;
  bool step_ran = false;
  h.engine.Submit(OpKind::kOther, 0, 0, [&](OpEngine::Op& op) {
    step_ran = true;
    h.engine.Finish(op);
  });
  EXPECT_FALSE(step_ran);  // deferred through the timer wheel
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_TRUE(step_ran);
}

TEST(OpEngineTest, ClosedLoopKeepsThousandsOfOpsInFlight) {
  Harness h;
  auto buf = h.deploy.manager().Allocate(MiB(4), 0);
  ASSERT_TRUE(buf.ok());

  const int kTotal = 1000;
  const int kWindow = 64;
  int submitted = 0;
  auto submit_one = [&] {
    const auto server = static_cast<cluster::ServerId>(submitted % 4);
    const Bytes offset = static_cast<Bytes>(submitted % 512) * KiB(4);
    ++submitted;
    h.engine.Submit(OpKind::kGet, server, 0, [&, offset](OpEngine::Op& op) {
      h.engine.Read(op, *buf, offset, KiB(4), [&](OpEngine::Op& o) {
        h.engine.Finish(o);
      });
    });
  };
  h.engine.set_on_complete([&](const OpResult&) {
    if (submitted < kTotal) submit_one();
  });
  for (int i = 0; i < kWindow; ++i) submit_one();
  ASSERT_TRUE(h.engine.Drain().ok());

  EXPECT_EQ(h.engine.completed(), static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(h.engine.failed(), 0u);
  EXPECT_EQ(h.engine.in_flight(), 0u);
  const Histogram* hist = h.metrics.FindHistogram("ops.get");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), static_cast<std::uint64_t>(kTotal));
}

TEST(OpEngineTest, UnresolvableAccessFailsTheOp) {
  Harness h;
  std::vector<OpResult> results;
  h.engine.set_on_complete(
      [&](const OpResult& r) { results.push_back(r); });
  h.engine.Submit(OpKind::kGet, 0, 0, [&](OpEngine::Op& op) {
    h.engine.Read(op, core::BufferId{9999}, 0, KiB(4),
                  [&](OpEngine::Op& o) {
                    ADD_FAILURE() << "step ran for unresolvable access";
                    h.engine.Finish(o);
                  });
  });
  ASSERT_TRUE(h.engine.Drain().ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].status.ok());
  EXPECT_EQ(h.engine.failed(), 1u);
}

// Satellite 3's engine-level counterpart: two contending writers serialize,
// and the loser's wait is visible sim time (lock_spins > 0, nonzero
// latency), not a free same-instant spin loop.
TEST(OpEngineTest, ContendingAcquiresSerializeWithMeasuredWait) {
  Harness h;
  core::CoherentRegion region(/*size=*/64, /*granularity=*/8,
                              /*num_hosts=*/4);
  core::DistributedLock lock(&region, 0);
  const SimTime hold = Microseconds(5);

  std::map<OpId, OpResult> results;
  h.engine.set_on_complete(
      [&](const OpResult& r) { results[r.id] = r; });

  auto locked_op = [&](cluster::ServerId server) {
    return h.engine.Submit(
        OpKind::kPut, server, 0, [&](OpEngine::Op& op) {
          h.engine.Acquire(op, &lock, [&](OpEngine::Op& o1) {
            h.engine.Delay(o1, hold, [&](OpEngine::Op& o2) {
              h.engine.Release(o2, &lock, [&](OpEngine::Op& o3) {
                h.engine.Finish(o3);
              });
            });
          });
        });
  };
  const OpId a = locked_op(0);
  const OpId b = locked_op(1);
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_TRUE(results.count(a) && results.count(b));
  EXPECT_TRUE(results[a].status.ok());
  EXPECT_TRUE(results[b].status.ok());
  // Both ops were submitted at the same instant; the winner holds for
  // `hold`, so the loser must spin and finish strictly later.
  const OpResult& first =
      results[a].finish_time < results[b].finish_time ? results[a]
                                                      : results[b];
  const OpResult& second =
      results[a].finish_time < results[b].finish_time ? results[b]
                                                      : results[a];
  EXPECT_GT(second.lock_spins, 0);
  EXPECT_GT(first.finish_time, first.submit_time);
  EXPECT_GE(second.finish_time, first.finish_time + hold);
  EXPECT_GE(h.metrics.Counter("ops.lock_spins"), 1u);
  EXPECT_FALSE(lock.IsHeld());
}

TEST(OpEngineTest, WedgedLockFailsAfterMeasuredSpins) {
  Harness h2;
  core::CoherentRegion region(64, 8, 4);
  core::DistributedLock lock(&region, 0);
  ASSERT_TRUE(*lock.TryLock(3));  // wedged peer

  OpEngine::Options opts;
  opts.metrics = &h2.metrics;
  opts.max_lock_spins = 7;
  OpEngine engine(&h2.deploy.simulator(), &h2.deploy.topology(),
                  &h2.deploy.manager(), opts);
  std::vector<OpResult> results;
  engine.set_on_complete([&](const OpResult& r) { results.push_back(r); });
  engine.Submit(OpKind::kPut, 0, 0, [&](OpEngine::Op& op) {
    engine.Acquire(op, &lock, [&](OpEngine::Op& o) {
      ADD_FAILURE() << "acquired a wedged lock";
      engine.Finish(o);
    });
  });
  ASSERT_TRUE(engine.Drain().ok());

  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(IsUnavailable(results[0].status));
  EXPECT_EQ(results[0].lock_spins, 7);
  // The timeout took max_lock_spins round trips of sim time, not zero.
  EXPECT_GE(results[0].finish_time - results[0].submit_time,
            7 * engine.lock_rtt());
}

// A continuation parked by Acquire runs exactly once, including when it
// parks a second Acquire on the same op, and whether the lock was free or
// contended.
TEST(OpEngineTest, ParkedContinuationRunsExactlyOnce) {
  Harness h;
  core::CoherentRegion region(64, 8, 4);
  core::DistributedLock outer(&region, 0);
  core::DistributedLock inner(&region, 8);
  std::map<OpId, int> outer_runs;
  std::map<OpId, int> inner_runs;
  std::map<OpId, OpResult> results;
  h.engine.set_on_complete([&](const OpResult& r) { results[r.id] = r; });

  auto nested_op = [&](cluster::ServerId server) {
    return h.engine.Submit(OpKind::kPut, server, 0, [&](OpEngine::Op& op) {
      h.engine.Acquire(op, &outer, [&](OpEngine::Op& o1) {
        ++outer_runs[o1.id()];
        h.engine.Acquire(o1, &inner, [&](OpEngine::Op& o2) {
          ++inner_runs[o2.id()];
          h.engine.Release(o2, &inner, [&](OpEngine::Op& o3) {
            h.engine.Release(o3, &outer, [&](OpEngine::Op& o4) {
              h.engine.Finish(o4);
            });
          });
        });
      });
    });
  };
  // Holds `inner` for a while, so the nested acquires spin on it too.
  const OpId hog = h.engine.Submit(
      OpKind::kPut, 3, 0, [&](OpEngine::Op& op) {
        h.engine.Acquire(op, &inner, [&](OpEngine::Op& o1) {
          ++inner_runs[o1.id()];
          h.engine.Delay(o1, Microseconds(5), [&](OpEngine::Op& o2) {
            h.engine.Release(o2, &inner, [&](OpEngine::Op& o3) {
              h.engine.Finish(o3);
            });
          });
        });
      });
  const std::vector<OpId> ids = {nested_op(0), nested_op(1), nested_op(2)};
  ASSERT_TRUE(h.engine.Drain().ok());

  int spins = 0;
  for (OpId id : ids) {
    EXPECT_EQ(outer_runs[id], 1) << "op " << id;
    EXPECT_EQ(inner_runs[id], 1) << "op " << id;
    ASSERT_TRUE(results.count(id));
    EXPECT_TRUE(results[id].status.ok());
    spins += results[id].lock_spins;
  }
  EXPECT_EQ(inner_runs[hog], 1);
  EXPECT_GT(spins, 0);
  EXPECT_FALSE(outer.IsHeld());
  EXPECT_FALSE(inner.IsHeld());
}

// A wedged acquire gives up after max_lock_spins and destroys the
// continuation it parked, without running it.
TEST(OpEngineTest, WedgedAcquireDestroysItsContinuation) {
  Harness h;
  core::CoherentRegion region(64, 8, 4);
  core::DistributedLock lock(&region, 0);
  ASSERT_TRUE(*lock.TryLock(3));  // wedged peer

  OpEngine::Options opts;
  opts.metrics = &h.metrics;
  opts.max_lock_spins = 4;
  OpEngine engine(&h.deploy.simulator(), &h.deploy.topology(),
                  &h.deploy.manager(), opts);
  std::vector<OpResult> results;
  engine.set_on_complete([&](const OpResult& r) { results.push_back(r); });
  auto token = std::make_shared<int>(0);
  bool ran = false;
  engine.Submit(OpKind::kPut, 0, 0, [&, token](OpEngine::Op& op) {
    engine.Acquire(op, &lock, [&ran, token, &engine](OpEngine::Op& o) {
      ran = true;
      engine.Finish(o);
    });
  });
  EXPECT_GT(token.use_count(), 1);
  ASSERT_TRUE(engine.Drain().ok());

  EXPECT_FALSE(ran);
  EXPECT_EQ(token.use_count(), 1) << "a step closure outlived its op";
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(IsUnavailable(results[0].status));
  EXPECT_EQ(results[0].lock_spins, 4);
}

// Ops that find a lock held queue in arrival order (not submission order),
// and each is granted exactly one round trip after the previous release:
// the hand-off, not a poll, wakes the next waiter.
TEST(OpEngineTest, QueuedAcquiresAreGrantedInArrivalOrder) {
  Harness h;
  sim::FluidSimulator& sim = h.deploy.simulator();
  core::CoherentRegion region(64, 8, 4);
  core::DistributedLock lock(&region, 0);
  const SimTime hold = Microseconds(2);
  std::vector<OpId> granted;
  std::vector<SimTime> granted_at;
  std::vector<SimTime> released_at;
  std::map<OpId, OpResult> results;
  h.engine.set_on_complete([&](const OpResult& r) { results[r.id] = r; });

  // Each op waits `arrive` before its Acquire, holds for `hold`, releases.
  auto locked_op = [&](cluster::ServerId server, SimTime arrive) {
    return h.engine.Submit(
        OpKind::kPut, server, 0, [&, arrive](OpEngine::Op& op) {
          h.engine.Delay(op, arrive, [&](OpEngine::Op& o0) {
            h.engine.Acquire(o0, &lock, [&](OpEngine::Op& o1) {
              granted.push_back(o1.id());
              granted_at.push_back(sim.now());
              h.engine.Delay(o1, hold, [&](OpEngine::Op& o2) {
                released_at.push_back(sim.now());
                h.engine.Release(o2, &lock, [&](OpEngine::Op& o3) {
                  h.engine.Finish(o3);
                });
              });
            });
          });
        });
  };
  const OpId holder = locked_op(0, 0);
  // Submitted in id order, arriving in reverse, all while the lock is held.
  const OpId late = locked_op(1, Nanoseconds(300));
  const OpId mid = locked_op(2, Nanoseconds(200));
  const OpId early = locked_op(3, Nanoseconds(100));
  ASSERT_LT(Nanoseconds(300) + h.engine.lock_rtt(), h.engine.lock_rtt() + hold);
  ASSERT_TRUE(h.engine.Drain().ok());

  EXPECT_EQ(granted, (std::vector<OpId>{holder, early, mid, late}));
  ASSERT_EQ(granted_at.size(), 4u);
  ASSERT_EQ(released_at.size(), 4u);
  EXPECT_DOUBLE_EQ(granted_at[0], h.engine.lock_rtt());
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(granted_at[i], released_at[i - 1] + h.engine.lock_rtt())
        << "grant " << i;
  }
  for (OpId id : {holder, early, mid, late}) {
    ASSERT_TRUE(results.count(id));
    EXPECT_TRUE(results[id].status.ok());
  }
  EXPECT_EQ(results[holder].lock_spins, 0);
  EXPECT_GT(results[early].lock_spins, 0);
  EXPECT_GT(results[late].lock_spins, results[mid].lock_spins);
  EXPECT_FALSE(lock.IsHeld());
  EXPECT_EQ(lock.waiters(), 0u);
}

// A contended acquire costs a bounded number of simulator events however
// long the holder keeps the lock (a poll per round trip would cost ~6,000
// Steps behind a 1 ms hold), and its cancelled wedge deadline leaves
// nothing behind on the timer wheel.
TEST(OpEngineTest, ContendedAcquireStepsDoNotGrowWithHoldTime) {
  auto steps_behind = [](SimTime hold, int* waiter_spins) {
    Harness h;
    OpEngine::Options opts;
    opts.metrics = &h.metrics;
    opts.max_lock_spins = 1000000;
    OpEngine engine(&h.deploy.simulator(), &h.deploy.topology(),
                    &h.deploy.manager(), opts);
    core::CoherentRegion region(64, 8, 4);
    core::DistributedLock lock(&region, 0);
    std::vector<OpResult> results;
    engine.set_on_complete([&](const OpResult& r) { results.push_back(r); });
    for (cluster::ServerId server : {0, 1}) {
      engine.Submit(OpKind::kPut, server, 0, [&, hold](OpEngine::Op& op) {
        engine.Acquire(op, &lock, [&, hold](OpEngine::Op& o1) {
          engine.Delay(o1, hold, [&](OpEngine::Op& o2) {
            engine.Release(o2, &lock,
                           [&](OpEngine::Op& o3) { engine.Finish(o3); });
          });
        });
      });
    }
    sim::FluidSimulator& sim = h.deploy.simulator();
    int steps = 0;
    while (engine.in_flight() > 0 && sim.Step()) ++steps;
    EXPECT_EQ(results.size(), 2u);
    for (const OpResult& r : results) EXPECT_TRUE(r.status.ok());
    const SimTime end = sim.now();
    EXPECT_FALSE(sim.Step()) << "a timer outlived the ops";
    EXPECT_EQ(sim.now(), end);
    *waiter_spins = results.back().lock_spins;
    return steps;
  };
  int short_spins = 0;
  int long_spins = 0;
  const int short_steps = steps_behind(Microseconds(10), &short_spins);
  const int long_steps = steps_behind(Milliseconds(1), &long_spins);
  EXPECT_EQ(long_steps, short_steps);
  EXPECT_LE(long_steps, 10);
  // The wait is still priced in round trips: ~hold / lock_rtt of them.
  EXPECT_GT(long_spins, 50 * short_spins);
  EXPECT_GT(long_spins, 1000);
}

// Runs reads, a contended lock and a wedged lock with counters under
// `prefix`; returns the engine's counters and latency-histogram counts,
// keyed by name without the prefix.
std::map<std::string, std::uint64_t> EngineMetricsUnder(
    const std::string& prefix) {
  MetricsRegistry registry;
  LogicalDeployment deploy(fabric::LinkProfile::Link0(), SmallBackedConfig());
  OpEngine::Options opts;
  opts.metrics = &registry;
  opts.metrics_prefix = prefix;
  opts.max_lock_spins = 5;
  OpEngine engine(&deploy.simulator(), &deploy.topology(), &deploy.manager(),
                  opts);
  auto buf = deploy.manager().Allocate(MiB(1), 0);
  EXPECT_TRUE(buf.ok());
  core::CoherentRegion region(64, 8, 4);
  core::DistributedLock shared(&region, 0);
  core::DistributedLock wedged(&region, 8);
  EXPECT_TRUE(*wedged.TryLock(3));

  for (int i = 0; i < 4; ++i) {
    const auto server = static_cast<cluster::ServerId>(i);
    engine.Submit(OpKind::kPut, server, 0, [&](OpEngine::Op& op) {
      engine.Acquire(op, &shared, [&](OpEngine::Op& o1) {
        engine.Write(o1, *buf, 0, KiB(4), [&](OpEngine::Op& o2) {
          engine.Release(o2, &shared, [&](OpEngine::Op& o3) {
            engine.Finish(o3);
          });
        });
      });
    });
    engine.Submit(OpKind::kGet, server, 1, [&](OpEngine::Op& op) {
      engine.Read(op, *buf, KiB(8), KiB(4), [&](OpEngine::Op& o) {
        engine.Finish(o);
      });
    });
  }
  engine.Submit(OpKind::kPut, 0, 2, [&](OpEngine::Op& op) {
    engine.Acquire(op, &wedged, [&](OpEngine::Op& o) { engine.Finish(o); });
  });
  EXPECT_TRUE(engine.Drain().ok());

  std::map<std::string, std::uint64_t> out;
  const std::string dot = prefix + ".";
  for (const auto& [name, value] : registry.counters()) {
    if (name.starts_with(dot)) out[name.substr(dot.size())] = value;
  }
  for (const auto& [name, hist] : registry.histograms()) {
    if (name.starts_with(dot)) {
      out[name.substr(dot.size()) + ".count"] = hist.count();
    }
  }
  return out;
}

TEST(OpEngineTest, MetricsPrefixOnlyRenamesCounters) {
  const auto ops = EngineMetricsUnder("ops");
  EXPECT_EQ(EngineMetricsUnder("kv"), ops);
  for (const char* name : {"hops", "lock_spins", "completed", "errors",
                           "get.count", "put.count", "lock_wait_ns.count"}) {
    EXPECT_GT(ops.count(name) ? ops.at(name) : 0u, 0u) << name;
  }
}

// --- BtreeOpDriver ----------------------------------------------------------

TEST(BtreeOpsTest, AsyncGetsMatchSynchronousTree) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 512, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  for (std::uint64_t k = 0; k < 300; ++k) {
    ASSERT_TRUE(tree.Insert(0, k * 7, k * 7 + 1).ok());
  }
  ASSERT_GT(tree.height(), 1);  // splits happened: real pointer chases

  BtreeOpDriver driver(&h.engine, &tree, /*num_hosts=*/4);
  int checked = 0;
  for (std::uint64_t k = 0; k < 300; k += 17) {
    driver.SubmitGet(static_cast<cluster::ServerId>(k % 4), 0, k * 7,
                     [&, k](StatusOr<std::uint64_t> v) {
                       ASSERT_TRUE(v.ok());
                       EXPECT_EQ(*v, k * 7 + 1);
                       ++checked;
                     });
  }
  driver.SubmitGet(1, 0, 999999,
                   [&](StatusOr<std::uint64_t> v) {
                     EXPECT_TRUE(IsNotFound(v.status()));
                     ++checked;
                   });
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(checked, 19);

  // Every async get paid one priced hop per tree level.
  const Histogram* hist = h.metrics.FindHistogram("ops.get");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 18u);  // misses are not successes
  EXPECT_GT(hist->p50(), 0u);
  EXPECT_GE(h.metrics.Counter("ops.hops"),
            19u * static_cast<std::uint64_t>(tree.height()));
}

TEST(BtreeOpsTest, AsyncScanMatchesSynchronousScan) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 512, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  for (std::uint64_t k = 0; k < 400; ++k) {
    ASSERT_TRUE(tree.Insert(0, k * 3, k).ok());
  }
  auto expected = tree.Scan(0, 100, 50);
  ASSERT_TRUE(expected.ok());
  ASSERT_EQ(expected->size(), 50u);

  BtreeOpDriver driver(&h.engine, &tree, 4);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> got;
  driver.SubmitScan(2, 0, 100, 50,
                    [&](const auto& rows) { got = rows; });
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(got, *expected);
  const Histogram* hist = h.metrics.FindHistogram("ops.scan");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 1u);
}

TEST(BtreeOpsTest, AsyncPutsVisibleToSyncLookupAndSerialized) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 512, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;

  BtreeOpDriver::Options dopts;
  dopts.lock_stripes = 1;  // force every writer onto one lock
  BtreeOpDriver driver(&h.engine, &tree, 4, dopts);
  std::map<OpId, OpResult> results;
  h.engine.set_on_complete([&](const OpResult& r) { results[r.id] = r; });

  const OpId a = driver.SubmitPut(0, 0, 42, 1000);
  const OpId b = driver.SubmitPut(1, 0, 43, 2000);
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_TRUE(results[a].status.ok());
  ASSERT_TRUE(results[b].status.ok());
  auto v42 = tree.Lookup(0, 42);
  auto v43 = tree.Lookup(0, 43);
  ASSERT_TRUE(v42.ok());
  ASSERT_TRUE(v43.ok());
  EXPECT_EQ(*v42, 1000u);
  EXPECT_EQ(*v43, 2000u);
  // One writer held the single stripe while the other spun: the loser's
  // wait is measured sim time.
  EXPECT_GT(results[a].lock_spins + results[b].lock_spins, 0);
  EXPECT_NE(results[a].finish_time, results[b].finish_time);
  const Histogram* hist = h.metrics.FindHistogram("ops.put");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
}

// A put that fails while holding its stripe (its descent reaches a segment
// lost in a crash) hands the stripe to the next queued put as it finishes,
// and that put completes.
TEST(BtreeOpsTest, FailedLockedPutHandsStripeToNextWriter) {
  Harness h;
  core::PoolManager& manager = h.deploy.manager();
  auto tree_or = PoolBtree::Create(&manager, 512, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  constexpr std::uint64_t kKeys = 4000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(tree.Insert(0, k, k).ok());
  }
  const std::uint64_t doomed_key = kKeys - 1;  // rightmost leaf, allocated last
  const std::uint64_t safe_key = 0;
  std::vector<std::uint32_t> doomed_path;
  std::vector<std::uint32_t> safe_path;
  ASSERT_TRUE(tree.DescendPath(0, doomed_key, 0, &doomed_path).ok());
  ASSERT_TRUE(tree.DescendPath(0, safe_key, 0, &safe_path).ok());

  // Isolate the doomed leaf's frame in its own segment, home it on server
  // 2, and crash server 2.  Every other node either put reads survives.
  const Bytes frame = h.deploy.cluster().config().frame_size;
  const Bytes leaf_frame = tree.NodeOffset(doomed_path.back()) / frame;
  const auto in_leaf_frame = [&](std::uint32_t node) {
    return tree.NodeOffset(node) / frame == leaf_frame;
  };
  for (std::size_t i = 0; i + 1 < doomed_path.size(); ++i) {
    ASSERT_FALSE(in_leaf_frame(doomed_path[i]));
  }
  for (std::uint32_t node : safe_path) ASSERT_FALSE(in_leaf_frame(node));
  ASSERT_TRUE(manager.SplitSegmentAt(tree.buffer(), leaf_frame * frame).ok());
  const Bytes arena = tree.max_nodes() * PoolBtree::kNodeBytes;
  if ((leaf_frame + 1) * frame < arena) {
    ASSERT_TRUE(
        manager.SplitSegmentAt(tree.buffer(), (leaf_frame + 1) * frame).ok());
  }
  auto spans = manager.Spans(tree.buffer(), leaf_frame * frame, frame);
  ASSERT_TRUE(spans.ok());
  ASSERT_EQ(spans->size(), 1u);
  ASSERT_TRUE(manager.MigrateSegment((*spans)[0].segment, 2).ok());
  auto lost = manager.OnServerCrash(2);
  ASSERT_TRUE(lost.ok());
  ASSERT_EQ(lost->size(), 1u);

  BtreeOpDriver::Options dopts;
  dopts.lock_stripes = 1;
  BtreeOpDriver driver(&h.engine, &tree, 4, dopts);
  std::map<OpId, OpResult> results;
  h.engine.set_on_complete([&](const OpResult& r) { results[r.id] = r; });
  // Same instant: the doomed put takes the stripe, the safe one queues.
  const OpId doomed = driver.SubmitPut(0, 0, doomed_key, 7);
  const OpId safe = driver.SubmitPut(1, 0, safe_key, 9);
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_TRUE(results.count(doomed) && results.count(safe));
  EXPECT_FALSE(results[doomed].status.ok());
  EXPECT_EQ(results[doomed].lock_spins, 0);
  EXPECT_TRUE(results[safe].status.ok()) << results[safe].status;
  EXPECT_GT(results[safe].lock_spins, 0);
  auto v = tree.Lookup(0, safe_key);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 9u);
  core::DistributedLock* stripe = driver.lock_for(safe_key);
  EXPECT_FALSE(stripe->IsHeld());
  EXPECT_EQ(stripe->waiters(), 0u);
}

TEST(BtreeOpsTest, GetPaysMoreHopsAsTheTreeDeepens) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 2048, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  BtreeOpDriver driver(&h.engine, &tree, 4);

  ASSERT_TRUE(tree.Insert(0, 1, 1).ok());
  int shallow_hops = 0;
  h.engine.set_on_complete(
      [&](const OpResult& r) { shallow_hops = r.hops; });
  driver.SubmitGet(0, 0, 1);
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(shallow_hops, 1);  // root-leaf tree: one hop

  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree.Insert(0, k, k).ok());
  }
  ASSERT_GE(tree.height(), 3);
  int deep_hops = 0;
  h.engine.set_on_complete([&](const OpResult& r) { deep_hops = r.hops; });
  driver.SubmitGet(0, 0, 1);
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(deep_hops, tree.height());
}

}  // namespace
}  // namespace lmp::ops
