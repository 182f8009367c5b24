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

// The pending table grows past an op that stays parked while hundreds of
// later ops come and go: the wedged acquire is still found at its deadline,
// and every short op's result is its own.
TEST(OpEngineTest, LongLivedOpSurvivesPendingTableGrowth) {
  Harness h;
  auto buf = h.deploy.manager().Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());
  core::CoherentRegion region(64, 8, 4);
  core::DistributedLock lock(&region, 0);
  ASSERT_TRUE(*lock.TryLock(3));  // wedged peer

  constexpr int kShort = 500;
  int submitted = 0;
  std::map<OpId, OpResult> results;
  auto submit_short = [&] {
    ++submitted;
    h.engine.Submit(OpKind::kGet, 0, 0, [&](OpEngine::Op& op) {
      h.engine.Read(op, *buf, 0, 512,
                    [&](OpEngine::Op& o) { h.engine.Finish(o); });
    });
  };
  h.engine.set_on_complete([&](const OpResult& r) {
    results[r.id] = r;
    if (submitted < kShort) submit_short();
  });
  bool ran = false;
  const OpId wedged =
      h.engine.Submit(OpKind::kPut, 1, 0, [&](OpEngine::Op& op) {
        h.engine.Acquire(op, &lock, [&](OpEngine::Op& o) {
          ran = true;
          h.engine.Finish(o);
        });
      });
  for (int i = 0; i < 4; ++i) submit_short();
  ASSERT_TRUE(h.engine.Drain().ok());

  EXPECT_FALSE(ran);
  ASSERT_EQ(results.size(), static_cast<std::size_t>(kShort) + 1);
  EXPECT_TRUE(IsUnavailable(results[wedged].status));
  for (const auto& [id, r] : results) {
    if (id == wedged) continue;
    EXPECT_TRUE(r.status.ok()) << "op " << id;
    EXPECT_EQ(r.kind, OpKind::kGet) << "op " << id;
    EXPECT_EQ(r.hops, 1) << "op " << id;
    EXPECT_LT(r.finish_time, results[wedged].finish_time) << "op " << id;
  }
  EXPECT_EQ(h.engine.in_flight(), 0u);
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

// Ops price logical pools only: a pool box in the topology or in the
// cluster is refused at construction.
TEST(OpEngineDeathTest, RefusesAPoolBox) {
  sim::FluidSimulator sim;
  cluster::Cluster logical_cluster(SmallBackedConfig());
  core::PoolManager logical_manager(&logical_cluster);
  fabric::Topology physical = fabric::Topology::MakePhysical(
      &sim, 4, fabric::LinkProfile::Link0(), fabric::MachineProfile{});
  EXPECT_DEATH(OpEngine(&sim, &physical, &logical_manager),
               "logical pools only");

  cluster::ClusterConfig pooled = SmallBackedConfig();
  pooled.physical_pool = true;
  pooled.pool_capacity = MiB(64);
  cluster::Cluster pooled_cluster(pooled);
  core::PoolManager pooled_manager(&pooled_cluster);
  fabric::Topology logical = fabric::Topology::MakeLogical(
      &sim, 4, fabric::LinkProfile::Link0(), fabric::MachineProfile{});
  EXPECT_DEATH(OpEngine(&sim, &logical, &pooled_manager),
               "logical pools only");
}

// --- Closed-form pricing -----------------------------------------------------

// k + 1 same-priced accesses from one core with k miss slots: the first k
// run at once and the last starts, FIFO, exactly when the first completes.
// Another core's access does not queue behind them.
TEST(OpEngineTest, AccessBeyondTheMissSlotsWaitsForTheFirstToComplete) {
  constexpr int kSlots = kMissSlotsPerCore;
  MetricsRegistry metrics;
  cluster::Cluster cluster(SmallBackedConfig());
  core::PoolManager manager(&cluster);
  sim::FluidSimulator sim;
  fabric::Topology topology = fabric::Topology::MakeLogical(
      &sim, 4, fabric::LinkProfile::Link0(), fabric::MachineProfile{});
  OpEngine engine(&sim, &topology, &manager,
                  Harness::MakeOptions(&metrics));
  auto buf = manager.Allocate(MiB(1), 0);
  ASSERT_TRUE(buf.ok());

  std::map<OpId, SimTime> finish;
  engine.set_on_complete(
      [&](const OpResult& r) { finish[r.id] = r.finish_time; });
  auto submit = [&](int core) {
    return engine.Submit(OpKind::kGet, 0, core, [&](OpEngine::Op& op) {
      engine.Read(op, *buf, 0, 512,
                  [&](OpEngine::Op& o) { engine.Finish(o); });
    });
  };
  std::vector<OpId> same_core;
  for (int i = 0; i <= kSlots; ++i) same_core.push_back(submit(0));
  const OpId other_core = submit(1);
  ASSERT_TRUE(engine.Drain().ok());

  const SimTime access = finish.at(same_core.front());
  EXPECT_GT(access, 0);
  for (int i = 0; i < kSlots; ++i) {
    EXPECT_EQ(finish.at(same_core[static_cast<std::size_t>(i)]), access);
  }
  EXPECT_EQ(finish.at(same_core.back()), access + access);
  EXPECT_EQ(finish.at(other_core), access);
  const Histogram* wait = metrics.FindHistogram("ops.get.slot_wait");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count(), static_cast<std::uint64_t>(kSlots + 2));
  EXPECT_EQ(wait->min(), 0u);
  EXPECT_EQ(wait->max(), static_cast<std::uint64_t>(access));
}

// The engine prices each access on Topology::Route's path; across racks
// that crosses both spine uplinks, as RemotePath does.  With the
// uplinks the tightest resource, the hop's serialization is its bytes at
// their share.
TEST(OpEngineTest, CrossRackAccessIsPricedOnTheSpineUplinks) {
  MetricsRegistry metrics;
  cluster::Cluster cluster(SmallBackedConfig());
  core::PoolManager manager(&cluster);
  sim::FluidSimulator sim;
  fabric::Topology topology = fabric::Topology::MakeLogical(
      &sim, 4, fabric::LinkProfile::Link0(), fabric::MachineProfile{});
  topology.AssignRackShards(2);
  const BytesPerSec uplink = topology.link().bandwidth / 8;
  topology.ProvisionSpine(uplink);
  OpEngine engine(&sim, &topology, &manager,
                  Harness::MakeOptions(&metrics));
  auto buf = manager.Allocate(MiB(1), 3);
  ASSERT_TRUE(buf.ok());
  engine.Submit(OpKind::kGet, 0, 0, [&](OpEngine::Op& op) {
    engine.Read(op, *buf, 0, KiB(4),
                [&](OpEngine::Op& o) { engine.Finish(o); });
  });
  ASSERT_TRUE(engine.Drain().ok());

  const double share = sim.FairShare(topology.RemotePath(0, 0, 3));
  ASSERT_DOUBLE_EQ(share, uplink);
  const Histogram* serialization =
      metrics.FindHistogram("ops.get.serialization");
  ASSERT_NE(serialization, nullptr);
  EXPECT_EQ(serialization->min(),
            static_cast<std::uint64_t>(static_cast<double>(KiB(4)) / share *
                                       kNsPerSec));
  const Histogram* propagation = metrics.FindHistogram("ops.get.propagation");
  ASSERT_NE(propagation, nullptr);
  EXPECT_EQ(propagation->min(),
            static_cast<std::uint64_t>(topology.RemoteLoadedLatency(0, 3)));
}

// A get that takes no lock spends its whole latency in its accesses:
// propagation + serialization + slot wait, summed over its hops, is the
// recorded latency (each component is truncated to whole ns once).
TEST(OpEngineTest, LockFreeGetBreakdownSumsToItsLatency) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 2048, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  for (std::uint64_t k = 0; k < 5000; ++k) {
    ASSERT_TRUE(tree.Insert(0, k, k).ok());
  }
  ASSERT_GE(tree.height(), 3);
  // Half the arena off the client server, so the hops mix both paths.
  auto arena = h.deploy.manager().Describe(tree.buffer());
  ASSERT_TRUE(arena.ok());
  ASSERT_TRUE(h.deploy.manager()
                  .SplitSegmentAt(tree.buffer(), arena->size / 2)
                  .ok());
  arena = h.deploy.manager().Describe(tree.buffer());
  ASSERT_TRUE(h.deploy.manager().MigrateSegment(arena->segments[1], 2).ok());

  BtreeOpDriver driver(&h.engine, &tree, 4);
  int hops = 0;
  h.engine.set_on_complete([&](const OpResult& r) {
    EXPECT_TRUE(r.status.ok());
    hops = r.hops;
  });
  driver.SubmitGet(0, 0, 4321);
  ASSERT_TRUE(h.engine.Drain().ok());
  ASSERT_EQ(hops, tree.height());

  auto one = [&](const std::string& name) {
    const Histogram* hist = h.metrics.FindHistogram(name);
    EXPECT_NE(hist, nullptr) << name;
    if (hist == nullptr) return std::uint64_t{0};
    EXPECT_EQ(hist->count(), 1u) << name;
    return hist->min();
  };
  const std::uint64_t latency = one("ops.get");
  const std::uint64_t propagation = one("ops.get.propagation");
  const std::uint64_t serialization = one("ops.get.serialization");
  const std::uint64_t slot_wait = one("ops.get.slot_wait");
  EXPECT_GT(propagation, 0u);
  EXPECT_GT(serialization, 0u);
  EXPECT_EQ(slot_wait, 0u);  // one op never waits for a slot
  const std::uint64_t sum = propagation + serialization + slot_wait;
  EXPECT_LE(sum, latency);
  EXPECT_LE(latency - sum, static_cast<std::uint64_t>(hops));
}

// The closed-form price follows placement: on two servers, the same gets
// cost strictly more as more of the arena is homed on the peer.
TEST(OpEngineTest, GetLatencyIsOrderedByLocalFraction) {
  auto mean_get = [](int remote_slices) {
    cluster::ClusterConfig cfg = SmallBackedConfig();
    cfg.num_servers = 2;
    MetricsRegistry metrics;
    LogicalDeployment deploy(fabric::LinkProfile::Link0(), cfg);
    OpEngine engine(&deploy.simulator(), &deploy.topology(),
                    &deploy.manager(), Harness::MakeOptions(&metrics));
    auto tree_or = PoolBtree::Create(&deploy.manager(), 256, 0);
    EXPECT_TRUE(tree_or.ok());
    PoolBtree& tree = *tree_or;
    for (std::uint64_t k = 0; k < 3000; ++k) {
      EXPECT_TRUE(tree.Insert(0, k * 3, k).ok());
    }
    core::PoolManager& manager = deploy.manager();
    const Bytes arena = manager.Describe(tree.buffer())->size;
    EXPECT_TRUE(manager.SplitSegmentAt(tree.buffer(), arena / 2).ok());
    const auto segs = manager.Describe(tree.buffer())->segments;
    for (int i = 0; i < remote_slices; ++i) {
      EXPECT_TRUE(
          manager.MigrateSegment(segs[segs.size() - 1 - i], 1).ok());
    }
    BtreeOpDriver driver(&engine, &tree, 2);
    // One get at a time, so no access waits for a slot.
    std::uint64_t key = 0;
    engine.set_on_complete([&](const OpResult& r) {
      EXPECT_TRUE(r.status.ok());
      key += 3 * 29;
      if (key < 3000 * 3) driver.SubmitGet(0, 0, key);
    });
    driver.SubmitGet(0, 0, key);
    EXPECT_TRUE(engine.Drain().ok());
    const Histogram* hist = metrics.FindHistogram("ops.get");
    return hist == nullptr ? 0.0 : hist->mean();
  };
  const double local = mean_get(0);
  const double half = mean_get(1);
  const double remote = mean_get(2);
  EXPECT_GT(local, 0);
  EXPECT_LT(local, half);
  EXPECT_LT(half, remote);
}

// Gets and puts never enter the fluid solver: their accesses are timers.
TEST(OpEngineTest, BtreeOpsDriveNoSolverCalls) {
  Harness h;
  auto tree_or = PoolBtree::Create(&h.deploy.manager(), 2048, 0);
  ASSERT_TRUE(tree_or.ok());
  PoolBtree& tree = *tree_or;
  for (std::uint64_t k = 0; k < 3000; ++k) {
    ASSERT_TRUE(tree.Insert(0, k, k).ok());
  }
  BtreeOpDriver driver(&h.engine, &tree, 4);
  const std::uint64_t calls =
      h.deploy.simulator().solver_stats().recompute_calls;
  for (std::uint64_t k = 0; k < 64; ++k) {
    driver.SubmitGet(static_cast<cluster::ServerId>(k % 4), 0, k * 40);
    driver.SubmitPut(static_cast<cluster::ServerId>(k % 4), 1, k * 40 + 1, k);
  }
  ASSERT_TRUE(h.engine.Drain().ok());
  EXPECT_EQ(h.engine.completed(), 128u);
  EXPECT_EQ(h.engine.failed(), 0u);
  EXPECT_EQ(h.deploy.simulator().solver_stats().recompute_calls, calls);
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

  BtreeOpDriver driver(&h.engine, &tree, 4);
  std::map<OpId, OpResult> results;
  h.engine.set_on_complete([&](const OpResult& r) { results[r.id] = r; });

  // Keys equal mod kLockStripes share one writer stripe.
  constexpr std::uint64_t kKeyA = 42;
  constexpr std::uint64_t kKeyB = kKeyA + BtreeOpDriver::kLockStripes;
  ASSERT_EQ(driver.lock_for(kKeyA), driver.lock_for(kKeyB));
  const OpId a = driver.SubmitPut(0, 0, kKeyA, 1000);
  const OpId b = driver.SubmitPut(1, 0, kKeyB, 2000);
  ASSERT_TRUE(h.engine.Drain().ok());

  ASSERT_TRUE(results[a].status.ok());
  ASSERT_TRUE(results[b].status.ok());
  auto va = tree.Lookup(0, kKeyA);
  auto vb = tree.Lookup(0, kKeyB);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(vb.ok());
  EXPECT_EQ(*va, 1000u);
  EXPECT_EQ(*vb, 2000u);
  // One writer held the shared stripe while the other spun: the loser's
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
  // The smallest key on the doomed key's stripe, in the leftmost leaf.
  const std::uint64_t safe_key = doomed_key % BtreeOpDriver::kLockStripes;
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

  BtreeOpDriver driver(&h.engine, &tree, 4);
  ASSERT_EQ(driver.lock_for(doomed_key), driver.lock_for(safe_key));
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

// Ops the engine ends on its own still give their driver record back: a
// get whose leaf segment is lost in a crash while it reads the root fails
// kDataLoss when it issues the leaf read, and a put whose stripe a peer
// never releases fails kUnavailable at max_lock_spins.
TEST(BtreeOpsTest, EngineEndedOpsReleaseTheirRecords) {
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
  std::vector<std::uint32_t> path;
  ASSERT_TRUE(tree.DescendPath(0, doomed_key, 0, &path).ok());
  ASSERT_GE(path.size(), 2u);

  // Isolate the leaf's frame in its own segment, homed on server 2.
  const Bytes frame = h.deploy.cluster().config().frame_size;
  const Bytes leaf_frame = tree.NodeOffset(path.back()) / frame;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    ASSERT_NE(tree.NodeOffset(path[i]) / frame, leaf_frame);
  }
  ASSERT_TRUE(manager.SplitSegmentAt(tree.buffer(), leaf_frame * frame).ok());
  if ((leaf_frame + 1) * frame < tree.max_nodes() * PoolBtree::kNodeBytes) {
    ASSERT_TRUE(
        manager.SplitSegmentAt(tree.buffer(), (leaf_frame + 1) * frame).ok());
  }
  auto spans = manager.Spans(tree.buffer(), leaf_frame * frame, frame);
  ASSERT_TRUE(spans.ok());
  ASSERT_EQ(spans->size(), 1u);
  ASSERT_TRUE(manager.MigrateSegment((*spans)[0].segment, 2).ok());

  OpEngine::Options opts;
  opts.metrics = &h.metrics;
  opts.max_lock_spins = 4;
  OpEngine engine(&h.deploy.simulator(), &h.deploy.topology(), &manager,
                  opts);
  BtreeOpDriver driver(&engine, &tree, 4);
  std::map<OpId, OpResult> results;
  engine.set_on_complete([&](const OpResult& r) { results[r.id] = r; });

  bool delivered = false;
  const OpId get = driver.SubmitGet(
      0, 0, doomed_key, [&](StatusOr<std::uint64_t>) { delivered = true; });
  // 1 ns in, the root read is still in flight.
  h.deploy.simulator().ScheduleAfter(1, [&](SimTime) {
    auto lost = manager.OnServerCrash(2);
    ASSERT_TRUE(lost.ok());
    EXPECT_EQ(lost->size(), 1u);
  });
  const std::uint64_t put_key = 0;
  core::DistributedLock* stripe = driver.lock_for(put_key);
  ASSERT_NE(stripe, driver.lock_for(doomed_key));
  ASSERT_TRUE(*stripe->TryLock(3));  // wedged peer
  const OpId put = driver.SubmitPut(1, 0, put_key, 9);
  EXPECT_EQ(driver.states_in_use(), 2u);
  ASSERT_TRUE(engine.Drain().ok());

  EXPECT_EQ(driver.states_in_use(), 0u);
  ASSERT_TRUE(results.count(get) && results.count(put));
  EXPECT_TRUE(IsDataLoss(results[get].status)) << results[get].status;
  // Every hop above the leaf was priced; the leaf's failed at issue.
  EXPECT_EQ(results[get].hops, static_cast<int>(path.size()) - 1);
  EXPECT_FALSE(delivered);
  EXPECT_TRUE(IsUnavailable(results[put].status)) << results[put].status;
  EXPECT_EQ(results[put].lock_spins, 4);
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
