// Randomized property tests for the fluid solver — the substrate every
// timing result rests on.  For random topologies and flow sets:
//   P1  capacity: at every event, the rate sum on each resource never
//       exceeds its capacity;
//   P2  conservation: every flow's bytes are fully served on every
//       resource of its path by completion;
//   P3  termination: the simulation always drains;
//   P4  work conservation (single bottleneck): if all flows cross one
//       shared resource, the makespan equals total bytes / capacity;
//   P5  max-min fairness: equal-demand flows over one resource finish
//       together.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/fluid.h"
#include "sim/stream.h"

namespace lmp::sim {
namespace {

class FluidPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FluidPropertyTest, CapacityAndConservationUnderRandomLoad) {
  Rng rng(GetParam());
  FluidSimulator sim;
  // Every incremental solve is checked bit-exactly against a full pass.
  sim.set_solver_crosscheck(true);

  const int num_resources = static_cast<int>(rng.NextInRange(2, 8));
  std::vector<ResourceId> resources;
  std::vector<double> capacities;
  for (int r = 0; r < num_resources; ++r) {
    const double cap = GBps(static_cast<double>(rng.NextInRange(1, 100)));
    resources.push_back(sim.AddResource("r" + std::to_string(r), cap));
    capacities.push_back(cap);
  }

  const int num_flows = static_cast<int>(rng.NextInRange(3, 24));
  struct FlowSpec {
    FlowId id;
    double bytes;
    std::vector<ResourceId> path;
  };
  std::vector<FlowSpec> flows;
  for (int f = 0; f < num_flows; ++f) {
    FlowSpec spec;
    spec.bytes = static_cast<double>(rng.NextInRange(1, 1000)) * 1e6;
    const int path_len =
        static_cast<int>(rng.NextInRange(1, num_resources));
    std::vector<int> idx(num_resources);
    for (int i = 0; i < num_resources; ++i) idx[i] = i;
    rng.Shuffle(idx);
    for (int i = 0; i < path_len; ++i) {
      spec.path.push_back(resources[idx[i]]);
    }
    spec.id = sim.StartFlow(spec.bytes, spec.path);
    flows.push_back(std::move(spec));
  }

  // P1 checked at every step via instantaneous utilization.
  int steps = 0;
  do {
    for (int r = 0; r < num_resources; ++r) {
      ASSERT_LE(sim.Utilization(resources[r]), 1.0 + 1e-9)
          << "resource " << r << " over capacity";
    }
    ASSERT_LT(++steps, 100000) << "P3 violated: no termination";
  } while (sim.Step());

  // P2: bytes served per resource equal the sum of crossing flows.
  std::vector<double> expected(num_resources, 0.0);
  for (const FlowSpec& f : flows) {
    ASSERT_TRUE(sim.record(f.id)->done);
    for (ResourceId r : f.path) {
      expected[r] += f.bytes;
    }
  }
  for (int r = 0; r < num_resources; ++r) {
    EXPECT_NEAR(sim.BytesServed(resources[r]), expected[r],
                expected[r] * 1e-6 + 1.0)
        << "resource " << r;
  }
}

TEST_P(FluidPropertyTest, SingleBottleneckIsWorkConserving) {
  Rng rng(GetParam() ^ 0xABCD);
  FluidSimulator sim;
  const double cap = GBps(static_cast<double>(rng.NextInRange(5, 50)));
  const ResourceId shared = sim.AddResource("shared", cap);

  double total_bytes = 0;
  const int num_flows = static_cast<int>(rng.NextInRange(2, 16));
  for (int f = 0; f < num_flows; ++f) {
    const double bytes =
        static_cast<double>(rng.NextInRange(10, 500)) * 1e6;
    total_bytes += bytes;
    // Optional private leg that never binds (10x the shared capacity).
    std::vector<ResourceId> path{shared};
    if (rng.NextBernoulli(0.5)) {
      path.insert(path.begin(),
                  sim.AddResource("private" + std::to_string(f), cap * 10));
    }
    sim.StartFlow(bytes, path);
  }
  sim.Run();
  EXPECT_NEAR(sim.now(), total_bytes / cap * kNsPerSec,
              sim.now() * 1e-9 + 1.0);
}

TEST_P(FluidPropertyTest, EqualFlowsFinishTogether) {
  Rng rng(GetParam() ^ 0x5555);
  FluidSimulator sim;
  const ResourceId shared = sim.AddResource("shared", GBps(10));
  const double bytes = static_cast<double>(rng.NextInRange(1, 100)) * 1e6;
  std::vector<FlowId> ids;
  const int n = static_cast<int>(rng.NextInRange(2, 12));
  for (int f = 0; f < n; ++f) {
    ids.push_back(sim.StartFlow(bytes, {shared}));
  }
  sim.Run();
  const SimTime first_end = sim.record(ids[0])->end;
  for (FlowId id : ids) {
    EXPECT_NEAR(sim.record(id)->end, first_end, 1e-3);
  }
}

// P6  incremental == full: the component-scoped solver must be bit-exact
//     with a full progressive-filling recompute on every event.  Two
//     simulators run the same randomized schedule (staggered arrivals,
//     weights, mid-run capacity changes, degenerate flows) in lockstep; all
//     completion times and per-resource byte counters must match exactly,
//     and the incremental sim additionally self-checks every solve.
TEST_P(FluidPropertyTest, IncrementalSolveMatchesFullRecompute) {
  const std::uint64_t seed = GetParam() ^ 0x1CEB00DA;
  FluidSimulator inc;
  inc.set_solver_crosscheck(true);
  FluidSimulator full;
  full.set_incremental(false);

  Rng rng(seed);
  const int num_resources = static_cast<int>(rng.NextInRange(3, 10));
  std::vector<ResourceId> inc_res, full_res;
  for (int r = 0; r < num_resources; ++r) {
    const double cap = GBps(static_cast<double>(rng.NextInRange(1, 100)));
    inc_res.push_back(inc.AddResource("r" + std::to_string(r), cap));
    full_res.push_back(full.AddResource("r" + std::to_string(r), cap));
  }

  std::vector<FlowId> inc_ids, full_ids;
  const int num_flows = static_cast<int>(rng.NextInRange(8, 40));
  for (int f = 0; f < num_flows; ++f) {
    // ~1 in 10 flows is degenerate (zero bytes) to cover the deferred path.
    const double bytes =
        rng.NextBernoulli(0.1)
            ? 0.0
            : static_cast<double>(rng.NextInRange(1, 500)) * 1e6;
    const double weight = static_cast<double>(rng.NextInRange(1, 4));
    const int path_len = static_cast<int>(rng.NextInRange(1, num_resources));
    std::vector<int> idx(num_resources);
    for (int i = 0; i < num_resources; ++i) idx[i] = i;
    rng.Shuffle(idx);
    std::vector<ResourceId> path(idx.begin(), idx.begin() + path_len);
    const SimTime at = static_cast<SimTime>(rng.NextInRange(0, 50)) * 1e6;
    inc.ScheduleAt(at, [&inc, &inc_ids, bytes, path, weight](SimTime) {
      inc_ids.push_back(inc.StartFlow(bytes, path, nullptr, weight));
    });
    full.ScheduleAt(at, [&full, &full_ids, bytes, path, weight](SimTime) {
      full_ids.push_back(full.StartFlow(bytes, path, nullptr, weight));
    });
  }
  // A couple of mid-run capacity changes exercise the SetCapacity seed.
  for (int c = 0; c < 3; ++c) {
    const int r = static_cast<int>(rng.NextInRange(0, num_resources - 1));
    const double cap = GBps(static_cast<double>(rng.NextInRange(1, 100)));
    const SimTime at = static_cast<SimTime>(rng.NextInRange(1, 40)) * 1e6;
    inc.ScheduleAt(at, [&inc, &inc_res, r, cap](SimTime) {
      ASSERT_TRUE(inc.SetCapacity(inc_res[r], cap).ok());
    });
    full.ScheduleAt(at, [&full, &full_res, r, cap](SimTime) {
      ASSERT_TRUE(full.SetCapacity(full_res[r], cap).ok());
    });
  }

  // Lockstep: after every step the two simulators must agree exactly.
  while (true) {
    const bool inc_more = inc.Step();
    const bool full_more = full.Step();
    ASSERT_EQ(inc_more, full_more);
    ASSERT_EQ(inc.now(), full.now());  // bit-exact, no tolerance
    if (!inc_more) break;
  }

  ASSERT_EQ(inc_ids.size(), full_ids.size());
  for (std::size_t i = 0; i < inc_ids.size(); ++i) {
    const FlowRecord* a = inc.record(inc_ids[i]);
    const FlowRecord* b = full.record(full_ids[i]);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(a->done);
    EXPECT_TRUE(b->done);
    EXPECT_EQ(a->end, b->end) << "flow " << i << " completion diverged";
  }
  for (int r = 0; r < num_resources; ++r) {
    EXPECT_EQ(inc.BytesServed(inc_res[r]), full.BytesServed(full_res[r]))
        << "resource " << r << " byte counter diverged";
  }
  // The incremental run should not have done a full re-rate on every event
  // (the whole point), yet produced identical results.
  EXPECT_LE(inc.solver_stats().flows_touched,
            full.solver_stats().flows_touched);
}

// P7  sharded == flat: arbitrary shard hints plus a worker pool must not
//     change a single bit of simulated output.  The sharded sim gets a
//     random shard assignment (some resources deliberately left
//     unsharded), four worker threads, and the full-solve crosscheck; the
//     flat sim runs the plain incremental solver with no hints.  Shard
//     hints only partition when the cross-flow counters prove it safe, so
//     even an adversarial assignment may cost parallelism but never
//     correctness.
TEST_P(FluidPropertyTest, ShardedSolveMatchesFlatIncremental) {
  const std::uint64_t seed = GetParam() ^ 0x5AADD;
  FluidSimulator sharded;
  sharded.set_solver_crosscheck(true);
  sharded.set_threads(4);
  FluidSimulator flat;

  Rng rng(seed);
  const int num_resources = static_cast<int>(rng.NextInRange(4, 12));
  std::vector<ResourceId> shard_res, flat_res;
  for (int r = 0; r < num_resources; ++r) {
    const double cap = GBps(static_cast<double>(rng.NextInRange(1, 100)));
    shard_res.push_back(sharded.AddResource("r" + std::to_string(r), cap));
    flat_res.push_back(flat.AddResource("r" + std::to_string(r), cap));
    if (rng.NextBernoulli(0.75)) {
      sharded.SetResourceShard(shard_res.back(),
                               static_cast<ShardId>(rng.NextInRange(0, 3)));
    }
  }

  std::vector<FlowId> shard_ids, flat_ids;
  const int num_flows = static_cast<int>(rng.NextInRange(8, 40));
  for (int f = 0; f < num_flows; ++f) {
    const double bytes =
        rng.NextBernoulli(0.1)
            ? 0.0
            : static_cast<double>(rng.NextInRange(1, 500)) * 1e6;
    const double weight = static_cast<double>(rng.NextInRange(1, 4));
    const int path_len = static_cast<int>(rng.NextInRange(1, num_resources));
    std::vector<int> idx(num_resources);
    for (int i = 0; i < num_resources; ++i) idx[i] = i;
    rng.Shuffle(idx);
    std::vector<ResourceId> path(idx.begin(), idx.begin() + path_len);
    const SimTime at = static_cast<SimTime>(rng.NextInRange(0, 50)) * 1e6;
    sharded.ScheduleAt(at, [&sharded, &shard_ids, bytes, path,
                            weight](SimTime) {
      shard_ids.push_back(sharded.StartFlow(bytes, path, nullptr, weight));
    });
    flat.ScheduleAt(at, [&flat, &flat_ids, bytes, path, weight](SimTime) {
      flat_ids.push_back(flat.StartFlow(bytes, path, nullptr, weight));
    });
  }
  for (int c = 0; c < 3; ++c) {
    const int r = static_cast<int>(rng.NextInRange(0, num_resources - 1));
    const double cap = GBps(static_cast<double>(rng.NextInRange(1, 100)));
    const SimTime at = static_cast<SimTime>(rng.NextInRange(1, 40)) * 1e6;
    sharded.ScheduleAt(at, [&sharded, &shard_res, r, cap](SimTime) {
      ASSERT_TRUE(sharded.SetCapacity(shard_res[r], cap).ok());
    });
    flat.ScheduleAt(at, [&flat, &flat_res, r, cap](SimTime) {
      ASSERT_TRUE(flat.SetCapacity(flat_res[r], cap).ok());
    });
  }

  while (true) {
    const bool sharded_more = sharded.Step();
    const bool flat_more = flat.Step();
    ASSERT_EQ(sharded_more, flat_more);
    ASSERT_EQ(sharded.now(), flat.now());  // bit-exact, no tolerance
    if (!sharded_more) break;
  }

  ASSERT_EQ(shard_ids.size(), flat_ids.size());
  for (std::size_t i = 0; i < shard_ids.size(); ++i) {
    const FlowRecord* a = sharded.record(shard_ids[i]);
    const FlowRecord* b = flat.record(flat_ids[i]);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(a->done);
    EXPECT_TRUE(b->done);
    EXPECT_EQ(a->end, b->end) << "flow " << i << " completion diverged";
  }
  for (int r = 0; r < num_resources; ++r) {
    EXPECT_EQ(sharded.BytesServed(shard_res[r]),
              flat.BytesServed(flat_res[r]))
        << "resource " << r << " byte counter diverged";
  }
}

// Test-only reference for weighted max-min: the naive progressive fill,
// which rescans every resource for the smallest share each round and then
// every flow for those crossing it.  It shares no code with the simulator's
// heap-driven kernel (which the full-solve crosscheck does share), so it
// catches a kernel bug.  Flows are given in id order.
struct RefFlow {
  std::vector<ResourceId> path;
  double weight;
};

std::vector<double> ReferenceRates(const std::vector<double>& capacity,
                                   const std::vector<RefFlow>& flows) {
  const std::size_t none = capacity.size();
  std::vector<double> headroom = capacity;
  std::vector<double> unfrozen(capacity.size(), 0);
  std::vector<double> rate(flows.size(), 0);
  std::vector<bool> frozen(flows.size(), false);
  for (const RefFlow& f : flows) {
    for (ResourceId r : f.path) unfrozen[r] += f.weight;
  }
  std::size_t frozen_count = 0;
  while (frozen_count < flows.size()) {
    double best_share = std::numeric_limits<double>::infinity();
    std::size_t best_res = none;
    for (std::size_t r = 0; r < capacity.size(); ++r) {
      if (unfrozen[r] <= 0) continue;
      const double share = headroom[r] / unfrozen[r];
      if (share < best_share) {
        best_share = share;
        best_res = r;
      }
    }
    if (best_res == none) {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        if (!frozen[i]) rate[i] = std::numeric_limits<double>::max();
      }
      break;
    }
    for (std::size_t i = 0; i < flows.size(); ++i) {
      if (frozen[i]) continue;
      const RefFlow& f = flows[i];
      if (std::find(f.path.begin(), f.path.end(), best_res) == f.path.end()) {
        continue;
      }
      rate[i] = best_share * f.weight;
      frozen[i] = true;
      ++frozen_count;
      for (ResourceId r : f.path) {
        unfrozen[r] -= f.weight;
        headroom[r] -= rate[i];
        if (headroom[r] < 0) headroom[r] = 0;
      }
    }
    unfrozen[best_res] = 0;  // round-off residue must not win again
  }
  return rate;
}

// P8  kernel == naive reference: FlowRate equals the reference bit for bit
//     on every active flow, after the initial batch and after every event.
//     Capacities come from a small set and weights repeat, so shares tie;
//     paths may cross one resource twice; about half the weights are
//     fractional.
TEST_P(FluidPropertyTest, FillMatchesNaiveReference) {
  Rng rng(GetParam() ^ 0xF111);
  FluidSimulator sim;
  const int num_resources = static_cast<int>(rng.NextInRange(2, 9));
  std::vector<double> capacity;
  for (int r = 0; r < num_resources; ++r) {
    capacity.push_back(GBps(10.0 * static_cast<double>(rng.NextInRange(1, 4))));
    sim.AddResource("r" + std::to_string(r), capacity.back());
  }
  const double weights[] = {1, 2, 3, 0.1, 0.2, 0.3, 0.7, 1.5};
  std::vector<FlowId> ids;
  std::vector<RefFlow> specs;
  const int num_flows = static_cast<int>(rng.NextInRange(5, 40));
  sim.BeginBatch();
  for (int f = 0; f < num_flows; ++f) {
    RefFlow spec;
    const int hops = static_cast<int>(rng.NextInRange(1, 4));
    for (int h = 0; h < hops; ++h) {
      spec.path.push_back(
          static_cast<ResourceId>(rng.NextBounded(num_resources)));
    }
    spec.weight = weights[rng.NextBounded(8)];
    const double bytes = static_cast<double>(rng.NextInRange(1, 50)) * 1e6;
    ids.push_back(sim.StartFlow(bytes, spec.path, nullptr, spec.weight));
    specs.push_back(std::move(spec));
  }
  sim.EndBatch();

  int events = 0;
  do {
    std::vector<FlowId> active;
    std::vector<RefFlow> active_specs;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (sim.record(ids[i])->done) continue;
      active.push_back(ids[i]);
      active_specs.push_back(specs[i]);
    }
    const std::vector<double> expected = ReferenceRates(capacity, active_specs);
    for (std::size_t i = 0; i < active.size(); ++i) {
      EXPECT_EQ(sim.FlowRate(active[i]), expected[i])
          << "flow " << active[i] << " after event " << events;
    }
    ASSERT_LT(++events, 1000);
  } while (sim.Step());
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

// Test-only copy of the utilization EWMA as the simulator computed it
// before it shared one alpha per time sweep: every resource keeps its own
// fold time, and each fold prices the window since then at the utilization
// that window ran with, using its own exp().
constexpr SimTime kRefUtilTau = Microseconds(10);

struct RefEwma {
  double smoothed = 0;
  SimTime at = 0;

  void FoldTo(SimTime t, double util) {
    const SimTime dt = t - at;
    if (dt <= 0) return;
    const double alpha = 1.0 - std::exp(-dt / kRefUtilTau);
    smoothed = smoothed + alpha * (util - smoothed);
    at = t;
  }
};

// P9  EWMA == per-resource reference: after every Step, every resource's
//     SmoothedUtilization equals the reference bit for bit.  The events mix
//     flows on random paths, timers that fire between flows, SetCapacity
//     and new resources (from timer callbacks and between Steps), resources
//     no flow ever crosses, and one resource that runs saturated long
//     enough for its EWMA to reach its utilization exactly.  Runs with the
//     incremental solver and with full solves, which rewrite every
//     resource's utilization.
void CheckEwmaAgainstReference(std::uint64_t seed, bool incremental) {
  SCOPED_TRACE(incremental ? "incremental" : "full solves");
  Rng rng(seed ^ 0xE3A);
  FluidSimulator sim;
  sim.set_incremental(incremental);
  std::vector<RefEwma> ref;  // by ResourceId
  std::vector<ResourceId> busy;  // resources random flows may cross
  const auto add_resource = [&](double gbps) {
    const ResourceId r =
        sim.AddResource("r" + std::to_string(ref.size()), GBps(gbps));
    ref.push_back(RefEwma{0, sim.now()});
    return r;
  };
  const auto random_gbps = [&] {
    return 10.0 * static_cast<double>(rng.NextInRange(1, 4));
  };
  const auto start_random_flow = [&] {
    std::vector<ResourceId> path;
    const int hops = static_cast<int>(rng.NextInRange(1, 3));
    for (int h = 0; h < hops; ++h) {
      path.push_back(busy[rng.NextBounded(busy.size())]);
    }
    sim.StartFlow(static_cast<double>(rng.NextInRange(1, 20)) * 1e5, path);
  };
  const auto set_random_capacity = [&] {
    ASSERT_TRUE(
        sim.SetCapacity(busy[rng.NextBounded(busy.size())], GBps(random_gbps()))
            .ok());
  };

  add_resource(10);  // idle throughout
  const ResourceId saturated = add_resource(10);
  const int num_busy = static_cast<int>(rng.NextInRange(2, 6));
  for (int i = 0; i < num_busy; ++i) busy.push_back(add_resource(random_gbps()));
  add_resource(25);  // idle throughout
  // Alone on its resource for 10 ms, so its utilization is exactly 1.
  sim.StartFlow(GBps(10) * 1e-2, {saturated});

  // Random timers over the first 2 ms: most random flows are done within
  // microseconds, so many of these fire between flows.
  std::function<void(SimTime)> action = [&](SimTime) {
    switch (rng.NextBounded(5)) {
      case 0:
        start_random_flow();
        break;
      case 1:
        set_random_capacity();
        break;
      case 2:
        busy.push_back(add_resource(random_gbps()));
        break;
      case 3:
        sim.ScheduleAt(sim.now(), action);  // runs on the next Step
        break;
      default:
        break;
    }
  };
  const int num_timers = static_cast<int>(rng.NextInRange(100, 300));
  for (int i = 0; i < num_timers; ++i) {
    sim.ScheduleAt(Microseconds(static_cast<double>(rng.NextInRange(0, 2000))),
                   action);
  }
  // Quiet gaps of hundreds of time constants: the saturated EWMA reaches
  // exactly 1, then idles down to exactly 0.
  for (double ms : {5.0, 6.0, 7.0, 12.0, 13.0}) {
    sim.ScheduleAt(Microseconds(1000 * ms), [](SimTime) {});
  }
  for (int i = 0; i < 4; ++i) start_random_flow();

  int steps = 0;
  int settled_busy = 0;  // resources read busy with EWMA == utilization
  while (true) {
    // The window the next Step sweeps runs at the current utilization.
    std::vector<double> util(ref.size());
    for (ResourceId r = 0; r < util.size(); ++r) util[r] = sim.Utilization(r);
    if (!sim.Step()) break;
    ASSERT_LT(++steps, 100000);
    for (ResourceId r = 0; r < util.size(); ++r) {
      ref[r].FoldTo(sim.now(), util[r]);
    }
    for (ResourceId r = 0; r < ref.size(); ++r) {
      const double smoothed = sim.SmoothedUtilization(r);
      EXPECT_EQ(smoothed, ref[r].smoothed)
          << "resource " << r << " after step " << steps;
      if (util.size() > r && util[r] > 0 && smoothed == util[r]) {
        ++settled_busy;
      }
    }
    // Changes made between Steps, at the current instant.
    if (rng.NextBernoulli(0.2)) start_random_flow();
    if (rng.NextBernoulli(0.05)) set_random_capacity();
    if (rng.NextBernoulli(0.02)) busy.push_back(add_resource(random_gbps()));
  }
  EXPECT_GT(settled_busy, 0) << "no busy resource's EWMA reached its "
                                "utilization; that case went untested";
  EXPECT_EQ(sim.SmoothedUtilization(saturated), 0.0);
}

TEST_P(FluidPropertyTest, SmoothedUtilizationMatchesPerResourceFold) {
  CheckEwmaAgainstReference(GetParam(), /*incremental=*/true);
  CheckEwmaAgainstReference(GetParam(), /*incremental=*/false);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FluidPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 1010));

}  // namespace
}  // namespace lmp::sim

namespace lmp::sim {
namespace {

// --- Timers -------------------------------------------------------------------

// Equal-time timers fire in scheduling order even when their callbacks sit
// in recycled slots, and a timer scheduled from a callback for its own
// instant runs after every timer already due then.
TEST(FluidTimerTest, EqualTimeTimersStayFifoAfterSlotReuse) {
  FluidSimulator sim;
  std::vector<int> fired;
  const auto record = [&fired](int tag) {
    return [&fired, tag](SimTime) { fired.push_back(tag); };
  };
  // Eight slots, filled and freed: later timers reuse them.
  for (int i = 0; i < 8; ++i) sim.ScheduleAt(Nanoseconds(10), record(i));
  ASSERT_TRUE(sim.Step());

  for (int i = 0; i < 12; ++i) {
    sim.ScheduleAt(Nanoseconds(100), record(100 + i));
    if (i % 4 == 0) {
      sim.ScheduleAt(Nanoseconds(50), [&, i](SimTime) {
        fired.push_back(50 + i);
        sim.ScheduleAt(Nanoseconds(100), record(200 + i));
      });
    }
  }
  sim.ScheduleAt(Nanoseconds(100), [&](SimTime) {
    fired.push_back(300);
    sim.ScheduleAt(sim.now(), record(301));
  });
  sim.Run();

  std::vector<int> want = {0, 1, 2, 3, 4, 5, 6, 7, 50, 54, 58};
  for (int i = 0; i < 12; ++i) want.push_back(100 + i);
  want.insert(want.end(), {300, 200, 204, 208, 301});
  EXPECT_EQ(fired, want);
  EXPECT_EQ(sim.now(), Nanoseconds(100));
}

// A cancelled timer destroys its callback at once and never fires, moves
// the clock or costs a Step — including a same-instant batch member that
// an earlier callback cancels, and a heap full of cancelled far-future
// timers (rebuilt without them) that leaves the live ones in order.
TEST(FluidTimerTest, CancelledTimerNeverAdvancesClock) {
  FluidSimulator sim;
  std::vector<int> fired;
  auto token = std::make_shared<int>(0);
  const TimerHandle far = sim.ScheduleAt(
      Seconds(1), [&fired, token](SimTime) { fired.push_back(-1); });
  sim.CancelTimer(far);
  EXPECT_EQ(token.use_count(), 1) << "cancel kept the callback alive";

  TimerHandle doomed;
  sim.ScheduleAt(Nanoseconds(10), [&](SimTime) {
    fired.push_back(10);
    sim.CancelTimer(doomed);
  });
  doomed = sim.ScheduleAt(Nanoseconds(10), [&](SimTime) {
    fired.push_back(-10);
  });
  // Many cancelled far-future timers among live ones.
  for (int i = 0; i < 300; ++i) {
    const TimerHandle h =
        sim.ScheduleAt(Seconds(2) + Nanoseconds(i),
                       [&fired](SimTime) { fired.push_back(-2); });
    sim.ScheduleAt(Nanoseconds(100 + i),
                   [&fired, i](SimTime) { fired.push_back(100 + i); });
    sim.CancelTimer(h);
  }

  int steps = 0;
  while (sim.Step()) ++steps;
  std::vector<int> want = {10};
  for (int i = 0; i < 300; ++i) want.push_back(100 + i);
  EXPECT_EQ(fired, want);
  EXPECT_EQ(steps, 301);
  EXPECT_EQ(sim.now(), Nanoseconds(399));
}

// Cancelling is a no-op once the timer has fired, while it is firing, once
// it was already cancelled, or when its slot now holds another timer.
TEST(FluidTimerTest, CancelAfterFireOrSlotReuseIsNoop) {
  FluidSimulator sim;
  std::vector<int> fired;
  const auto record = [&fired](int tag) {
    return [&fired, tag](SimTime) { fired.push_back(tag); };
  };
  const TimerHandle first = sim.ScheduleAt(Nanoseconds(10), record(1));
  ASSERT_TRUE(sim.Step());
  sim.CancelTimer(first);  // already fired

  // The freed slot is reused; the stale handle must not cancel its tenant.
  const TimerHandle second = sim.ScheduleAt(Nanoseconds(20), record(2));
  EXPECT_EQ(second.slot, first.slot);
  sim.CancelTimer(first);

  TimerHandle self;
  self = sim.ScheduleAt(Nanoseconds(30), [&](SimTime) {
    sim.CancelTimer(self);  // firing
    fired.push_back(3);
  });
  const TimerHandle twice = sim.ScheduleAt(Nanoseconds(40), record(-4));
  sim.CancelTimer(twice);
  const TimerHandle reuse = sim.ScheduleAt(Nanoseconds(50), record(5));
  EXPECT_EQ(reuse.slot, twice.slot);
  sim.CancelTimer(twice);         // already cancelled, slot reused
  sim.CancelTimer(TimerHandle());  // names no timer
  sim.Run();

  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 5}));
  EXPECT_EQ(sim.now(), Nanoseconds(50));
}

// --- Weighted max-min fairness ------------------------------------------------

TEST(WeightedFairnessTest, WeightTwoGetsDoubleShare) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(30));
  const FlowId heavy = sim.StartFlow(1e12, {r}, nullptr, 2.0);
  const FlowId light = sim.StartFlow(1e12, {r}, nullptr, 1.0);
  EXPECT_NEAR(sim.FlowRate(heavy), GBps(20), 1);
  EXPECT_NEAR(sim.FlowRate(light), GBps(10), 1);
}

TEST(WeightedFairnessTest, WeightsRespectOtherBottlenecks) {
  // The heavy flow is clamped by its private slow leg; the light flow
  // absorbs the slack (weighted max-min, not strict proportional).
  FluidSimulator sim;
  const ResourceId shared = sim.AddResource("shared", GBps(30));
  const ResourceId slow = sim.AddResource("slow", GBps(5));
  const FlowId heavy = sim.StartFlow(1e12, {shared, slow}, nullptr, 10.0);
  const FlowId light = sim.StartFlow(1e12, {shared}, nullptr, 1.0);
  EXPECT_NEAR(sim.FlowRate(heavy), GBps(5), 1);
  EXPECT_NEAR(sim.FlowRate(light), GBps(25), 1);
}

TEST(WeightedFairnessTest, EqualWeightsReduceToPlainMaxMin) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(12));
  const FlowId a = sim.StartFlow(1e12, {r}, nullptr, 3.0);
  const FlowId b = sim.StartFlow(1e12, {r}, nullptr, 3.0);
  EXPECT_NEAR(sim.FlowRate(a), GBps(6), 1);
  EXPECT_NEAR(sim.FlowRate(b), GBps(6), 1);
}

TEST(WeightedFairnessTest, CompletionOrderFollowsWeights) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  const FlowId heavy = sim.StartFlow(10e9, {r}, nullptr, 4.0);
  const FlowId light = sim.StartFlow(10e9, {r}, nullptr, 1.0);
  sim.Run();
  EXPECT_LT(sim.record(heavy)->end, sim.record(light)->end);
}

// Regression: with fractional weights the bottleneck's unfrozen weight can
// keep a round-off residue (0.4 - 0.1 - 0.1 - 0.2 = 2.8e-17) over zero
// headroom, and the fill used to pick that resource at share 0 forever
// whenever another resource (r1 here) still had unfrozen flows.
TEST(WeightedFairnessTest, FractionalWeightsTerminate) {
  FluidSimulator sim;
  const double cap = GBps(1);
  const ResourceId r0 = sim.AddResource("r0", cap);
  const ResourceId r1 = sim.AddResource("r1", GBps(10));
  sim.BeginBatch();
  const FlowId a = sim.StartFlow(1e12, {r0}, nullptr, 0.1);
  const FlowId b = sim.StartFlow(1e12, {r0}, nullptr, 0.1);
  const FlowId c = sim.StartFlow(1e12, {r0}, nullptr, 0.2);
  const FlowId d = sim.StartFlow(1e12, {r1});
  sim.EndBatch();
  EXPECT_DOUBLE_EQ(sim.FlowRate(a), cap * 0.1 / 0.4);
  EXPECT_DOUBLE_EQ(sim.FlowRate(b), cap * 0.1 / 0.4);
  EXPECT_DOUBLE_EQ(sim.FlowRate(c), cap * 0.2 / 0.4);
  EXPECT_DOUBLE_EQ(sim.FlowRate(d), GBps(10));
}

TEST(WeightedFairnessTest, SpanStreamCarriesWeight) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(30));
  SpanStream heavy(&sim, {Span{20e9, {r}, 2.0}});
  SpanStream light(&sim, {Span{10e9, {r}, 1.0}});
  heavy.Start();
  light.Start();
  sim.Run();
  // 20 GB at 20 GB/s and 10 GB at 10 GB/s: both finish at t=1s.
  EXPECT_NEAR(heavy.end_time(), Seconds(1), 1e3);
  EXPECT_NEAR(light.end_time(), Seconds(1), 1e3);
}

}  // namespace
}  // namespace lmp::sim
