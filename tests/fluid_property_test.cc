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
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"
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
    const int path_len = static_cast<int>(rng.NextInRange(
        1, std::min<int>(num_resources, Path::kMaxHops)));
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
    const int path_len = static_cast<int>(rng.NextInRange(
        1, std::min<int>(num_resources, Path::kMaxHops)));
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
    const int path_len = static_cast<int>(rng.NextInRange(
        1, std::min<int>(num_resources, Path::kMaxHops)));
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

// One side of a bridged lockstep: 4 servers x 4 cores whose DRAM (30 GB/s)
// is the bottleneck of the 12 GB/s cores, under closed-loop churn.  About
// 5 % of flows cross to another server's DRAM through both link ports, so
// every server's flows share one connected component while the cores and
// ports mostly run below capacity.  Each completion starts the next flow of
// a seeded plan, so both sides issue the same flows while they agree.
constexpr int kBridgedServers = 4;
constexpr int kBridgedCores = 4;

struct BridgedChurn {
  FluidSimulator sim;
  std::vector<ResourceId> cores;  // server-major
  std::vector<ResourceId> dram;
  std::vector<ResourceId> port;
  std::vector<ResourceId> all;
  Rng rng;
  int issued = 0;
  int total;

  BridgedChurn(std::uint64_t seed, bool incremental, int concurrency,
               int total_flows)
      : rng(seed), total(total_flows) {
    sim.set_incremental(incremental);
    sim.set_solver_crosscheck(incremental);
    for (int s = 0; s < kBridgedServers; ++s) {
      const std::string name = "s" + std::to_string(s);
      for (int c = 0; c < kBridgedCores; ++c) {
        cores.push_back(
            sim.AddResource(name + ".core" + std::to_string(c), GBps(12)));
      }
      dram.push_back(sim.AddResource(name + ".dram", GBps(30)));
      port.push_back(sim.AddResource(name + ".port", GBps(34.5)));
    }
    all.insert(all.end(), cores.begin(), cores.end());
    all.insert(all.end(), dram.begin(), dram.end());
    all.insert(all.end(), port.begin(), port.end());
    sim.BeginBatch();
    for (int i = 0; i < concurrency; ++i) Launch();
    sim.EndBatch();
  }

  void Launch() {
    ++issued;
    const auto s = static_cast<int>(rng.NextBounded(kBridgedServers));
    const auto c = static_cast<int>(rng.NextBounded(kBridgedCores));
    const ResourceId core = cores[s * kBridgedCores + c];
    const double bytes = static_cast<double>(rng.NextInRange(1, 100)) * 1e5;
    std::vector<ResourceId> path = {core, dram[s]};
    if (rng.NextBernoulli(0.05)) {
      const auto d = (s + 1 + static_cast<int>(rng.NextBounded(
                                  kBridgedServers - 1))) %
                     kBridgedServers;
      path = {core, port[s], port[d], dram[d]};
    }
    sim.StartFlow(bytes, path, [this](FlowId, SimTime) {
      if (issued < total) Launch();
    });
  }
};

// Steps both sides in lockstep to the end, calling `between(step)` after
// each Step, and checks every completion time and byte counter bit for bit.
void RunBridgedLockstep(BridgedChurn& inc, BridgedChurn& full,
                        const std::function<void(int)>& between) {
  int steps = 0;
  while (true) {
    const bool inc_more = inc.sim.Step();
    const bool full_more = full.sim.Step();
    ASSERT_EQ(inc_more, full_more);
    ASSERT_EQ(inc.sim.now(), full.sim.now());  // bit-exact, no tolerance
    if (!inc_more) break;
    between(++steps);
  }
  EXPECT_EQ(inc.issued, inc.total);
  EXPECT_EQ(inc.sim.active_flow_count(), 0u);
  for (std::size_t i = 0; i < inc.all.size(); ++i) {
    EXPECT_EQ(inc.sim.BytesServed(inc.all[i]),
              full.sim.BytesServed(full.all[i]))
        << "resource " << inc.sim.ResourceName(inc.all[i]);
  }
}

// P10 bridged churn == full solves, with the crosscheck on every solve.  The
//     component spans the cluster, but an event re-rates only the flows it
//     reaches through saturated resources, so the incremental side touches
//     well under the active flows per solve (the full side touches all).
TEST_P(FluidPropertyTest, BridgedDramBoundChurnMatchesFullRecompute) {
  const std::uint64_t seed = GetParam() ^ 0xB41D6E;
  BridgedChurn inc(seed, /*incremental=*/true, 300, 900);
  BridgedChurn full(seed, /*incremental=*/false, 300, 900);
  RunBridgedLockstep(inc, full, [](int) {});
  const SolverStats& cut = inc.sim.solver_stats();
  const SolverStats& all = full.sim.solver_stats();
  ASSERT_EQ(cut.recompute_calls, all.recompute_calls);
  // all.flows_touched sums the active flow count over the same solves.
  EXPECT_LT(cut.flows_touched * 3, all.flows_touched * 2)
      << cut.flows_touched << " vs " << all.flows_touched;
  EXPECT_LT(cut.full_solves * 3, cut.recompute_calls);
}

// P11 SetCapacity targets are crossed whatever their load: mid-run, a
//     saturated DRAM's capacity rises and an unsaturated core's drops below
//     its load.  Judging the targets by their saturation instead leaves the
//     core's flows at rates it can no longer carry.
TEST_P(FluidPropertyTest, BridgedCapacityChangesMatchFullRecompute) {
  const std::uint64_t seed = GetParam() ^ 0xCA9AC;
  BridgedChurn inc(seed, /*incremental=*/true, 300, 900);
  BridgedChurn full(seed, /*incremental=*/false, 300, 900);
  int raised = 0;
  int lowered = 0;
  RunBridgedLockstep(inc, full, [&](int step) {
    if (step % 97 != 0) return;
    const int s = (step / 97) % kBridgedServers;
    const ResourceId dram = inc.dram[s];
    if (inc.sim.Utilization(dram) >= 1 - 1e-9) {
      const double cap = inc.sim.capacity(dram) * 1.25;
      ASSERT_TRUE(inc.sim.SetCapacity(dram, cap).ok());
      ASSERT_TRUE(full.sim.SetCapacity(full.dram[s], cap).ok());
      ++raised;
    }
    for (int c = 0; c < kBridgedCores; ++c) {
      const int i = s * kBridgedCores + c;
      const double util = inc.sim.Utilization(inc.cores[i]);
      ASSERT_EQ(util, full.sim.Utilization(full.cores[i]));
      if (util <= 0.2 || util >= 0.9) continue;
      const double cap = inc.sim.capacity(inc.cores[i]) * util / 2;
      ASSERT_TRUE(inc.sim.SetCapacity(inc.cores[i], cap).ok());
      ASSERT_TRUE(full.sim.SetCapacity(full.cores[i], cap).ok());
      ++lowered;
      break;
    }
  });
  EXPECT_GT(raised, 0) << "no saturated DRAM was raised";
  EXPECT_GT(lowered, 0) << "no unsaturated core was lowered below its load";
}

// Test-only copy of the eager event loop the simulator ran before lazy
// progress: every Step computes every active flow's duration, a timer event
// advances every flow, and a completion advances every flow, retires the
// tied ones (crediting their residues) and those left within kByteEpsilon
// bytes of done, and runs their callbacks in id order.  Rates come from
// ReferenceRates, which P8 holds bit-exact with the kernel.  It solves
// whenever rates are read after a change; since a solve depends only on
// the final flows and capacities, that equals solving once per event, and
// batches need no work.  The API mirrors the FluidSimulator calls the
// churn makes.
class EagerReference {
 public:
  ResourceId AddResource(const std::string&, double capacity) {
    capacity_.push_back(capacity);
    bytes_served_.push_back(0);
    return static_cast<ResourceId>(capacity_.size() - 1);
  }
  Status SetCapacity(ResourceId r, double capacity) {
    capacity_[r] = capacity;
    dirty_ = true;
    return Status::Ok();
  }
  void BeginBatch() {}
  void EndBatch() {}
  FlowId StartFlow(double bytes, const std::vector<ResourceId>& path,
                   FluidSimulator::FlowCallback on_done, double weight) {
    const FlowId id = next_id_++;
    flows_[id] = Active{bytes, 0, weight, path, std::move(on_done)};
    dirty_ = true;
    return id;
  }
  TimerHandle ScheduleAt(SimTime when,
                         FluidSimulator::TimerCallback cb) {
    const std::uint64_t seq = next_seq_++;
    const SimTime at = std::max(when, now_);
    timers_[{at, seq}] = std::move(cb);
    timer_when_[seq] = at;
    return TimerHandle{0, seq};
  }
  void CancelTimer(TimerHandle handle) {
    const auto it = timer_when_.find(handle.seq);
    if (it == timer_when_.end()) return;
    timers_.erase({it->second, handle.seq});
    timer_when_.erase(it);
  }
  SimTime now() const { return now_; }
  double BytesServed(ResourceId r) const { return bytes_served_[r]; }
  double FlowRate(FlowId id) {
    Solve();
    const auto it = flows_.find(id);
    return it == flows_.end() ? 0.0 : it->second.rate;
  }

  bool Step() {
    Solve();
    std::vector<SimTime> durations;
    SimTime min_dt = std::numeric_limits<SimTime>::infinity();
    for (const auto& [id, f] : flows_) {
      durations.push_back(f.rate > 0
                              ? f.remaining / f.rate * kNsPerSec
                              : std::numeric_limits<SimTime>::infinity());
      min_dt = std::min(min_dt, durations.back());
    }
    const SimTime completion = std::isfinite(min_dt)
                                   ? now_ + min_dt
                                   : std::numeric_limits<SimTime>::infinity();
    const SimTime timer = timers_.empty()
                              ? std::numeric_limits<SimTime>::infinity()
                              : timers_.begin()->first.first;
    if (!std::isfinite(completion) && !std::isfinite(timer)) return false;
    if (timer <= completion) {
      Advance(timer - now_);
      now_ = timer;
      std::vector<std::uint64_t> batch;
      for (const auto& [key, cb] : timers_) {
        if (key.first != timer) break;
        batch.push_back(key.second);
      }
      for (std::uint64_t seq : batch) {
        const auto it = timers_.find({timer, seq});
        if (it == timers_.end()) continue;  // cancelled by an earlier one
        FluidSimulator::TimerCallback cb = std::move(it->second);
        timers_.erase(it);
        timer_when_.erase(seq);
        cb(now_);
      }
      return true;
    }
    CompleteAt(completion, min_dt, durations);
    return true;
  }

 private:
  struct Active {
    double remaining;
    double rate;
    double weight;
    std::vector<ResourceId> path;
    FluidSimulator::FlowCallback on_done;
  };

  void Solve() {
    if (!dirty_) return;
    dirty_ = false;
    std::vector<RefFlow> specs;
    for (const auto& [id, f] : flows_) {
      specs.push_back(RefFlow{f.path, f.weight});
    }
    const std::vector<double> rates = ReferenceRates(capacity_, specs);
    std::size_t i = 0;
    for (auto& [id, f] : flows_) f.rate = rates[i++];
  }

  void Advance(SimTime dt) {
    if (dt <= 0) return;
    const double secs = dt / kNsPerSec;
    for (auto& [id, f] : flows_) {
      const double moved = std::min(f.rate * secs, f.remaining);
      f.remaining -= moved;
      for (ResourceId r : f.path) bytes_served_[r] += moved;
    }
  }

  void CompleteAt(SimTime t, SimTime min_dt,
                  const std::vector<SimTime>& durations) {
    const SimTime dt = std::max<SimTime>(0, t - now_);
    const double secs = dt / kNsPerSec;
    const SimTime tie_limit = min_dt + (min_dt * 1e-9 + kTimeEpsilon);
    now_ = t;
    std::vector<FlowId> done;
    std::vector<FlowId> tied;
    std::size_t i = 0;
    for (auto& [id, f] : flows_) {
      if (dt > 0) {
        const double moved = std::min(f.rate * secs, f.remaining);
        f.remaining -= moved;
        for (ResourceId r : f.path) bytes_served_[r] += moved;
      }
      const bool is_tied = durations[i++] <= tie_limit;
      if (!is_tied && f.remaining > kByteEpsilon &&
          !(f.rate > 0 && f.remaining / f.rate * kNsPerSec < kTimeEpsilon)) {
        continue;
      }
      if (is_tied) tied.push_back(id);
      done.push_back(id);
    }
    for (FlowId id : tied) {
      Active& f = flows_[id];
      if (f.remaining > 0) {
        for (ResourceId r : f.path) bytes_served_[r] += f.remaining;
        f.remaining = 0;
      }
    }
    std::vector<std::pair<FlowId, FluidSimulator::FlowCallback>> callbacks;
    for (FlowId id : done) {
      callbacks.emplace_back(id, std::move(flows_[id].on_done));
      flows_.erase(id);
    }
    dirty_ = true;
    for (auto& [id, cb] : callbacks) {
      if (cb) cb(id, now_);
    }
  }

  static constexpr double kByteEpsilon = 1e-6;
  static constexpr SimTime kTimeEpsilon = 1e-9;
  std::vector<double> capacity_;
  std::vector<double> bytes_served_;
  std::map<FlowId, Active> flows_;  // id order, as the eager loop walked
  std::map<std::pair<SimTime, std::uint64_t>, FluidSimulator::TimerCallback>
      timers_;
  std::map<std::uint64_t, SimTime> timer_when_;
  FlowId next_id_ = 1;
  std::uint64_t next_seq_ = 0;
  SimTime now_ = 0;
  bool dirty_ = false;
};

// One side of the lazy-vs-eager lockstep: the bridged cluster of P10 (DRAM
// the bottleneck, about 5 % of flows crossing to another server's DRAM
// through both ports) under closed-loop churn with fractional weights, plus
// timers that start batched waves of equal flows (tied shares and tied
// completions), rescale a DRAM or a core, or cancel a pending timer.  Each
// side draws from its own copy of one seeded Rng, so both issue the same
// flows while they agree.
template <typename Sim>
struct LazyChurn {
  Sim sim;
  std::vector<ResourceId> cores;  // server-major
  std::vector<ResourceId> dram;
  std::vector<ResourceId> port;
  std::vector<ResourceId> all;
  Rng rng;
  int issued = 0;
  int total;
  std::map<FlowId, SimTime> ends;
  std::vector<FlowId> active;  // started, not yet complete, in id order
  std::vector<TimerHandle> pending;

  LazyChurn(std::uint64_t seed, int concurrency, int total_flows)
      : rng(seed), total(total_flows) {
    for (int s = 0; s < kBridgedServers; ++s) {
      for (int c = 0; c < kBridgedCores; ++c) {
        cores.push_back(sim.AddResource("core", GBps(12)));
      }
      dram.push_back(sim.AddResource("dram", GBps(30)));
      port.push_back(sim.AddResource("port", GBps(34.5)));
    }
    all.insert(all.end(), cores.begin(), cores.end());
    all.insert(all.end(), dram.begin(), dram.end());
    all.insert(all.end(), port.begin(), port.end());
    sim.BeginBatch();
    for (int i = 0; i < concurrency; ++i) Launch();
    sim.EndBatch();
    for (int i = 0; i < 40; ++i) {
      const SimTime at =
          Microseconds(static_cast<double>(rng.NextInRange(0, 400)));
      pending.push_back(sim.ScheduleAt(at, [this](SimTime) { Act(); }));
    }
  }

  std::vector<ResourceId> RandomPath(int s, int c) {
    const ResourceId core = cores[s * kBridgedCores + c];
    if (!rng.NextBernoulli(0.05)) return {core, dram[s]};
    const auto d = (s + 1 + static_cast<int>(rng.NextBounded(
                                kBridgedServers - 1))) %
                   kBridgedServers;
    return {core, port[s], port[d], dram[d]};
  }

  void Start(double bytes, const std::vector<ResourceId>& path,
             double weight, bool chained) {
    const FlowId id = sim.StartFlow(
        bytes, path,
        [this, chained](FlowId done, SimTime t) {
          ends[done] = t;
          active.erase(std::find(active.begin(), active.end(), done));
          if (chained && issued < total) Launch();
        },
        weight);
    active.push_back(id);
  }

  void Launch() {
    static constexpr double kWeights[] = {1, 1, 2, 0.5, 0.1, 0.3, 0.7, 1.5};
    ++issued;
    const auto s = static_cast<int>(rng.NextBounded(kBridgedServers));
    const auto c = static_cast<int>(rng.NextBounded(kBridgedCores));
    const double bytes = static_cast<double>(rng.NextInRange(1, 100)) * 1e5;
    Start(bytes, RandomPath(s, c), kWeights[rng.NextBounded(8)],
          /*chained=*/true);
  }

  void Act() {
    switch (rng.NextBounded(4)) {
      case 0: {  // a batched wave of equal flows on one server and a twin
        const auto s = static_cast<int>(rng.NextBounded(kBridgedServers));
        const double bytes = static_cast<double>(rng.NextInRange(1, 20)) * 1e5;
        const int n = static_cast<int>(rng.NextInRange(2, 6));
        sim.BeginBatch();
        for (int i = 0; i < n; ++i) {
          // Alternate flows are a hair longer: inside the tie window, so
          // they complete with the others and credit a residue.
          const double size = bytes + (i % 2) * 1e-7;
          const int c = i % kBridgedCores;
          Start(size, {cores[s * kBridgedCores + c], dram[s]}, 1,
                /*chained=*/false);
          const int twin = (s + 2) % kBridgedServers;
          Start(size, {cores[twin * kBridgedCores + c], dram[twin]}, 1,
                /*chained=*/false);
        }
        sim.EndBatch();
        break;
      }
      case 1: {  // rescale a DRAM
        const ResourceId r = dram[rng.NextBounded(kBridgedServers)];
        const double gbps = static_cast<double>(rng.NextInRange(20, 40));
        ASSERT_TRUE(sim.SetCapacity(r, GBps(gbps)).ok());
        break;
      }
      case 2: {  // rescale a core, often below its load
        const ResourceId r = cores[rng.NextBounded(cores.size())];
        const double gbps = static_cast<double>(rng.NextInRange(2, 12));
        ASSERT_TRUE(sim.SetCapacity(r, GBps(gbps)).ok());
        break;
      }
      default:  // cancel a pending timer (a no-op once it has fired)
        sim.CancelTimer(pending[rng.NextBounded(pending.size())]);
        break;
    }
  }
};

bool NearlyEqual(double a, double b, double abs) {
  return std::fabs(a - b) <= 1e-9 * std::max(std::fabs(a), std::fabs(b)) + abs;
}

// P12 lazy == eager: the per-group virtual clocks complete the same flows
//     in the same events as the eager loop, at times within 1e-9 relative
//     plus kTimeEpsilon, with every rate bit-exact and every byte counter
//     within 1e-9 relative.  The simulator runs with the crosscheck, which
//     also holds every active flow's rate to its group's share x weight.
TEST_P(FluidPropertyTest, LazyProgressMatchesEagerReference) {
  const std::uint64_t seed = GetParam() ^ 0x1A2E;
  LazyChurn<FluidSimulator> lazy(seed, 60, 400);
  lazy.sim.set_solver_crosscheck(true);
  LazyChurn<EagerReference> eager(seed, 60, 400);
  int steps = 0;
  int tied_steps = 0;  // completion events that retired several flows
  const auto run_lockstep = [&] {
    while (true) {
      const std::size_t done_before = lazy.ends.size();
      const bool lazy_more = lazy.sim.Step();
      const bool eager_more = eager.sim.Step();
      ASSERT_EQ(lazy_more, eager_more) << "step " << steps;
      if (lazy.ends.size() > done_before + 1) ++tied_steps;
      ASSERT_TRUE(NearlyEqual(lazy.sim.now(), eager.sim.now(), 1e-9))
          << "step " << steps << ": " << lazy.sim.now() << " vs "
          << eager.sim.now();
      ASSERT_EQ(lazy.active, eager.active) << "step " << steps;
      if (!lazy_more) break;
      ++steps;
      for (FlowId id : lazy.active) {
        ASSERT_EQ(lazy.sim.FlowRate(id), eager.sim.FlowRate(id))
            << "flow " << id << " after step " << steps;
      }
      for (std::size_t i = 0; i < lazy.all.size(); ++i) {
        const double a = lazy.sim.BytesServed(lazy.all[i]);
        const double b = eager.sim.BytesServed(eager.all[i]);
        ASSERT_TRUE(NearlyEqual(a, b, 0))
            << "resource " << i << " after step " << steps << ": " << a
            << " vs " << b;
      }
    }
  };
  run_lockstep();
  EXPECT_EQ(lazy.issued, lazy.total);
  EXPECT_GT(tied_steps, 0) << "no event retired tied flows; untested";
  // A quiet tail: long flows on one DRAM, a fraction of a byte apart, so
  // the tie window (not the kByteEpsilon rule) is what retires them in one
  // event.
  const int tied_before = tied_steps;
  for (int i = 0; i < 4; ++i) {
    const double bytes = 1e9 + 0.3 * i;
    lazy.Start(bytes, {lazy.cores[i], lazy.dram[0]}, 1, /*chained=*/false);
    eager.Start(bytes, {eager.cores[i], eager.dram[0]}, 1, /*chained=*/false);
  }
  run_lockstep();
  EXPECT_EQ(tied_steps, tied_before + 1) << "the tail split";
  ASSERT_EQ(lazy.ends.size(), eager.ends.size());
  for (const auto& [id, end] : lazy.ends) {
    ASSERT_EQ(eager.ends.count(id), 1u) << "flow " << id;
    EXPECT_TRUE(NearlyEqual(end, eager.ends.at(id), 1e-9))
        << "flow " << id << ": " << end << " vs " << eager.ends.at(id);
  }
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

// --- Cut walk --------------------------------------------------------------

// Two cores feed one DRAM, which splits 10 GB/s between them; each core
// (6 GB/s) runs at 5/6.  When the short flow retires, the walk crosses only
// the saturated DRAM, so the long flow's core is a cut resource, and the
// cut solve would give the long flow all 10 GB/s.  That pushes the cut core
// past its capacity, so the task falls back to the whole component, where
// the core is the bottleneck.  Both sides, and the crosscheck, agree bit
// for bit.
TEST(FluidCutTest, CutResourcePastTheSlackLimitFallsBackToComponentSolve) {
  FluidSimulator inc;
  inc.set_solver_crosscheck(true);
  FluidSimulator full;
  full.set_incremental(false);
  std::vector<FlowId> long_flow;
  for (FluidSimulator* sim : {&inc, &full}) {
    const ResourceId core_a = sim->AddResource("core_a", GBps(6));
    const ResourceId core_b = sim->AddResource("core_b", GBps(6));
    const ResourceId dram = sim->AddResource("dram", GBps(10));
    long_flow.push_back(sim->StartFlow(1e9, {core_a, dram}));
    sim->StartFlow(1e6, {core_b, dram});
    EXPECT_EQ(sim->Utilization(dram), 1.0);
    EXPECT_LT(sim->Utilization(core_a), 1.0);
  }
  EXPECT_EQ(inc.solver_stats().cut_fallbacks, 0u);

  ASSERT_TRUE(inc.Step());  // the short flow retires
  ASSERT_TRUE(full.Step());
  EXPECT_EQ(inc.now(), full.now());
  EXPECT_EQ(inc.solver_stats().cut_fallbacks, 1u);
  EXPECT_EQ(inc.FlowRate(long_flow[0]), GBps(6));
  EXPECT_EQ(inc.FlowRate(long_flow[0]), full.FlowRate(long_flow[1]));

  inc.Run();
  full.Run();
  EXPECT_EQ(inc.now(), full.now());
  for (ResourceId r = 0; r < 3; ++r) {
    EXPECT_EQ(inc.BytesServed(r), full.BytesServed(r));
  }
  MetricsRegistry registry;
  inc.ExportSolverMetrics(registry);
  EXPECT_EQ(registry.Counter("fluid.solver.cut_fallbacks"), 1u);
}

}  // namespace
}  // namespace lmp::sim
