// Determinism tests for the sharded parallel solver.  The contract is
// strict: shard hints and worker threads are a pure wall-clock
// optimization, so the same seeded scenario run at 1, 2, and 8 worker
// threads must produce byte-identical trace JSON, byte-identical metrics
// JSON, and bit-identical final simulated state.  A second scenario holds
// the same contract where solves re-rate cut components (DRAM-bound racks
// whose servers are bridged by unsaturated link ports).  A last test pins
// the partitioning semantics themselves (closed shards become independent
// tasks; a cross-shard flow funnels its shards to the spill path).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "common/units.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::sim {
namespace {

constexpr int kServers = 48;
constexpr int kServersPerRack = 16;
constexpr int kWaves = 3;

struct RunOutput {
  std::string trace_json;
  std::string metrics_json;
  SimTime end_time = 0;
  std::vector<double> bytes_served;
  std::vector<SimTime> flow_ends;
  std::uint64_t parallel_solves = 0;
  SolverStats stats;
};

// Collects what RunOutput compares once the scenario has run.
RunOutput Collect(FluidSimulator& sim, const fabric::Topology& topo,
                  int servers, const std::vector<FlowId>& flows,
                  const trace::TraceCollector& trace) {
  RunOutput out;
  out.end_time = sim.now();
  out.stats = sim.solver_stats();
  out.parallel_solves = out.stats.parallel_solves;
  for (int s = 0; s < servers; ++s) {
    const auto idx = static_cast<fabric::ServerIndex>(s);
    out.bytes_served.push_back(sim.BytesServed(topo.port(idx)));
    out.bytes_served.push_back(sim.BytesServed(topo.dram(idx)));
  }
  for (FlowId f : flows) {
    out.flow_ends.push_back(sim.record(f)->end);
  }
  out.trace_json = trace.ToChromeJson();
  MetricsRegistry registry;
  sim.ExportSolverMetrics(registry);
  out.metrics_json = trace::MetricsJson(registry);
  return out;
}

void ExpectIdentical(const RunOutput& t1, const RunOutput& tn, int threads) {
  EXPECT_EQ(t1.trace_json, tn.trace_json) << "threads=" << threads;
  EXPECT_EQ(t1.metrics_json, tn.metrics_json) << "threads=" << threads;
  EXPECT_EQ(t1.end_time, tn.end_time) << "threads=" << threads;
  EXPECT_EQ(t1.bytes_served, tn.bytes_served) << "threads=" << threads;
  EXPECT_EQ(t1.flow_ends, tn.flow_ends) << "threads=" << threads;
  EXPECT_EQ(t1.parallel_solves, tn.parallel_solves) << "threads=" << threads;
}

// Three waves of mostly rack-local flows (batched arrivals), a sprinkle of
// cross-rack traffic to keep the spill path hot, and a mid-run capacity
// change.  Everything is driven by a fixed-seed Rng, so two invocations
// see the same schedule and only `threads` differs.
RunOutput RunScenario(int threads) {
  trace::TraceCollector trace;
  FluidSimulator sim;
  sim.set_threads(threads);
  // Every incremental solve is additionally checked bit-exactly against a
  // full progressive-filling pass, sharded or not.
  sim.set_solver_crosscheck(true);
  trace.BeginProcess("shard-determinism");
  trace.set_clock([&sim] { return sim.now(); });
  sim.set_trace(&trace);

  auto topo = fabric::Topology::MakeLogical(&sim, kServers,
                                            fabric::LinkProfile::Link1());
  topo.AssignRackShards(kServersPerRack);

  Rng rng(2024);
  std::vector<FlowId> flows;
  for (int w = 0; w < kWaves; ++w) {
    sim.ScheduleAt(w * Microseconds(200), [&](SimTime) {
      sim.BeginBatch();
      for (int s = 0; s < kServers; ++s) {
        const auto src = static_cast<fabric::ServerIndex>(s);
        for (int i = 0; i < 3; ++i) {
          const double bytes =
              static_cast<double>(rng.NextInRange(1, 50)) * 1e5;
          const double weight = static_cast<double>(rng.NextInRange(1, 4));
          // ~1 in 8 flows crosses racks and opens both endpoints' shards.
          const auto dst = static_cast<fabric::ServerIndex>(
              rng.NextBernoulli(0.125)
                  ? (s + kServersPerRack) % kServers
                  : (s / kServersPerRack) * kServersPerRack +
                        (s + 1) % kServersPerRack);
          if (dst == src) continue;
          flows.push_back(sim.StartFlow(
              bytes, topo.RemotePath(src, i, dst), nullptr, weight));
        }
      }
      sim.EndBatch();
    });
  }
  sim.ScheduleAt(Microseconds(300), [&](SimTime) {
    ASSERT_TRUE(sim.SetCapacity(topo.port(7), GBps(4)).ok());
  });
  sim.Run();
  return Collect(sim, topo, kServers, flows, trace);
}

// Three racks of four 14-core servers.  Each wave starts three flows per
// core, so every DRAM (97 GB/s) saturates while the cores (12 GB/s) and
// link ports do not, and ~5 % of flows read another server's DRAM in the
// same rack.  Each rack is one closed shard and one connected component,
// but a solve crosses only saturated resources, so it re-rates the flows
// of the DRAMs an event touches and cuts at the ports and cores.
constexpr int kCutServers = 12;
constexpr int kCutServersPerRack = 4;
constexpr int kCutCores = 14;

RunOutput RunCutScenario(int threads) {
  trace::TraceCollector trace;
  FluidSimulator sim;
  sim.set_threads(threads);
  sim.set_solver_crosscheck(true);
  trace.BeginProcess("cut-determinism");
  trace.set_clock([&sim] { return sim.now(); });
  sim.set_trace(&trace);

  auto topo = fabric::Topology::MakeLogical(&sim, kCutServers,
                                            fabric::LinkProfile::Link0());
  topo.AssignRackShards(kCutServersPerRack);

  Rng rng(7);
  std::vector<FlowId> flows;
  for (int w = 0; w < kWaves; ++w) {
    sim.ScheduleAt(w * Microseconds(100), [&](SimTime) {
      sim.BeginBatch();
      for (int s = 0; s < kCutServers; ++s) {
        const auto src = static_cast<fabric::ServerIndex>(s);
        for (int i = 0; i < 3 * kCutCores; ++i) {
          const double bytes =
              static_cast<double>(rng.NextInRange(1, 100)) * 1e5;
          const int core = i % kCutCores;
          if (rng.NextBernoulli(0.05)) {
            const int rack = s / kCutServersPerRack * kCutServersPerRack;
            const auto dst = static_cast<fabric::ServerIndex>(
                rack + (s + 1 + static_cast<int>(rng.NextBounded(
                                    kCutServersPerRack - 1))) %
                           kCutServersPerRack);
            flows.push_back(
                sim.StartFlow(bytes, topo.RemotePath(src, core, dst)));
          } else {
            flows.push_back(sim.StartFlow(bytes, topo.LocalPath(src, core)));
          }
        }
      }
      sim.EndBatch();
    });
  }
  sim.ScheduleAt(Microseconds(150), [&](SimTime) {
    ASSERT_TRUE(sim.SetCapacity(topo.dram(5), GBps(120)).ok());
  });
  sim.Run();
  return Collect(sim, topo, kCutServers, flows, trace);
}

TEST(FluidShardTest, OutputIsByteIdenticalAcrossThreadCounts) {
  const RunOutput t1 = RunScenario(1);
  // The scenario must actually exercise the parallel partition, or this
  // test proves nothing.
  EXPECT_GT(t1.parallel_solves, 0u);
  for (const int threads : {2, 8}) {
    ExpectIdentical(t1, RunScenario(threads), threads);
  }
}

TEST(FluidShardTest, CutComponentsAreByteIdenticalAcrossThreadCounts) {
  const RunOutput t1 = RunCutScenario(1);
  EXPECT_GT(t1.parallel_solves, 0u);
  // Each rack is one connected component, so a classic walk re-rates the
  // whole rack (241 flows per solve here); cut solves re-rate the flows of
  // a DRAM or two (82 per solve), fewer than one wave starts in a rack.
  EXPECT_LT(t1.stats.flows_touched,
            t1.stats.recompute_calls * 3 * kCutCores * kCutServersPerRack);
  ExpectIdentical(t1, RunCutScenario(4), 4);
}

TEST(FluidShardTest, ClosedShardsSolveAsIndependentTasks) {
  FluidSimulator sim;
  sim.set_threads(2);
  sim.set_solver_crosscheck(true);
  const ResourceId a0 = sim.AddResource("a0", GBps(10));
  const ResourceId a1 = sim.AddResource("a1", GBps(10));
  const ResourceId b0 = sim.AddResource("b0", GBps(10));
  const ResourceId b1 = sim.AddResource("b1", GBps(10));
  sim.SetResourceShard(a0, 0);
  sim.SetResourceShard(a1, 0);
  sim.SetResourceShard(b0, 1);
  sim.SetResourceShard(b1, 1);

  // One intra-shard flow per shard: both shards are closed, so the solve
  // partitions into two independent tasks.
  sim.BeginBatch();
  const FlowId fa = sim.StartFlow(1e12, {a0, a1});
  const FlowId fb = sim.StartFlow(1e12, {b0, b1});
  sim.EndBatch();
  const SolverStats after_closed = sim.solver_stats();
  EXPECT_EQ(after_closed.recompute_calls, 1u);
  EXPECT_EQ(after_closed.shard_tasks, 2u);
  EXPECT_EQ(after_closed.parallel_solves, 1u);
  EXPECT_NEAR(sim.FlowRate(fa), GBps(10), 1);
  EXPECT_NEAR(sim.FlowRate(fb), GBps(10), 1);

  // A cross-shard flow opens both shards: everything funnels into the one
  // sequential spill task and the solve is no longer parallel.
  const FlowId fx = sim.StartFlow(1e12, {a1, b0});
  const SolverStats after_cross = sim.solver_stats();
  EXPECT_EQ(after_cross.recompute_calls, 2u);
  EXPECT_EQ(after_cross.shard_tasks - after_closed.shard_tasks, 1u);
  EXPECT_EQ(after_cross.parallel_solves, after_closed.parallel_solves);
  EXPECT_NEAR(sim.FlowRate(fa), GBps(5), 1);
  EXPECT_NEAR(sim.FlowRate(fx), GBps(5), 1);
  sim.Run();
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

}  // namespace
}  // namespace lmp::sim
