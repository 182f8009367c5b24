// Steady-state allocation test for the fluid simulator's flow life cycle.
// Every global operator new in this binary is counted
// (support/counting_new.h, as in ops_alloc_test), so a wave of flows on
// recycled slots can be held to zero allocations: hop lists live inline in
// the flow, the per-resource index and the solver scratch keep their
// capacity, and the record table reuses its chunks.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fabric/topology.h"
#include "sim/fluid.h"
#include "support/counting_new.h"

namespace lmp::sim {
namespace {

using fabric::ServerIndex;
using fabric::Topology;

constexpr int kServers = 8;
constexpr int kServersPerRack = 4;
constexpr int kCores = 4;

fabric::MachineProfile SmallMachine() {
  fabric::MachineProfile m;
  m.cores_per_server = kCores;
  return m;
}

// Two racks of four servers joined by a spine: Route gives local,
// rack-local and cross-rack paths, the longest a core's 6-hop spine route.
Topology MakeTwoRacks(FluidSimulator* sim) {
  Topology topo = Topology::MakeLogical(sim, kServers,
                                        fabric::LinkProfile::Link0(),
                                        SmallMachine());
  topo.AssignRackShards(kServersPerRack);
  topo.ProvisionSpine(GBps(20));
  return topo;
}

// One batched wave: every core of every server reads from a home picked by
// core (its own DRAM, the next server, a server in the other rack) and a
// DMA engine pulls from the next server; sizes differ, so the wave retires
// over many completion events.  Runs the wave to the end and returns the
// number of flows it started.
int RunWave(FluidSimulator& sim, const Topology& topo,
            const FluidSimulator::FlowCallback& on_done) {
  int started = 0;
  sim.BeginBatch();
  for (int s = 0; s < kServers; ++s) {
    const auto src = static_cast<ServerIndex>(s);
    const auto next = static_cast<ServerIndex>((s + 1) % kServers);
    const auto other_rack =
        static_cast<ServerIndex>((s + kServersPerRack) % kServers);
    const ServerIndex homes[kCores] = {src, next, other_rack, other_rack};
    for (int c = 0; c < kCores; ++c) {
      const double bytes = 1e6 * (1 + (s * kCores + c) % 7);
      sim.StartFlow(bytes, topo.Route(src, c, homes[c]), on_done);
      ++started;
    }
    sim.StartFlow(5e5 * (1 + s % 3), topo.Route(src, Topology::kDmaEngine, next),
                  on_done);
    ++started;
  }
  sim.EndBatch();
  sim.Run();
  return started;
}

class FluidAllocTest : public ::testing::TestWithParam<int> {};

// After a warm-up wave has sized every slot, index, group and scratch
// buffer, a second identical wave allocates nothing: not when its flows
// start, not in its solves, not when they complete.
TEST_P(FluidAllocTest, WarmWaveAllocatesNothing) {
  FluidSimulator sim;
  sim.set_threads(GetParam());
  sim.set_record_retention(RecordRetention::kDropCompleted);
  const Topology topo = MakeTwoRacks(&sim);
  int done = 0;
  // Captures one reference: stored inline in the std::function.
  const FluidSimulator::FlowCallback on_done = [&done](FlowId, SimTime) {
    ++done;
  };

  const int warm = RunWave(sim, topo, on_done);
  ASSERT_EQ(done, warm);
  ASSERT_EQ(sim.active_flow_count(), 0u);

  const std::uint64_t before = g_new_calls.load();
  const int second = RunWave(sim, topo, on_done);
  const std::uint64_t allocations = g_new_calls.load() - before;

  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(done, warm + second);
  EXPECT_EQ(sim.active_flow_count(), 0u);
  EXPECT_EQ(sim.record_count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Threads, FluidAllocTest, ::testing::Values(1, 2));

// A core's cross-rack access fills the inline path to kMaxHops and runs:
// every hop serves the flow's bytes in full.
TEST(FluidPathTest, CrossRackCoreRouteRuns) {
  FluidSimulator sim;
  const Topology topo = MakeTwoRacks(&sim);
  const Path path = topo.Route(0, 1, 5);
  ASSERT_EQ(path.size(), Path::kMaxHops);
  const FlowId f = sim.StartFlow(4e6, path);
  sim.Run();
  ASSERT_NE(sim.record(f), nullptr);
  EXPECT_TRUE(sim.record(f)->done);
  for (ResourceId r : path) EXPECT_DOUBLE_EQ(sim.BytesServed(r), 4e6);
}

// No router builds a path longer than kMaxHops, and StartFlow refuses one.
TEST(FluidPathDeathTest, SevenHopPathIsRejected) {
  FluidSimulator sim;
  std::vector<ResourceId> seven;
  for (int i = 0; i < 7; ++i) {
    seven.push_back(sim.AddResource("r" + std::to_string(i), GBps(10)));
  }
  EXPECT_DEATH(sim.StartFlow(1e6, seven), "path longer than 6 hops");
}

}  // namespace
}  // namespace lmp::sim
