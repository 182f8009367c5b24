// Integration: ComputeShipper plans from real placement; TaskScheduler
// executes the plan on the timing layer.  Also property checks for the
// balanced-slicing mode of the logical deployment.
#include <gtest/gtest.h>

#include "baselines/logical.h"
#include "core/lmp.h"
#include "sim/stream.h"
#include "core/task_scheduler.h"

namespace lmp {
namespace {

TEST(ShipIntegrationTest, PlanFromRealPlacementExecutesOnScheduler) {
  // Functional pool decides WHERE (by real placement)...
  auto pool_or = Pool::Create(PoolOptions::Small());
  ASSERT_TRUE(pool_or.ok());
  Pool& pool = **pool_or;
  auto buf = pool.Allocate(MiB(150), 0);  // spans 3 servers (64 MiB each)
  ASSERT_TRUE(buf.ok());
  auto plan = pool.shipper().Plan(*buf, 0, MiB(150), 0);
  ASSERT_TRUE(plan.ok());
  ASSERT_GE(plan->subtasks.size(), 3u);

  // ...the scheduler decides WHEN, on the timing layer.
  sim::FluidSimulator sim;
  auto topo = fabric::Topology::MakeLogical(&sim, 4,
                                            fabric::LinkProfile::Link0());
  core::TaskScheduler scheduler(&sim, &topo);
  for (const core::ShipPlan::SubTask& sub : plan->subtasks) {
    const auto bytes = static_cast<double>(sub.bytes);
    ASSERT_TRUE(
        scheduler.Submit(core::ComputeTask{sub.server, bytes, 0.1 * bytes})
            .ok());
  }
  scheduler.Drain();
  EXPECT_EQ(scheduler.stats().completed, plan->subtasks.size());
  EXPECT_GT(scheduler.stats().makespan, 0);
}

TEST(ShipIntegrationTest, ShippedBeatsPulledInSimulatedTime) {
  // The §4.4 comparison at the scheduler level: pulling 8 GiB remotely vs
  // shipping 2 GiB sub-tasks to each of 4 servers.
  sim::FluidSimulator pull_sim;
  auto pull_topo = fabric::Topology::MakeLogical(
      &pull_sim, 4, fabric::LinkProfile::Link1());
  std::vector<std::unique_ptr<sim::SpanStream>> pulls;
  for (int c = 0; c < 14; ++c) {
    pulls.push_back(std::make_unique<sim::SpanStream>(
        &pull_sim, std::vector<sim::Span>{sim::Span{
                       8e9 / 14, pull_topo.RemotePath(0, c, 1)}}));
  }
  const auto pulled = sim::RunStreams(&pull_sim, std::move(pulls));

  sim::FluidSimulator ship_sim;
  auto ship_topo = fabric::Topology::MakeLogical(
      &ship_sim, 4, fabric::LinkProfile::Link1());
  core::TaskScheduler scheduler(&ship_sim, &ship_topo);
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(scheduler
                    .Submit(core::ComputeTask{
                        static_cast<cluster::ServerId>(s), 2e9, 0})
                    .ok());
  }
  scheduler.Drain();
  EXPECT_LT(scheduler.stats().makespan, pulled.end - pulled.start);
}

// --- Balanced-slicing properties -------------------------------------------

TEST(BalancedSlicingTest, SameTotalBytesEitherWay) {
  for (const bool balanced : {false, true}) {
    baselines::LogicalDeployment logical(fabric::LinkProfile::Link0());
    baselines::VectorSumParams params;
    params.vector_bytes = GiB(64);
    params.repetitions = 2;
    params.balanced_slices = balanced;
    auto r = logical.RunWorkload({.vector = params});
    ASSERT_TRUE(r.ok());
    EXPECT_DOUBLE_EQ(r->vector.local_fraction, 0.375);
    EXPECT_TRUE(r->vector.feasible);
  }
}

TEST(BalancedSlicingTest, AdvantageGrowsWithSlowerLink) {
  // The §4.3 monotonicity claim holds under balanced slicing.
  auto ratio = [](const fabric::LinkProfile& link) {
    baselines::LogicalDeployment logical(link);
    baselines::VectorSumParams params;
    params.vector_bytes = GiB(64);
    params.repetitions = 3;
    params.balanced_slices = true;
    auto r = logical.RunWorkload({.vector = params});
    EXPECT_TRUE(r.ok());
    return r->vector.avg_bandwidth_gbps / (link.bandwidth / 1e9);
  };
  EXPECT_GT(ratio(fabric::LinkProfile::Link1()),
            ratio(fabric::LinkProfile::Link0()));
}

TEST(BalancedSlicingTest, FullyLocalVectorUnaffected) {
  for (const bool balanced : {false, true}) {
    baselines::LogicalDeployment logical(fabric::LinkProfile::Link1());
    baselines::VectorSumParams params;
    params.vector_bytes = GiB(8);
    params.repetitions = 2;
    params.balanced_slices = balanced;
    auto r = logical.RunWorkload({.vector = params});
    ASSERT_TRUE(r.ok());
    EXPECT_NEAR(r->vector.avg_bandwidth_gbps, 97.0, 0.5);
  }
}

}  // namespace
}  // namespace lmp
