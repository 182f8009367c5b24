// Tests for the compute-shipping TaskScheduler (§4.4's execution runtime).
#include <gtest/gtest.h>

#include "core/compute_ship.h"
#include "core/task_scheduler.h"

namespace lmp::core {
namespace {

class TaskSchedulerTest : public ::testing::Test {
 protected:
  TaskSchedulerTest()
      : topology_(fabric::Topology::MakeLogical(
            &sim_, 4, fabric::LinkProfile::Link0())) {}
  sim::FluidSimulator sim_;
  fabric::Topology topology_;
};

TEST_F(TaskSchedulerTest, SingleTaskStreamsAndComputes) {
  TaskScheduler scheduler(&sim_, &topology_);
  SimTime done_at = -1;
  ASSERT_TRUE(scheduler
                  .Submit(ComputeTask{0, 12e9, Milliseconds(100)},
                          [&](const ComputeTask&, SimTime t) {
                            done_at = t;
                          })
                  .ok());
  scheduler.Drain();
  // 12 GB at the 12 GB/s per-core cap = 1 s, plus 100 ms compute.
  EXPECT_NEAR(done_at, Seconds(1.1), 1e4);
  EXPECT_EQ(scheduler.stats().completed, 1u);
}

TEST_F(TaskSchedulerTest, PureComputeTaskNeedsNoFlow) {
  TaskScheduler scheduler(&sim_, &topology_);
  ASSERT_TRUE(scheduler.Submit(ComputeTask{1, 0, Milliseconds(5)}).ok());
  scheduler.Drain();
  EXPECT_NEAR(sim_.now(), Milliseconds(5), 1.0);
}

TEST_F(TaskSchedulerTest, TasksQueueBeyondSlots) {
  TaskScheduler scheduler(&sim_, &topology_, /*slots_per_server=*/2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        scheduler.Submit(ComputeTask{0, 0, Milliseconds(10)}).ok());
  }
  EXPECT_EQ(scheduler.BusySlots(0), 2);
  EXPECT_EQ(scheduler.QueuedTasks(0), 3u);
  scheduler.Drain();
  // 5 tasks / 2 slots -> 3 sequential waves of 10 ms.
  EXPECT_NEAR(sim_.now(), Milliseconds(30), 1.0);
  EXPECT_EQ(scheduler.stats().completed, 5u);
}

TEST_F(TaskSchedulerTest, ServersRunIndependently) {
  TaskScheduler scheduler(&sim_, &topology_, 1);
  for (int s = 0; s < 4; ++s) {
    ASSERT_TRUE(scheduler
                    .Submit(ComputeTask{static_cast<cluster::ServerId>(s),
                                        0, Milliseconds(20)})
                    .ok());
  }
  scheduler.Drain();
  // All four run in parallel on their own servers.
  EXPECT_NEAR(sim_.now(), Milliseconds(20), 1.0);
}

TEST_F(TaskSchedulerTest, StreamingTasksShareDram) {
  // 14 streaming tasks saturate the server's 97 GB/s DRAM rather than
  // running at 14 x 12 GB/s.
  TaskScheduler scheduler(&sim_, &topology_);
  const double bytes = 97e9 / 14;
  for (int i = 0; i < 14; ++i) {
    ASSERT_TRUE(scheduler.Submit(ComputeTask{2, bytes, 0}).ok());
  }
  scheduler.Drain();
  EXPECT_NEAR(sim_.now(), Seconds(1), 1e4);
}

TEST_F(TaskSchedulerTest, PlanSubTasksRunOnTheirHomes) {
  ShipPlan plan;
  plan.subtasks.push_back({0, GiB(1), {}});
  plan.subtasks.push_back({1, GiB(2), {}});
  plan.subtasks.push_back({3, GiB(1), {}});
  TaskScheduler scheduler(&sim_, &topology_);
  int completions = 0;
  for (const ShipPlan::SubTask& sub : plan.subtasks) {
    ASSERT_TRUE(scheduler
                    .Submit(ComputeTask{sub.server,
                                        static_cast<double>(sub.bytes), 0},
                            [&](const ComputeTask&, SimTime) {
                              ++completions;
                            })
                    .ok());
  }
  scheduler.Drain();
  EXPECT_EQ(completions, 3);
  // Makespan set by the 2 GiB sub-task at the per-core cap.
  EXPECT_NEAR(sim_.now(), double(GiB(2)) / 12e9 * kNsPerSec, 1e5);
}

TEST_F(TaskSchedulerTest, InvalidTasksRejected) {
  TaskScheduler scheduler(&sim_, &topology_);
  EXPECT_FALSE(scheduler.Submit(ComputeTask{9, 0, 0}).ok());
  EXPECT_FALSE(scheduler.Submit(ComputeTask{0, -1, 0}).ok());
  EXPECT_FALSE(scheduler.Submit(ComputeTask{0, 0, -1}).ok());
}

TEST_F(TaskSchedulerTest, MakespanTracksFirstSubmitToLastFinish) {
  TaskScheduler scheduler(&sim_, &topology_, 1);
  ASSERT_TRUE(scheduler.Submit(ComputeTask{0, 0, Milliseconds(10)}).ok());
  ASSERT_TRUE(scheduler.Submit(ComputeTask{0, 0, Milliseconds(10)}).ok());
  scheduler.Drain();
  EXPECT_NEAR(scheduler.stats().makespan, Milliseconds(20), 1.0);
}

}  // namespace
}  // namespace lmp::core
