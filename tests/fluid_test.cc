// Tests for the fluid-flow simulator: max-min fairness, event ordering,
// timers, utilization accounting, and the large-simulated-time regression
// (Zeno deadlock) that once hung the Figure benches.
#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/fluid.h"
#include "sim/stream.h"

namespace lmp::sim {
namespace {

// Steps until flow `id` has completed: its record is done, or already
// retired (looked up afresh each step, since retiring frees the record).
void StepUntilDone(FluidSimulator& sim, FlowId id) {
  for (const FlowRecord* rec = sim.record(id); rec != nullptr && !rec->done;
       rec = sim.record(id)) {
    ASSERT_TRUE(sim.Step()) << "simulation drained before flow " << id;
  }
}

TEST(FluidTest, SingleFlowSingleResource) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  const FlowId f = sim.StartFlow(10e9, {r});
  sim.Run();
  const FlowRecord* rec = sim.record(f);
  ASSERT_NE(rec, nullptr);
  EXPECT_TRUE(rec->done);
  EXPECT_NEAR(rec->end - rec->start, Seconds(1), 1);  // 10 GB at 10 GB/s
}

TEST(FluidTest, RateLimitedByBottleneck) {
  FluidSimulator sim;
  const ResourceId fast = sim.AddResource("fast", GBps(100));
  const ResourceId slow = sim.AddResource("slow", GBps(10));
  const FlowId f = sim.StartFlow(10e9, {fast, slow});
  sim.Run();
  EXPECT_NEAR(sim.record(f)->end, Seconds(1), 1);
}

TEST(FluidTest, TwoFlowsShareFairly) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  const FlowId a = sim.StartFlow(5e9, {r});
  const FlowId b = sim.StartFlow(5e9, {r});
  sim.Run();
  // Each gets 5 GB/s; both finish at t=1s.
  EXPECT_NEAR(sim.record(a)->end, Seconds(1), 1);
  EXPECT_NEAR(sim.record(b)->end, Seconds(1), 1);
}

TEST(FluidTest, ShortFlowFinishesThenLongSpeedsUp) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  const FlowId small = sim.StartFlow(1e9, {r});
  const FlowId big = sim.StartFlow(9e9, {r});
  sim.Run();
  // Phase 1: both at 5 GB/s until small done at 0.2s (1GB/5GBps).
  EXPECT_NEAR(sim.record(small)->end, Seconds(0.2), 1e3);
  // Big: 1 GB in phase 1, then 8 GB at full 10 GB/s = 0.8s more.
  EXPECT_NEAR(sim.record(big)->end, Seconds(1.0), 1e3);
}

TEST(FluidTest, MaxMinWithHeterogeneousPaths) {
  // Flow A crosses only the big resource; flow B crosses big and small.
  // B is throttled by small; A picks up the slack on big.
  FluidSimulator sim;
  const ResourceId big = sim.AddResource("big", GBps(10));
  const ResourceId small = sim.AddResource("small", GBps(2));
  const FlowId a = sim.StartFlow(1e9, {big});
  const FlowId b = sim.StartFlow(1e9, {big, small});
  EXPECT_NEAR(sim.FlowRate(b), GBps(2), 1);   // bottlenecked at small
  EXPECT_NEAR(sim.FlowRate(a), GBps(8), 1);   // rest of big
  sim.Run();
  EXPECT_TRUE(sim.record(a)->done);
  EXPECT_TRUE(sim.record(b)->done);
}

TEST(FluidTest, FourteenCoresSaturateDram) {
  // The paper's local configuration: 14 cores, each capped at 12 GB/s,
  // share a 97 GB/s DRAM device -> aggregate is DRAM-bound at 97.
  FluidSimulator sim;
  const ResourceId dram = sim.AddResource("dram", GBps(97));
  std::vector<ResourceId> cores;
  for (int c = 0; c < 14; ++c) {
    cores.push_back(sim.AddResource("core", GBps(12)));
  }
  const double per_core_bytes = 97e9 / 14;
  for (int c = 0; c < 14; ++c) {
    sim.StartFlow(per_core_bytes, {cores[c], dram});
  }
  const double util = sim.Utilization(dram);
  EXPECT_NEAR(util, 1.0, 1e-9);
  sim.Run();
  EXPECT_NEAR(sim.now(), Seconds(1), 1e3);
}

TEST(FluidTest, ZeroByteFlowCompletesImmediately) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  bool fired = false;
  SimTime fired_at = -1;
  const FlowId f = sim.StartFlow(0, {r}, [&](FlowId, SimTime t) {
    fired = true;
    fired_at = t;
  });
  // The record is final immediately; the callback is deferred through a
  // zero-delay timer so it cannot re-enter StartFlow.
  EXPECT_TRUE(sim.record(f)->done);
  EXPECT_EQ(sim.active_flow_count(), 0u);
  EXPECT_FALSE(fired);
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_DOUBLE_EQ(fired_at, 0);  // zero simulated delay
}

TEST(FluidTest, EmptyPathCompletesImmediately) {
  FluidSimulator sim;
  const FlowId f = sim.StartFlow(100, {});
  EXPECT_TRUE(sim.record(f)->done);
}

// Regression: the degenerate-flow callback used to fire synchronously
// inside StartFlow, so a callback that itself started flows re-entered the
// simulator mid-update (and deep chains recursed without bound).
TEST(FluidTest, DegenerateFlowCallbackDoesNotReenterStartFlow) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  bool start_flow_returned = false;
  bool fired = false;
  sim.StartFlow(0, {r}, [&](FlowId, SimTime) {
    EXPECT_TRUE(start_flow_returned);
    fired = true;
  });
  start_flow_returned = true;
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(FluidTest, DegenerateFlowChainDoesNotRecurse) {
  // 50k zero-byte flows, each started from the previous one's callback.
  // Under the old synchronous dispatch this recursed 50k frames deep.
  FluidSimulator sim;
  sim.set_record_retention(RecordRetention::kDropCompleted);
  int remaining = 50000;
  std::function<void(FlowId, SimTime)> chain = [&](FlowId, SimTime) {
    if (--remaining > 0) sim.StartFlow(0, {}, chain);
  };
  sim.StartFlow(0, {}, chain);
  sim.Run();
  EXPECT_EQ(remaining, 0);
  EXPECT_EQ(sim.record_count(), 0u);
}

// A timer scheduled exactly at a flow's completion instant fires first; the
// completion (remaining == 0) sweeps on the next step, at the same
// timestamp.  Pins the intended event ordering.
TEST(FluidTest, TimerAtCompletionInstantFiresBeforeCompletion) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  const FlowId f = sim.StartFlow(1e9, {r});  // completes at exactly 1 s
  bool timer_fired = false;
  bool flow_done_at_timer = true;
  sim.ScheduleAt(Seconds(1), [&](SimTime) {
    timer_fired = true;
    flow_done_at_timer = sim.record(f)->done;
  });
  ASSERT_TRUE(sim.Step());  // the timer wins the tie
  EXPECT_TRUE(timer_fired);
  EXPECT_FALSE(flow_done_at_timer);
  EXPECT_FALSE(sim.record(f)->done);
  EXPECT_EQ(sim.active_flow_count(), 1u);
  ASSERT_TRUE(sim.Step());  // the completion sweep, zero time later
  EXPECT_TRUE(sim.record(f)->done);
  EXPECT_DOUBLE_EQ(sim.record(f)->end, Seconds(1));
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

// --- Records ----------------------------------------------------------------

TEST(FluidTest, ReleaseRecordBoundsMemory) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  const FlowId f = sim.StartFlow(1e9, {r});
  EXPECT_FALSE(sim.ReleaseRecord(f).ok());  // still active
  sim.Run();
  EXPECT_EQ(sim.record_count(), 1u);
  ASSERT_TRUE(sim.ReleaseRecord(f).ok());
  EXPECT_EQ(sim.record_count(), 0u);
  EXPECT_EQ(sim.record(f), nullptr);
  EXPECT_FALSE(sim.ReleaseRecord(f).ok());     // already gone
  EXPECT_FALSE(sim.ReleaseRecord(9999).ok());  // never existed
}

TEST(FluidTest, DropCompletedRetentionKeepsNoHistory) {
  FluidSimulator sim;
  sim.set_record_retention(RecordRetention::kDropCompleted);
  const ResourceId r = sim.AddResource("link", GBps(10));
  int completions = 0;
  for (int i = 0; i < 100; ++i) {
    sim.StartFlow(1e8, {r}, [&](FlowId, SimTime) { ++completions; });
  }
  sim.Run();
  EXPECT_EQ(completions, 100);
  EXPECT_EQ(sim.record_count(), 0u);
}

TEST(FluidTest, RecordsReleasedOutOfOrderAcrossRetentionModes) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  const FlowId slow = sim.StartFlow(10e9, {r});
  std::vector<FlowId> quick;
  for (int i = 0; i < 4; ++i) quick.push_back(sim.StartFlow(0.1e9, {r}));
  StepUntilDone(sim, quick.back());
  // Keep-all: release from the middle and the back, not the front.
  ASSERT_TRUE(sim.ReleaseRecord(quick[3]).ok());
  ASSERT_TRUE(sim.ReleaseRecord(quick[1]).ok());
  EXPECT_EQ(sim.record(quick[1]), nullptr);
  EXPECT_EQ(sim.record(quick[3]), nullptr);
  EXPECT_FALSE(sim.ReleaseRecord(quick[1]).ok());
  EXPECT_EQ(sim.record_count(), 3u);  // slow, quick[0], quick[2]
  const FlowRecord* kept = sim.record(quick[2]);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(kept->done);
  const SimTime kept_end = kept->end;

  // Drop-completed: later flows retire themselves, and the slow flow
  // (started under keep-all) is dropped when it completes too.
  sim.set_record_retention(RecordRetention::kDropCompleted);
  std::vector<FlowId> later;
  for (int i = 0; i < 1000; ++i) later.push_back(sim.StartFlow(1e6, {r}));
  StepUntilDone(sim, later.front());
  EXPECT_EQ(sim.record(later.front()), nullptr);
  EXPECT_EQ(sim.record(quick[2]), kept);  // records never move
  sim.Run();
  EXPECT_EQ(sim.record(slow), nullptr);  // retired means done
  EXPECT_EQ(sim.record_count(), 2u);     // quick[0], quick[2]
  EXPECT_EQ(kept->end, kept_end);
  ASSERT_TRUE(sim.ReleaseRecord(quick[0]).ok());
  ASSERT_TRUE(sim.ReleaseRecord(quick[2]).ok());
  EXPECT_EQ(sim.record_count(), 0u);

  // Ids past every retired record still start, complete and release.
  sim.set_record_retention(RecordRetention::kKeepAll);
  const FlowId last = sim.StartFlow(1e6, {r});
  sim.Run();
  ASSERT_NE(sim.record(last), nullptr);
  EXPECT_TRUE(sim.record(last)->done);
  EXPECT_EQ(sim.record_count(), 1u);
  EXPECT_FALSE(sim.ReleaseRecord(last + 1).ok());
}

// One long flow holds the record table's front while thousands of later
// flows start and retire behind it: lookups stay exact, and once the long
// flow retires the table trims past every dead entry.
TEST(FluidTest, PinnedFrontKeepsLookupsExactAndTrimsOnRetire) {
  FluidSimulator sim;
  sim.set_record_retention(RecordRetention::kDropCompleted);
  const ResourceId pinned_link = sim.AddResource("pinned", GBps(1));
  const ResourceId r = sim.AddResource("link", GBps(1));
  const FlowId pinned = sim.StartFlow(1e9, {pinned_link});  // 1 s
  const FlowRecord* pinned_rec = sim.record(pinned);
  ASSERT_NE(pinned_rec, nullptr);
  FlowId last = 0;
  for (int wave = 0; wave < 4; ++wave) {
    std::vector<FlowId> ids;
    for (int i = 0; i < 1000; ++i) ids.push_back(sim.StartFlow(1e3, {r}));
    while (sim.record_count() > 1) ASSERT_TRUE(sim.Step());
    for (FlowId id : ids) EXPECT_EQ(sim.record(id), nullptr);
    EXPECT_EQ(sim.record(pinned), pinned_rec);
    EXPECT_FALSE(pinned_rec->done);
    // A kept record behind the dead entries, released by hand.
    sim.set_record_retention(RecordRetention::kKeepAll);
    const FlowId kept = sim.StartFlow(1e3, {r});
    StepUntilDone(sim, kept);
    sim.set_record_retention(RecordRetention::kDropCompleted);
    ASSERT_NE(sim.record(kept), nullptr);
    EXPECT_TRUE(sim.record(kept)->done);
    EXPECT_EQ(sim.record_count(), 2u);
    ASSERT_TRUE(sim.ReleaseRecord(kept).ok());
    EXPECT_EQ(sim.record(kept), nullptr);
    EXPECT_EQ(sim.record_count(), 1u);
    last = kept;
  }
  StepUntilDone(sim, pinned);
  EXPECT_EQ(sim.record(pinned), nullptr);
  EXPECT_EQ(sim.record_count(), 0u);
  EXPECT_EQ(sim.record(last), nullptr);
  const FlowId next = sim.StartFlow(1e3, {r});
  EXPECT_EQ(next, last + 1);
  ASSERT_NE(sim.record(next), nullptr);
  EXPECT_EQ(sim.record_count(), 1u);
  sim.Run();
  EXPECT_EQ(sim.record(next), nullptr);
  EXPECT_EQ(sim.record_count(), 0u);
}

TEST(FluidTest, FairShareIsTightestCapacityOverCrossingFlowsPlusOne) {
  FluidSimulator sim;
  const ResourceId wide = sim.AddResource("wide", GBps(10));
  const ResourceId narrow = sim.AddResource("narrow", GBps(4));
  const std::vector<ResourceId> one{wide};
  const std::vector<ResourceId> both{wide, narrow};
  EXPECT_DOUBLE_EQ(sim.FairShare(one), GBps(10));
  EXPECT_DOUBLE_EQ(sim.FairShare(both), GBps(4));
  sim.StartFlow(1e12, {wide});
  EXPECT_DOUBLE_EQ(sim.FairShare(one), GBps(5));
  EXPECT_DOUBLE_EQ(sim.FairShare(both), GBps(4));
  sim.StartFlow(1e12, {narrow});
  sim.StartFlow(1e12, {narrow, wide});
  EXPECT_DOUBLE_EQ(sim.FairShare(both), GBps(4) / 3);
  const SolverStats before = sim.solver_stats();
  (void)sim.FairShare(one);
  EXPECT_EQ(sim.solver_stats().recompute_calls, before.recompute_calls);
}

// --- Solver introspection ---------------------------------------------------

TEST(FluidTest, SolverTouchesOnlyTheAffectedComponent) {
  FluidSimulator sim;
  const ResourceId a = sim.AddResource("a", GBps(10));
  const ResourceId b = sim.AddResource("b", GBps(10));
  sim.StartFlow(1e12, {a});
  const SolverStats after_first = sim.solver_stats();
  EXPECT_EQ(after_first.recompute_calls, 1u);
  EXPECT_EQ(after_first.flows_touched, 1u);
  // A flow on a disjoint resource re-rates only itself.
  sim.StartFlow(1e12, {b});
  const SolverStats after_second = sim.solver_stats();
  EXPECT_EQ(after_second.recompute_calls, 2u);
  EXPECT_EQ(after_second.flows_touched - after_first.flows_touched, 1u);
  // A flow bridging both components re-rates all three.
  sim.StartFlow(1e12, {a, b});
  const SolverStats after_third = sim.solver_stats();
  EXPECT_EQ(after_third.flows_touched - after_second.flows_touched, 3u);
  EXPECT_GE(after_third.full_solves, 1u);
}

TEST(FluidTest, ExportSolverMetricsReportsDeltas) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  sim.StartFlow(1e9, {r});
  sim.Run();
  MetricsRegistry registry;
  sim.ExportSolverMetrics(registry);
  const std::uint64_t calls = registry.Counter("fluid.solver.recompute_calls");
  EXPECT_GT(calls, 0u);
  EXPECT_GT(registry.Counter("fluid.solver.flows_touched"), 0u);
  // Re-exporting without new work adds nothing (deltas, not totals).
  sim.ExportSolverMetrics(registry);
  EXPECT_EQ(registry.Counter("fluid.solver.recompute_calls"), calls);
}

TEST(FluidTest, CompletionCallbackCanChainFlows) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  int completions = 0;
  sim.StartFlow(1e9, {r}, [&](FlowId, SimTime) {
    ++completions;
    sim.StartFlow(1e9, {r}, [&](FlowId, SimTime) { ++completions; });
  });
  sim.Run();
  EXPECT_EQ(completions, 2);
  EXPECT_NEAR(sim.now(), Seconds(2), 1e3);
}

TEST(FluidTest, TimersFireInOrder) {
  FluidSimulator sim;
  sim.AddResource("unused", GBps(1));
  std::vector<int> order;
  sim.ScheduleAt(Seconds(2), [&](SimTime) { order.push_back(2); });
  sim.ScheduleAt(Seconds(1), [&](SimTime) { order.push_back(1); });
  sim.ScheduleAfter(Seconds(3), [&](SimTime) { order.push_back(3); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(sim.now(), Seconds(3));
}

TEST(FluidTest, TimerTiebreakIsFifo) {
  FluidSimulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(1), [&](SimTime) { order.push_back(1); });
  sim.ScheduleAt(Seconds(1), [&](SimTime) { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(FluidTest, TimerInterleavesWithFlows) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  const FlowId f = sim.StartFlow(2e9, {r});  // completes at 2s
  double flow_rate_at_timer = -1;
  sim.ScheduleAt(Seconds(1), [&](SimTime) {
    flow_rate_at_timer = sim.FlowRate(f);
  });
  sim.Run();
  EXPECT_NEAR(flow_rate_at_timer, GBps(1), 1);
  EXPECT_NEAR(sim.record(f)->end, Seconds(2), 1e3);
}

TEST(FluidTest, SetCapacityChangesRates) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  const FlowId f = sim.StartFlow(10e9, {r});
  EXPECT_NEAR(sim.FlowRate(f), GBps(10), 1);
  ASSERT_TRUE(sim.SetCapacity(r, GBps(5)).ok());
  EXPECT_NEAR(sim.FlowRate(f), GBps(5), 1);
  EXPECT_FALSE(sim.SetCapacity(999, GBps(1)).ok());
  EXPECT_FALSE(sim.SetCapacity(r, 0).ok());
}

TEST(FluidTest, BytesServedAccumulates) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  sim.StartFlow(3e9, {r});
  sim.Run();
  EXPECT_NEAR(sim.BytesServed(r), 3e9, 1);
}

TEST(FluidTest, UtilizationDropsWhenIdle) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  sim.StartFlow(1e9, {r});
  EXPECT_DOUBLE_EQ(sim.Utilization(r), 1.0);
  sim.Run();
  EXPECT_DOUBLE_EQ(sim.Utilization(r), 0.0);
}

TEST(FluidTest, SmoothedUtilizationLagsInstantaneous) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  sim.StartFlow(0.1e9, {r});  // 100 ms of full load
  EXPECT_LT(sim.SmoothedUtilization(r), 0.5);  // just started
  sim.Run();
  EXPECT_GT(sim.SmoothedUtilization(r), 0.9);  // long past the tau
}

// Regression: at simulated times beyond ~2^31 ns, absolute-time rounding
// once stranded sub-epsilon residues and the loop never advanced.
TEST(FluidTest, NoZenoDeadlockAtLargeSimTimes) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(34.5));
  // Push now_ far out, then run many equal flows like the no-cache bench.
  sim.ScheduleAt(Seconds(10), [](SimTime) {});
  sim.Run();
  for (int rep = 0; rep < 20; ++rep) {
    std::vector<FlowId> flows;
    for (int c = 0; c < 14; ++c) {
      flows.push_back(sim.StartFlow(8e9 / 14 + c, {r}));
    }
    sim.Run();
    for (FlowId f : flows) EXPECT_TRUE(sim.record(f)->done);
  }
  EXPECT_GT(sim.now(), Seconds(10));
}

// Regression: SetCapacity must fold the elapsed utilization window at the
// OLD capacity before repricing.  It used to mutate `capacity` first, so
// the smoothed-utilization EWMA charged the whole elapsed window at the
// new capacity — here that would halve a saturated reading.
TEST(FluidTest, SetCapacityFoldsUtilizationAtOldCapacity) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  sim.StartFlow(1e9, {r});  // saturates the link for a full second
  double smoothed = -1;
  sim.ScheduleAt(Microseconds(50), [&](SimTime) {
    // Five taus at 100% utilization, then double the capacity.  The window
    // [0, 50us) ran against the old capacity, so the folded EWMA must stay
    // near saturation (1 - e^-5 ~ 0.993); folding it at the doubled
    // capacity would report ~0.5.
    ASSERT_TRUE(sim.SetCapacity(r, GBps(2)).ok());
    smoothed = sim.SmoothedUtilization(r);
  });
  sim.Run();
  EXPECT_GT(smoothed, 0.95);
}

// Regression: completion events used to credit every tied flow with
// rate x dt, dropping the sub-tolerance residue the tie absorbed.  The
// clamp in AdvanceTo plus the tied-residue flush makes BytesServed exact
// per flow: 2e9 + (2e9 + 1) bytes must come out as exactly 4e9 + 1.
TEST(FluidTest, TiedCompletionsCreditExactBytes) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(8));
  // Both run at 4 GB/s; the second is one byte longer, which is within the
  // completion tolerance, so both finish in the same event.
  sim.StartFlow(2e9, {r});
  sim.StartFlow(2e9 + 1.0, {r});
  sim.Run();
  EXPECT_EQ(sim.active_flow_count(), 0u);
  EXPECT_DOUBLE_EQ(sim.BytesServed(r), 4e9 + 1.0);
}

// Batched arrivals defer the solve to EndBatch but must land in exactly
// the state the unbatched sequence produces (no simulated time passes
// inside a batch), with a single recompute instead of one per call.
TEST(FluidTest, BatchedArrivalsMatchUnbatched) {
  FluidSimulator batched, plain;
  const ResourceId rb = batched.AddResource("link", GBps(10));
  const ResourceId rp = plain.AddResource("link", GBps(10));
  batched.BeginBatch();
  EXPECT_TRUE(batched.in_batch());
  std::vector<FlowId> bf, pf;
  for (int i = 0; i < 4; ++i) {
    bf.push_back(batched.StartFlow((i + 1) * 1e9, {rb}));
    EXPECT_DOUBLE_EQ(batched.FlowRate(bf.back()), 0.0);  // not rated yet
  }
  ASSERT_TRUE(batched.SetCapacity(rb, GBps(8)).ok());
  batched.EndBatch();
  EXPECT_EQ(batched.solver_stats().recompute_calls, 1u);
  ASSERT_TRUE(plain.SetCapacity(rp, GBps(8)).ok());
  for (int i = 0; i < 4; ++i) {
    pf.push_back(plain.StartFlow((i + 1) * 1e9, {rp}));
  }
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(batched.FlowRate(bf[i]), plain.FlowRate(pf[i]));  // bit-exact
  }
  batched.Run();
  plain.Run();
  EXPECT_EQ(batched.now(), plain.now());
  EXPECT_EQ(batched.BytesServed(rb), plain.BytesServed(rp));
}

// Same-instant timers are drained as one batch per Step (one heap drain
// for a whole arrival wave), still in FIFO order; a same-time timer
// scheduled from inside a callback lands in the next batch.
TEST(FluidTest, SameInstantTimersDrainInOneStep) {
  FluidSimulator sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(1), [&](SimTime t) {
    order.push_back(1);
    sim.ScheduleAt(t, [&](SimTime) { order.push_back(3); });
  });
  sim.ScheduleAt(Seconds(1), [&](SimTime) { order.push_back(2); });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_TRUE(sim.Step());  // the nested same-instant timer fires here
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_FALSE(sim.Step());
  EXPECT_DOUBLE_EQ(sim.now(), Seconds(1));
}

// --- Golden pin ---------------------------------------------------------------
//
// Exact simulated outputs of three event-loop shapes, as hex floats: flow
// end times (in id order), per-resource BytesServed, and SmoothedUtilization
// samples read from a periodic timer.  Any change to the event loop or the
// solver that is meant to be a pure host-cost optimization must leave every
// bit of these unchanged; a modelling change re-records them and says so.

std::string Hex(const std::vector<double>& values) {
  std::string out;
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof buf, "%s%a", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

struct GoldenRun {
  FluidSimulator sim;
  std::vector<ResourceId> res;
  std::vector<FlowId> ids;
  std::vector<double> util;

  // Samples the smoothed utilization of `probe` every `period` from inside a
  // timer, `count` times.
  void SampleUtil(std::vector<ResourceId> probe, SimTime period, int count) {
    sim.ScheduleAfter(period, [this, probe, period, count](SimTime) {
      for (ResourceId r : probe) util.push_back(sim.SmoothedUtilization(r));
      if (count > 1) SampleUtil(probe, period, count - 1);
    });
  }

  std::string Ends() const {
    std::vector<double> ends;
    for (FlowId id : ids) ends.push_back(sim.record(id)->end);
    return Hex(ends);
  }
  std::string Bytes() const {
    std::vector<double> bytes;
    for (ResourceId r : res) bytes.push_back(sim.BytesServed(r));
    return Hex(bytes);
  }
};

// fluid_local's shape: a ring of servers, each streaming to its successor
// and to its own DRAM, in batched waves of equal-sized flows, so shares tie
// and completions land together.
TEST(FluidGoldenTest, SymmetricRingWithTiedShares) {
  GoldenRun g;
  constexpr int kServers = 6;
  std::vector<ResourceId> core, link, dram;
  for (int s = 0; s < kServers; ++s) {
    core.push_back(g.sim.AddResource("core", GBps(12)));
    link.push_back(g.sim.AddResource("link", GBps(20)));
    dram.push_back(g.sim.AddResource("dram", GBps(40)));
  }
  for (int s = 0; s < kServers; ++s) {
    g.res.insert(g.res.end(), {core[s], link[s], dram[s]});
  }
  const double wave_bytes[] = {2e6, 3e6, 2e6};
  for (int w = 0; w < 3; ++w) {
    g.sim.ScheduleAt(Microseconds(150) * w, [&, w](SimTime) {
      g.sim.BeginBatch();
      for (int s = 0; s < kServers; ++s) {
        const int next = (s + 1) % kServers;
        for (int i = 0; i < 3; ++i) {
          g.ids.push_back(g.sim.StartFlow(
              wave_bytes[w], {core[s], link[s], dram[next]}));
        }
        g.ids.push_back(g.sim.StartFlow(wave_bytes[w], {core[s], dram[s]}));
      }
      g.sim.EndBatch();
    });
  }
  g.SampleUtil({link[0], dram[1]}, Microseconds(40), 12);
  g.sim.Run();
  ASSERT_EQ(g.ids.size(), 72u);
  EXPECT_EQ(g.Ends(),
            "0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 "
            "0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 "
            "0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 "
            "0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 "
            "0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 "
            "0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 0x1.8cba8p+20 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 "
            "0x1.1cd4aaaaaaaabp+21 0x1.1cd4aaaaaaaabp+21 0x1.fa978p+20 "
            "0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 "
            "0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 "
            "0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 "
            "0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 "
            "0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20 "
            "0x1.fa978p+20 0x1.fa978p+20 0x1.fa978p+20");
  EXPECT_EQ(g.Bytes(),
            "0x1.ab3fp+24 0x1.406f4p+24 0x1.ab3fp+24 0x1.ab3fp+24 "
            "0x1.406f4p+24 0x1.ab3fp+24 0x1.ab3fp+24 0x1.406f4p+24 "
            "0x1.ab3fp+24 0x1.ab3fp+24 0x1.406f4p+24 0x1.ab3fp+24 "
            "0x1.ab3fp+24 0x1.406f4p+24 0x1.ab3fp+24 0x1.ab3fp+24 "
            "0x1.406f4p+24 0x1.ab3fp+24");
  EXPECT_EQ(Hex(g.util),
            "0x1.c45c3306bdd7cp-2 0x1.2d92ccaf293a8p-2 0x1.cca53a2af8afcp-2 "
            "0x1.3318d171fb1fdp-2 0x1.cccc134041888p-2 0x1.3332b7802bb05p-2 "
            "0x1.ccccc966cc149p-2 0x1.333330ef32b86p-2 0x1.ccccccbcdd872p-2 "
            "0x1.3333332893af6p-2 0x1.cccccccc8215fp-2 0x1.333333330163fp-2 "
            "0x1.cccccccccb6e8p-2 0x1.333333333249ap-2 0x1.ccccccccccc66p-2 "
            "0x1.33333333332efp-2 0x1.ccccccccccccbp-2 0x1.3333333333332p-2 "
            "0x1.ccccccccccccdp-2 0x1.3333333333333p-2 0x1.ccccccccccccdp-2 "
            "0x1.3333333333333p-2 0x1.ccccccccccccdp-2 0x1.3333333333333p-2");
}

// fluid_bridged's shape: a closed loop where each completion callback starts
// the next flow; a few remote flows bridge the servers into one component.
TEST(FluidGoldenTest, ClosedLoopBridgedChurn) {
  GoldenRun g;
  constexpr int kServers = 4;
  constexpr int kCores = 3;
  std::vector<ResourceId> port, dram;
  std::vector<std::vector<ResourceId>> core(kServers);
  for (int s = 0; s < kServers; ++s) {
    for (int c = 0; c < kCores; ++c) {
      core[s].push_back(g.sim.AddResource("core", GBps(12)));
      g.res.push_back(core[s].back());
    }
    port.push_back(g.sim.AddResource("port", GBps(34.5)));
    dram.push_back(g.sim.AddResource("dram", GBps(97)));
    g.res.insert(g.res.end(), {port[s], dram[s]});
  }
  struct Spec {
    double bytes;
    std::vector<ResourceId> path;
    double weight;
  };
  std::vector<Spec> specs;
  Rng rng(20231115);
  for (int i = 0; i < 48; ++i) {
    const int s = static_cast<int>(rng.NextBounded(kServers));
    const int c = static_cast<int>(rng.NextBounded(kCores));
    Spec spec{static_cast<double>(rng.NextInRange(1, 20)) * 1e6, {},
              static_cast<double>(rng.NextInRange(1, 3))};
    if (rng.NextBernoulli(0.2)) {
      const int d = (s + 1 + static_cast<int>(rng.NextBounded(kServers - 1))) %
                    kServers;
      spec.path = {core[s][c], port[s], port[d], dram[d]};
    } else {
      spec.path = {core[s][c], dram[s]};
    }
    specs.push_back(std::move(spec));
  }
  std::size_t issued = 0;
  std::function<void()> launch = [&] {
    const Spec& spec = specs[issued++];
    g.ids.push_back(g.sim.StartFlow(
        spec.bytes, spec.path,
        [&](FlowId, SimTime) {
          if (issued < specs.size()) launch();
        },
        spec.weight));
  };
  for (int i = 0; i < 12; ++i) launch();
  g.SampleUtil({port[0], dram[1], core[2][0]}, Microseconds(100), 10);
  g.sim.Run();
  ASSERT_EQ(g.ids.size(), specs.size());
  EXPECT_EQ(g.Ends(),
            "0x1.0f4471c71c71cp+19 0x1.1cd4aaaaaaaabp+21 0x1.4585555555555p+17 "
            "0x1.e848p+19 0x1.56799c71c71c8p+21 0x1.087c555555555p+20 "
            "0x1.3b592aaaaaaabp+21 0x1.53158e38e38e4p+20 0x1.e848p+20 "
            "0x1.19709c71c71c8p+21 0x1.4585555555555p+18 0x1.4585555555555p+19 "
            "0x1.3fd5abc2bc2bfp+21 0x1.dab7c71c71c72p+20 0x1.cd278e38e38e3p+20 "
            "0x1.6e36p+19 0x1.312dp+20 0x1.96e6aaaaaaaaap+20 "
            "0x1.d3efaaaaaaaabp+21 0x1.6409d55555555p+21 0x1.087c555555555p+21 "
            "0x1.a85d65acc059ep+22 0x1.1f60523f43b09p+23 0x1.52a8de87e007ap+22 "
            "0x1.6e36p+21 0x1.4fb18p+21 0x1.4526078249992p+22 "
            "0x1.5c8dc3ce73e96p+23 0x1.15338aaaaaaacp+22 0x1.2e552b36b36b4p+22 "
            "0x1.de1bd55555554p+21 0x1.de1bd55555554p+21 0x1.34054ad99eca9p+23 "
            "0x1.4b7ee86377682p+23 0x1.312dp+22 0x1.95a1255555552p+22 "
            "0x1.4fb18p+22 0x1.298be00000001p+22 0x1.a628eaaaaaaaap+22 "
            "0x1.6b5e2b36b36b4p+22 0x1.4585555555555p+22 0x1.5627b07cb32aap+22 "
            "0x1.a112d55555555p+22 0x1.0b81102e5ffd4p+23 0x1.5e94722cf443dp+22 "
            "0x1.6e36p+23 0x1.7d18f22cf443dp+22 0x1.cc01c08c08c09p+22");
  EXPECT_EQ(g.Bytes(),
            "0x1.4fb18p+24 0x1.ff2b6p+25 0x1.6e36p+25 0x1.4fb1800000001p+25 "
            "0x1.be51d00000002p+26 0x1.4fb18p+24 0x1.e848p+23 0x1.e848p+24 "
            "0x1.6694e00000001p+25 0x1.af0f8ffffffffp+26 0x1.8cba8p+23 "
            "0x1.c9c38p+25 0x1.e848p+24 0x1.6e36p+24 0x1.34fd8ffffffffp+26 "
            "0x1.12a88p+27 0x1.c2226p+25 0x1.6e36p+22 0x1.d164a00000002p+25 "
            "0x1.908b1p+27");
  EXPECT_EQ(Hex(g.util),
            "0x1.28cc51867a1dfp-2 0x1.fab2da5b49e1ep-3 0x1.fffa0ca192a6ep-1 "
            "0x1.28cfc498fb85ap-2 0x1.fab8bdf3c175dp-3 0x1.ffffffee4b79bp-1 "
            "0x1.28cfc4a33ef4p-2 0x1.fab8be05470dep-3 0x1.ffffffffffcb5p-1 "
            "0x1.0b2b0fae70fb8p-2 0x1.fb5dd44aff9e5p-4 0x1p+0 "
            "0x1.0b2164494b043p-2 0x1.fab8bff07774cp-4 0x1p+0 "
            "0x1.6320d2fe8dfa4p-2 0x1.f7bf0bd1aafe6p-3 0x1p+0 "
            "0x1.642c827435099p-2 0x1.3a70fd50da571p-2 0x1p+0 "
            "0x1.642c8590a8d47p-2 0x1.3cb3700a25978p-2 0x1p+0 "
            "0x1.642c8590b2162p-2 0x1.3cb376c338884p-2 0x1p+0 "
            "0x1.642c8590b2164p-2 0x1.3cb376c34c89p-2 0x1p+0");
}

// Timer bursts: each timer starts a few flows and rescales a resource in
// the same callback.
TEST(FluidGoldenTest, TimerBurstsOfStartsAndCapacityChanges) {
  GoldenRun g;
  for (int r = 0; r < 5; ++r) {
    g.res.push_back(g.sim.AddResource("r", GBps(10 + 7 * r)));
  }
  Rng rng(77);
  for (int burst = 0; burst < 8; ++burst) {
    const SimTime at = Microseconds(90) * burst;
    const ResourceId rescaled = g.res[burst % g.res.size()];
    const double cap = GBps(static_cast<double>(rng.NextInRange(5, 40)));
    std::vector<std::pair<double, std::vector<ResourceId>>> flows;
    for (int i = 0; i < 3; ++i) {
      std::vector<ResourceId> path;
      for (ResourceId r : g.res) {
        if (rng.NextBernoulli(0.4)) path.push_back(r);
      }
      if (path.empty()) path.push_back(g.res[i]);
      flows.emplace_back(static_cast<double>(rng.NextInRange(1, 8)) * 1e6,
                         std::move(path));
    }
    g.sim.ScheduleAt(at, [&g, rescaled, cap, flows](SimTime) {
      for (const auto& [bytes, path] : flows) {
        g.ids.push_back(g.sim.StartFlow(bytes, path));
      }
      ASSERT_TRUE(g.sim.SetCapacity(rescaled, cap).ok());
    });
  }
  g.SampleUtil({g.res[0], g.res[3]}, Microseconds(60), 14);
  g.sim.Run();
  ASSERT_EQ(g.ids.size(), 24u);
  EXPECT_EQ(g.Ends(),
            "0x1.a195d49249249p+21 0x1.b58p+17 0x1.0f4c11dec0d4dp+21 "
            "0x1.ad5488ef606a6p+21 0x1.b74d1e94de576p+19 0x1.53c751745d175p+20 "
            "0x1.0beee8ba2e8bap+18 0x1.4dc1a6c9b26cap+20 0x1.052396c0d4c77p+22 "
            "0x1.23dfc21834218p+20 0x1.dcc82928f7badp+19 0x1.e2c31b3884fcap+21 "
            "0x1.041c322e8ba2ep+22 0x1.ee0ff6a63bd81p+21 0x1.c54a76a63bd81p+21 "
            "0x1.179d8ba2e8ba3p+20 0x1.179d8ba2e8ba3p+20 0x1.4e6ed98ef606ap+21 "
            "0x1.05ebec77b0353p+22 0x1.0a76492492492p+21 0x1.da5510386b32p+19 "
            "0x1.b5d3555555556p+19 0x1.6b126db6db6dbp+20 0x1.3c91aaaaaaaabp+20");
  EXPECT_EQ(g.Bytes(),
            "0x1.0736dp+26 0x1.5752ap+25 0x1.7d784p+25 0x1.d905bfffffffep+24 "
            "0x1.ff2b5ffffffffp+25");
  EXPECT_EQ(Hex(g.util),
            "0x1.ce16fff014f95p-1 0x1.a15f18b7d0e12p-2 0x1.fd91c6eab85a9p-1 "
            "0x1.cc419ae4857b2p-2 0x1.fffe75296e3f4p-1 0x1.ce72384674181p-2 "
            "0x1.ffffff057386dp-1 0x1.e93ca185682e8p-1 0x1.ffffffff6103p-1 "
            "0x1.b75168d75847p-1 0x1.ffffffffff9b2p-1 0x1.b1541cfed923fp-1 "
            "0x1.ffffffffffffep-1 0x1.b81f9b7a5649ap-1 0x1p+0 "
            "0x1.cd31a476f0398p-1 0x1p+0 0x1.ce4b59f7f8f54p-1 "
            "0x1.0000000000001p+0 0x1.ffe075709e8c7p-1 0x1p+0 "
            "0x1.ffffebfc33e12p-1 0x1p+0 0x1.fffffff34ca3dp-1 0x1p+0 "
            "0x1.fffffffff7f0bp-1 0x1p+0 0x1.fffffffffffacp-1");
}

// --- One solve per event ------------------------------------------------------
//
// Step runs its callbacks with solving deferred and re-solves once after
// them; reads inside a callback settle pending rates first.

TEST(FluidCoalesceTest, TimerStartingManyFlowsSolvesOnce) {
  FluidSimulator sim;
  const ResourceId a = sim.AddResource("a", GBps(10));
  const ResourceId b = sim.AddResource("b", GBps(10));
  sim.ScheduleAt(Microseconds(5), [&](SimTime) {
    for (int i = 0; i < 8; ++i) {
      sim.StartFlow(1e6 * (i + 1), {i % 2 == 0 ? a : b});
    }
    ASSERT_TRUE(sim.SetCapacity(b, GBps(4)).ok());
  });
  ASSERT_TRUE(sim.Step());
  EXPECT_EQ(sim.solver_stats().recompute_calls, 1u);
  EXPECT_EQ(sim.active_flow_count(), 8u);
  EXPECT_DOUBLE_EQ(sim.Utilization(a), 1.0);
  EXPECT_DOUBLE_EQ(sim.Utilization(b), 1.0);
}

TEST(FluidCoalesceTest, ClosedLoopSolvesOncePerStep) {
  FluidSimulator sim;
  const ResourceId a = sim.AddResource("a", GBps(10));
  const ResourceId b = sim.AddResource("b", GBps(6));
  int remaining = 24;
  std::function<void(FlowId, SimTime)> next = [&](FlowId, SimTime) {
    if (--remaining > 0) {
      sim.StartFlow(1e6 * (remaining % 5 + 1), {a, remaining % 3 ? b : a},
                    next);
    }
  };
  for (int i = 0; i < 4; ++i) sim.StartFlow(1e6 * (i + 1), {a}, next);
  int steps = 0;
  while (true) {
    const std::uint64_t before = sim.solver_stats().recompute_calls;
    if (!sim.Step()) break;
    ++steps;
    EXPECT_EQ(sim.solver_stats().recompute_calls - before, 1u)
        << "step " << steps;
  }
  EXPECT_GE(steps, 10);  // tied completions share a Step
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

// A callback that starts a flow and reads rates sees exactly what starting
// the same flow outside Step (an immediate solve) gives.
TEST(FluidCoalesceTest, CallbackReadsMatchAnImmediateSolve) {
  const auto run = [](bool from_callback) {
    FluidSimulator sim;
    const ResourceId a = sim.AddResource("a", GBps(10));
    const ResourceId b = sim.AddResource("b", GBps(7));
    FlowId other = kInvalidFlow;
    std::vector<double> reads;
    const auto start_and_read = [&] {
      const FlowId f = sim.StartFlow(2e9, {a, b}, nullptr, 3.0);
      reads = {sim.FlowRate(f), sim.FlowRate(other), sim.Utilization(a),
               sim.Utilization(b), sim.SmoothedUtilization(a)};
    };
    sim.StartFlow(1e9, {a}, [&](FlowId, SimTime) {
      if (from_callback) start_and_read();
    });
    other = sim.StartFlow(3e9, {a, b}, nullptr, 2.0);
    EXPECT_TRUE(sim.Step());  // the first flow completes
    if (!from_callback) start_and_read();
    return reads;
  };
  const std::vector<double> deferred = run(true);
  const std::vector<double> immediate = run(false);
  ASSERT_EQ(deferred.size(), 5u);
  EXPECT_EQ(deferred, immediate);
  EXPECT_GT(deferred[0], 0.0);
}

TEST(FluidCoalesceTest, StepLoopFromCallback) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  FlowId inner = kInvalidFlow;
  SimTime inner_end = -1;
  sim.StartFlow(1e9, {r}, [&](FlowId, SimTime) {
    inner = sim.StartFlow(2e9, {r});
    StepUntilDone(sim, inner);
    inner_end = sim.now();
  });
  sim.Run();
  ASSERT_NE(inner, kInvalidFlow);
  EXPECT_TRUE(sim.record(inner)->done);
  EXPECT_DOUBLE_EQ(inner_end, Seconds(3));
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

// A batch opened in a completion callback sees the completion already
// solved, and its own flows read 0 until EndBatch.
TEST(FluidCoalesceTest, BatchInsideCallbackReadsZeroUntilEndBatch) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  FlowId survivor = kInvalidFlow;
  bool ran = false;
  sim.StartFlow(1e9, {r}, [&](FlowId, SimTime) {
    sim.BeginBatch();
    const FlowId x = sim.StartFlow(1e9, {r});
    const FlowId y = sim.StartFlow(1e9, {r});
    EXPECT_EQ(sim.FlowRate(x), 0.0);
    EXPECT_EQ(sim.FlowRate(y), 0.0);
    EXPECT_EQ(sim.FlowRate(survivor), GBps(10));
    EXPECT_EQ(sim.Utilization(r), 1.0);
    sim.EndBatch();
    EXPECT_DOUBLE_EQ(sim.FlowRate(x), GBps(10) / 3);
    EXPECT_DOUBLE_EQ(sim.FlowRate(survivor), GBps(10) / 3);
    ran = true;
  });
  survivor = sim.StartFlow(5e9, {r});
  ASSERT_TRUE(sim.Step());
  EXPECT_TRUE(ran);
  sim.Run();
  EXPECT_EQ(sim.active_flow_count(), 0u);
}

// --- SpanStream -------------------------------------------------------------

TEST(SpanStreamTest, ProcessesSpansSequentially) {
  FluidSimulator sim;
  const ResourceId a = sim.AddResource("a", GBps(1));
  const ResourceId b = sim.AddResource("b", GBps(2));
  SpanStream stream(&sim, {Span{1e9, {a}}, Span{1e9, {b}}});
  stream.Start();
  sim.Run();
  EXPECT_TRUE(stream.done());
  // 1 s on a, then 0.5 s on b.
  EXPECT_NEAR(stream.end_time() - stream.start_time(), Seconds(1.5), 1e3);
  EXPECT_DOUBLE_EQ(stream.total_bytes(), 2e9);
}

TEST(SpanStreamTest, EmptyStreamCompletesInstantly) {
  FluidSimulator sim;
  SpanStream stream(&sim, {});
  stream.Start();
  EXPECT_TRUE(stream.done());
}

TEST(SpanStreamTest, RunStreamsReportsAggregateBandwidth) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  std::vector<std::unique_ptr<SpanStream>> streams;
  for (int i = 0; i < 2; ++i) {
    streams.push_back(std::make_unique<SpanStream>(
        &sim, std::vector<Span>{Span{5e9, {r}}}));
  }
  const ParallelRunResult res = RunStreams(&sim, std::move(streams));
  EXPECT_NEAR(res.gbps, 10.0, 0.01);  // 10 GB in 1 s
  EXPECT_DOUBLE_EQ(res.bytes, 10e9);
}

TEST(SpanStreamTest, UnequalStreamsMakespanIsSlowest) {
  FluidSimulator sim;
  const ResourceId fast = sim.AddResource("fast", GBps(10));
  const ResourceId slow = sim.AddResource("slow", GBps(1));
  std::vector<std::unique_ptr<SpanStream>> streams;
  streams.push_back(std::make_unique<SpanStream>(
      &sim, std::vector<Span>{Span{1e9, {fast}}}));
  streams.push_back(std::make_unique<SpanStream>(
      &sim, std::vector<Span>{Span{1e9, {slow}}}));
  const ParallelRunResult res = RunStreams(&sim, std::move(streams));
  EXPECT_NEAR(res.end - res.start, Seconds(1), 1e3);  // slow stream
  EXPECT_NEAR(res.gbps, 2.0, 0.01);
}

TEST(SpanStreamTest, CompletionCallbackIsDeferredForEmptyChain) {
  FluidSimulator sim;
  SpanStream stream(&sim, {});
  int fired = 0;
  stream.set_on_complete([&](SpanStream& s) {
    EXPECT_TRUE(s.done());
    ++fired;
  });
  stream.Start();
  // The empty chain is done synchronously, but the callback must arrive
  // from the timer wheel, never from inside Start().
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(fired, 0);
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SpanStreamTest, ZeroByteSpanChainCompletesWithoutRecursion) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  // A long chain of zero-byte spans: every span completes instantly, so a
  // synchronous StartNext loop would recurse chain-deep.  Deferred flow
  // callbacks make it iterative; this overflows the stack if that breaks.
  std::vector<Span> spans(20000, Span{0.0, {r}});
  SpanStream stream(&sim, std::move(spans));
  int fired = 0;
  stream.set_on_complete([&](SpanStream&) { ++fired; });
  stream.Start();
  sim.Run();
  EXPECT_TRUE(stream.done());
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);  // zero bytes cost zero sim time
  EXPECT_DOUBLE_EQ(stream.total_bytes(), 0.0);
}

TEST(SpanStreamTest, SingleAndZeroByteMixedChainFiresCallbackOnce) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  SpanStream stream(&sim, {Span{0.0, {r}}, Span{1e9, {r}}, Span{0.0, {r}}});
  int fired = 0;
  stream.set_on_complete([&](SpanStream& s) {
    ++fired;
    EXPECT_NEAR(s.end_time() - s.start_time(), Seconds(1), 1e3);
  });
  stream.Start();
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SpanStreamTest, CallbackSetAfterCompletionStillFiresDeferred) {
  FluidSimulator sim;
  SpanStream stream(&sim, {});
  stream.Start();
  EXPECT_TRUE(stream.done());
  int fired = 0;
  stream.set_on_complete([&](SpanStream&) { ++fired; });
  EXPECT_EQ(fired, 0);  // still deferred, even though already done
  sim.Run();
  EXPECT_EQ(fired, 1);
}

TEST(SpanStreamTest, CompletionCallbackMayDestroyTheStream) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(1));
  auto stream = std::make_unique<SpanStream>(
      &sim, std::vector<Span>{Span{1e6, {r}}});
  bool fired = false;
  stream->set_on_complete([&](SpanStream&) {
    stream.reset();  // the callback owns the stream's lifetime
    fired = true;
  });
  stream->Start();
  sim.Run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(stream, nullptr);
}

TEST(SpanStreamTest, ReleasesRecordsAndReportsSolverWork) {
  FluidSimulator sim;
  const ResourceId r = sim.AddResource("link", GBps(10));
  std::vector<std::unique_ptr<SpanStream>> streams;
  for (int i = 0; i < 4; ++i) {
    streams.push_back(std::make_unique<SpanStream>(
        &sim, std::vector<Span>{Span{1e9, {r}}, Span{1e9, {r}}}));
  }
  const ParallelRunResult res = RunStreams(&sim, std::move(streams));
  EXPECT_EQ(sim.record_count(), 0u);  // every span record retired
  EXPECT_GT(res.solver.recompute_calls, 0u);
  EXPECT_GT(res.solver.flows_touched, 0u);
}

}  // namespace
}  // namespace lmp::sim
