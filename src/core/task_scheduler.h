// TaskScheduler: the execution half of computation shipping (§4.4 — "a
// more sophisticated runtime").
//
// ComputeShipper decides WHERE sub-tasks run; this scheduler models their
// EXECUTION on the fluid simulator: each server exposes one slot per core,
// a task occupies a slot, streams its input from the server's local DRAM
// (a simulator flow on that core's path), then spends its compute time (a
// timer).  Queued tasks start as slots free, so makespans reflect real
// contention between shipped work and whatever else the cores do.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "cluster/server.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::core {

struct ComputeTask {
  cluster::ServerId target = 0;  // server that executes the task
  double input_bytes = 0;        // streamed from the target's local DRAM
  SimTime compute_ns = 0;        // CPU time after the data arrives
};

struct SchedulerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  SimTime makespan = 0;  // first submit -> last completion
};

class TaskScheduler {
 public:
  using DoneCallback = std::function<void(const ComputeTask&, SimTime)>;

  // `sim` and `topology` must outlive the scheduler.  Slots default to the
  // machine's core count per server.
  TaskScheduler(sim::FluidSimulator* sim, fabric::Topology* topology,
                int slots_per_server = 0);

  // Enqueues a task; it starts as soon as a slot frees on its target.
  Status Submit(ComputeTask task, DoneCallback on_done = nullptr);

  // Runs the simulator until every submitted task has completed.
  void Drain();

  const SchedulerStats& stats() const { return stats_; }
  int BusySlots(cluster::ServerId server) const;
  std::size_t QueuedTasks(cluster::ServerId server) const;

  // Optional trace sink: each dispatched task becomes a span on a
  // (server, slot) track, from dispatch through input streaming and
  // compute to completion.  Null (the default) disables emission.
  void set_trace(trace::TraceCollector* collector) { trace_ = collector; }
  trace::TraceCollector* trace() const { return trace_; }

 private:
  struct Pending {
    ComputeTask task;
    DoneCallback on_done;
  };
  struct ServerState {
    std::deque<Pending> queue;
    std::vector<bool> slot_busy;
  };

  void TryDispatch(cluster::ServerId server);
  void RunOn(cluster::ServerId server, int slot, Pending pending);
  void Finish(cluster::ServerId server, int slot, Pending& pending);

  // Trace track id for a (server, slot) pair; offset keeps task tracks
  // clear of flow-id tracks on the same timeline.
  std::uint64_t TaskTrack(cluster::ServerId server, int slot) const;

  sim::FluidSimulator* sim_;
  fabric::Topology* topology_;
  std::vector<ServerState> servers_;
  SchedulerStats stats_;
  SimTime first_submit_ = -1;
  trace::TraceCollector* trace_ = nullptr;
};

}  // namespace lmp::core
