// Fluid-flow network simulator.
//
// Memory traffic is modelled as fluid flows: a Flow moves a byte count
// through an ordered set of Resources (a core's load port, a DRAM device, a
// CXL/UPI link).  At any instant, active flows share each resource's
// capacity max-min fairly (progressive filling); rates are piecewise
// constant between events, and events are flow arrivals/completions and
// explicit timers.  This reproduces the aggregate-bandwidth behaviour the
// paper measures (14 cores saturating local DRAM at 97 GB/s, or a remote
// link at 34.5/21 GB/s) while staying deterministic and fast.
//
// Rate recomputation is incremental: each resource keeps an index of the
// flows crossing it, and an arrival/completion/capacity change re-solves
// only the connected component of flows that share a resource (directly or
// transitively) with the change.  Components never interact — a freeze in
// one component touches no accumulator of another — so the component solve
// is bit-exact with a full progressive-filling pass (enforceable with
// set_solver_crosscheck).  Scratch buffers persist across solves, so the
// steady path allocates nothing.  Within a component, progressive filling
// picks each bottleneck from a min-heap of per-resource fair shares and
// freezes only the flows crossing it, so a fill round costs the flows and
// resources it touches.
//
// Storage: active flows live in a slot table (a vector plus a free list);
// the per-resource index holds slot numbers, and order_ lists the live slots
// in ascending flow id.  Every pass over active flows walks order_, so the
// floating-point sums that make results bit-exact always see flows in id
// order.
//
// One solve per event: Step runs its timer and completion callbacks with
// solving deferred, collects what they start or rescale, and re-solves once
// after them.  Since a component solve depends only on the final set of
// flows and capacities, this is bit-exact with solving after every call.
// Rates settle when read: FlowRate, Utilization and SmoothedUtilization
// first solve anything pending, so a callback that reads them sees what an
// immediate solve would give.
//
// Timer events are cheap: timers are a heap of (when, seq, slot) entries
// over a slab of callbacks, and the utilization EWMA that latency models
// read is folded once per time advance, with one exp() shared by every
// resource (see Resource::smoothed_util for the invariant).  A cancelled
// timer frees its slot at once and leaves a stale heap entry that Step
// discards unseen, so it never moves the clock or costs an event.
//
// Sharded parallel solving: resources can carry a shard hint (one shard per
// rack; see fabric::Topology::AssignRackShards).  A shard crossed by no
// active cross-shard flow is *closed*: its connected components cannot
// extend past it, so an event that touches many closed shards (a completion
// sweep over a whole cluster, a batched wave of arrivals) partitions into
// independent per-shard solves that run concurrently on a fixed-size worker
// pool (set_threads).  Every task writes only its own shard's flows and
// resources and performs the same arithmetic in the same order no matter
// which thread runs it, so results — rates, byte counters, traces, metrics
// — are byte-identical for any thread count, including 1.  Unsharded
// resources and open shards fall back to a single sequential "spill" task,
// preserving the pre-shard behaviour bit-exactly.
//
// The simulator's API surface is single-threaded and owned by one
// experiment; worker threads exist only inside a solve and never touch
// state two tasks share.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/units.h"

namespace lmp {
class Histogram;
class MetricsRegistry;
}

namespace lmp::trace {
class TraceCollector;
}

namespace lmp::sim {

class SolverPool;

using ResourceId = std::uint32_t;
using FlowId = std::uint64_t;
using ShardId = std::uint32_t;

inline constexpr FlowId kInvalidFlow = 0;

// Resources without an assigned shard solve on the sequential spill path.
inline constexpr ShardId kNoShard = std::numeric_limits<ShardId>::max();

struct FlowRecord {
  SimTime start = 0;
  SimTime end = 0;       // valid once done
  double bytes = 0;
  bool done = false;
};

// Solver introspection: how much work rate recomputation is doing.
struct SolverStats {
  std::uint64_t recompute_calls = 0;  // solver invocations (any scope)
  std::uint64_t flows_touched = 0;    // flows re-rated, summed over calls
  std::uint64_t full_solves = 0;      // calls that re-rated every active flow
  std::uint64_t shard_tasks = 0;      // solve tasks dispatched by the
                                      // partitioned path (full solves add 0)
  std::uint64_t parallel_solves = 0;  // solves that partitioned into > 1
                                      // task.  Counted even at threads == 1
                                      // so stats are thread-count-invariant.
  std::uint64_t solve_ns = 0;         // wall ns in the solver (needs
                                      // set_solver_timing(true); else 0)
};

// Names one scheduled timer, for CancelTimer.  A default handle names none.
struct TimerHandle {
  std::uint32_t slot = 0;
  std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
};

// What happens to a FlowRecord once its flow completes.  Long-running
// experiments that never query history should drop completed records so
// memory stays bounded by the number of *active* flows.
enum class RecordRetention {
  kKeepAll,        // records live until ReleaseRecord() (default)
  kDropCompleted,  // records are erased right after the completion callback
};

class FluidSimulator {
 public:
  using FlowCallback = std::function<void(FlowId, SimTime)>;
  using TimerCallback = std::function<void(SimTime)>;

  FluidSimulator();
  ~FluidSimulator();

  // Resources -------------------------------------------------------------

  // capacity is in bytes per simulated second; must be > 0.
  ResourceId AddResource(std::string name, BytesPerSec capacity);

  // Dynamically rescale a resource (used to model uncore-frequency changes
  // and degraded links).  Takes effect at the current simulated time; the
  // utilization EWMA already covers the elapsed window at the old capacity,
  // so that window is priced as it actually ran.
  Status SetCapacity(ResourceId id, BytesPerSec capacity);

  BytesPerSec capacity(ResourceId id) const;

  // Name given to AddResource (for trace/diagnostic labels).
  const std::string& ResourceName(ResourceId id) const;

  // Instantaneous utilization in [0, 1]: sum of allocated rates / capacity.
  // Settles pending rates first (see the header comment).
  double Utilization(ResourceId id);

  // Exponentially-weighted average utilization, folded for every resource
  // at once each time simulated time advances (one exp() per event, not
  // per resource).  Latency models use this rather than the instantaneous
  // value so short gaps between back-to-back flows do not read as an idle
  // link.  Settles pending rates first.
  double SmoothedUtilization(ResourceId id);

  // Sharding ---------------------------------------------------------------

  // Tags a resource with a shard (e.g. its rack).  A hint, not a topology
  // constraint: flows may still cross shards, and the solver detects that
  // and routes the affected shards to the sequential spill path.  Must be
  // called while no flows are active (deployment setup time).
  void SetResourceShard(ResourceId id, ShardId shard);
  ShardId resource_shard(ResourceId id) const;

  // Fixed-size worker pool for solving independent shard components
  // concurrently.  n == 1 (default) solves inline; any n produces
  // byte-identical results.  Call at setup time, not mid-solve.
  void set_threads(int n);
  int threads() const { return threads_; }

  // Flows ------------------------------------------------------------------

  // Starts a flow of `bytes` through `path` at the current time.  An empty
  // path or zero bytes completes immediately (the record is final when
  // StartFlow returns) but its callback is deferred through a zero-delay
  // timer, so callbacks never re-enter the simulator from inside StartFlow.
  // `weight` sets the flow's share under contention (weighted max-min:
  // a weight-2 flow gets twice a weight-1 flow's allocation at a shared
  // bottleneck) — the mechanism behind priority-aware experiments.
  // Outside Step the flow is rated before StartFlow returns; from a Step
  // callback (or inside a batch) its solve is deferred, and FlowRate and the
  // utilization reads settle it on demand.
  FlowId StartFlow(double bytes, const std::vector<ResourceId>& path,
                   FlowCallback on_done = nullptr, double weight = 1.0);

  // Batched arrivals: between BeginBatch and EndBatch, StartFlow and
  // SetCapacity defer rate recomputation; EndBatch runs one (sharded,
  // possibly parallel) solve over everything the batch touched.  Since no
  // simulated time passes inside a batch, the post-EndBatch state is
  // identical to per-call solving — the batch only amortizes solver work
  // (one component solve per shard instead of one per arrival).  Rates of
  // flows started inside the batch read 0 until EndBatch.  Batches cannot
  // nest and must be closed before Step/Run.  A batch opened in a Step
  // callback first settles what earlier callbacks left pending, and its
  // own changes join that Step's deferred solve.
  void BeginBatch();
  void EndBatch();
  bool in_batch() const { return in_batch_; }

  // Timers -----------------------------------------------------------------

  // The handle names the timer for CancelTimer; callers may ignore it.
  TimerHandle ScheduleAt(SimTime when, TimerCallback cb);
  TimerHandle ScheduleAfter(SimTime delay, TimerCallback cb);

  // Destroys a pending timer's callback at once; the timer never fires,
  // never moves now() and never costs a Step.  A no-op once the timer has
  // fired (or is firing) or its slot has been reused, so a stale handle is
  // always safe to cancel.  A timer due in the Step now running that has
  // not yet run is still pending and is cancelled.
  void CancelTimer(TimerHandle handle);

  // Execution ---------------------------------------------------------------

  SimTime now() const { return now_; }

  // Advances until the next event and processes it.  Returns false when
  // nothing remains.  A timer scheduled exactly at a flow's completion
  // instant fires first; the completion sweeps next step.  All timers due
  // at the same instant dispatch in one Step (FIFO within the batch);
  // timers a callback schedules at that same instant run on the next Step.
  // The callbacks run with solving deferred; Step re-solves once after
  // them, so an event costs one solve however many flows its callbacks
  // start.  Step is re-entrant: a callback may call Step or
  // RunUntilFlowDone, which first settle what it left pending.
  bool Step();

  // Runs until no active flows or pending timers remain.
  void Run();

  // Runs until the given flow completes (and possibly others with it).
  Status RunUntilFlowDone(FlowId id);

  // Introspection -----------------------------------------------------------

  std::size_t active_flow_count() const { return order_.size(); }
  const FlowRecord* record(FlowId id) const;
  // Current allocated rate, 0 if inactive.  Settles pending rates first.
  double FlowRate(FlowId id);

  // Total bytes that have fully traversed each resource so far.
  double BytesServed(ResourceId id) const;

  // Records -----------------------------------------------------------------

  // Drops the record of a completed flow (bounds memory in long runs where
  // the caller tracks its own history).  Fails on active or unknown flows.
  Status ReleaseRecord(FlowId id);

  void set_record_retention(RecordRetention policy) { retention_ = policy; }
  std::size_t record_count() const { return records_.size(); }

  // Solver ------------------------------------------------------------------

  // Incremental (component-scoped) rate recomputation is the default; turn
  // it off to force a full progressive-filling pass per event (baseline for
  // bench_solver; results are bit-identical either way).
  void set_incremental(bool on) { incremental_ = on; }
  bool incremental() const { return incremental_; }

  // Debug cross-check: after every incremental solve, run a full reference
  // solve and LMP_CHECK the rate vectors match bit-exactly.  Expensive —
  // tests only.
  void set_solver_crosscheck(bool on) { crosscheck_ = on; }

  // Accumulate wall-clock spent inside the solver into solver_stats().
  // Off by default (two clock reads per event); bench_solver turns it on.
  void set_solver_timing(bool on) { solver_timing_ = on; }

  const SolverStats& solver_stats() const { return stats_; }

  // Adds the stats accumulated since the previous export to `registry` as
  // counters fluid.solver.{recompute_calls,flows_touched,full_solves,
  // shard_tasks,parallel_solves}.  solve_ns is wall clock, so it exports
  // as wall.fluid.solver.solve_ns — excluded from the deterministic
  // metrics JSON (see MetricsRegistry::kWallPrefix).
  void ExportSolverMetrics(MetricsRegistry& registry);

  // Optional distribution sink: completed flows record their sim-time
  // duration into the registry's "fluid.flow_duration_ns" histogram.
  // Null (the default) records nothing; rates and events are identical
  // either way.
  void set_metrics(MetricsRegistry* registry);

  // Tracing -----------------------------------------------------------------

  // Optional event sink: flow begin/end spans (one track per flow id) and
  // per-solve rate-change instants.  Null (the default) disables emission
  // entirely; simulated results are identical either way.
  void set_trace(trace::TraceCollector* collector) { trace_ = collector; }
  trace::TraceCollector* trace() const { return trace_; }

 private:
  // Index of a flow's slot in flows_.  Slots are recycled through
  // free_slots_, so a slot outlives its flow; FlowId is the stable name.
  using Slot = std::uint32_t;

  struct Resource {
    std::string name;
    BytesPerSec capacity = 0;
    double rate_sum = 0;       // sum of currently allocated flow rates
    double bytes_served = 0;
    // EWMA of rate_sum / capacity with time constant kUtilTau.  Invariant:
    // every resource's EWMA is folded up to now_.  Only the time sweeps
    // (AdvanceTo, CompleteAt) move now_, and they fold every resource
    // first, at the utilization the elapsed window ran with; rate_sum and
    // capacity change only between sweeps, where no time passes.  So all
    // resources share one fold per sweep, and a read needs no fold at all.
    double smoothed_util = 0;
  };

  struct Flow {
    FlowId id = kInvalidFlow;
    double remaining = 0;
    std::vector<ResourceId> path;
    double rate = 0;
    double weight = 1.0;
    FlowCallback on_done;
    std::uint64_t visit_epoch = 0;  // component-BFS visited stamp
  };

  // Per-resource index entry: flows are stored in ascending-id order (ids
  // are issued monotonically) with one entry per path occurrence.
  struct FlowEntry {
    FlowId id;
    Slot slot;
  };

  struct Work {
    Slot slot;
    double rate = 0;  // rate assigned by ProgressiveFill
    bool frozen = false;
  };

  // One solver task: the seed resources routed to it, plus the connected
  // component(s) it grew from them.  Tasks touch disjoint flows/resources,
  // so they can run on different pool threads without synchronization; the
  // vectors persist across solves as per-task scratch.
  struct ShardTask {
    std::vector<ResourceId> seeds;
    std::vector<ResourceId> comp_res;
    std::vector<Work> work;
    // ProgressiveFill scratch: the bottleneck min-heap of (share, resource)
    // and the resources one fill round changed.
    std::vector<std::pair<double, ResourceId>> heap;
    std::vector<ResourceId> touched;
  };

  // Fill state shared by the tasks of one solve.  Tasks touch disjoint
  // resources and flows, so their writes never overlap (hence bytes, not
  // vector<bool>, for the touched marks).
  struct FillState {
    std::vector<double> headroom;       // by ResourceId
    std::vector<double> unfrozen;       // by ResourceId: unfrozen weight
    std::vector<std::uint8_t> touched;  // by ResourceId: in task.touched
    std::vector<std::uint32_t> work_idx;  // by Slot: index in task.work
  };

  // Timer heap entry.  The callback lives in timer_slots_[slot], so sifting
  // the heap moves 24 trivially copyable bytes, never a std::function.  The
  // entry is stale (its timer was cancelled) when the slot no longer holds
  // `seq`.
  struct Timer {
    SimTime when;
    std::uint64_t seq;  // FIFO tiebreak
    std::uint32_t slot;
    bool operator>(const Timer& o) const {
      return when == o.when ? seq > o.seq : when > o.when;
    }
  };

  // A callback slab entry: `seq` names the pending timer the slot holds,
  // or is TimerHandle's default when the slot is free.
  struct TimerSlot {
    TimerCallback cb;
    std::uint64_t seq = TimerHandle().seq;
  };

  static constexpr SimTime kUtilTau = Microseconds(10);

  // After this many consecutive whole-graph components, skip the component
  // BFS and solve fully for kFullSolveCooldown events before re-probing.
  static constexpr std::uint32_t kFullStreakThreshold = 4;
  static constexpr std::uint32_t kFullSolveCooldown = 32;

  // Rate solver.  SolvePending() hands the seeds collected in batch_seed_
  // to SolveSeeded(), which re-rates the connected component(s) of those
  // resources (or everything when incremental mode is off):
  // SolveSeededImpl() partitions the seeds into per-closed-shard tasks plus
  // a spill task and runs SolveTask on each (on the pool when >1 task);
  // RecomputeAll() is the classic full pass.  ProgressiveFill() is the
  // weighted-max-min core every path shares — including the
  // CheckAgainstFullSolve oracle; the property tests hold it to an
  // independent naive reference.
  void SolvePending();
  void SolveSeeded();
  void SolveSeededImpl();
  void RecomputeAll();
  void SolveTask(ShardTask& task);
  void ProgressiveFill(ShardTask& task, FillState& fill) const;
  void ApplyRates(const ShardTask& task);
  void CheckAgainstFullSolve() const;

  void IndexFlow(Slot slot);
  void UnindexFlow(FlowId id, const std::vector<ResourceId>& path);
  // Maintains shard_cross_flows_ when a flow is indexed (+1) / removed (-1).
  void UpdateShardCrossings(const std::vector<ResourceId>& path, int delta);

  void AdvanceTo(SimTime t);
  // Step's completion event: advances to `t`, retires every flow the event
  // finishes and runs their callbacks.
  void CompleteAt(SimTime t, SimTime min_dt);
  // The time sweep's EWMA fold: advances every resource's smoothed_util by
  // dt > 0 at its current utilization.  AdvanceTo and CompleteAt call it
  // before now_ moves.
  void FoldUtilization(SimTime dt);
  void FinishRecord(FlowId id);
  // Timer slab upkeep.  FreeTimerSlot returns a slot to the free list;
  // PopStaleTimers discards cancelled entries at the heap's front;
  // PurgeStaleTimers rebuilds the heap without them once they outnumber
  // the live ones, so cancelled far-future timers cannot pile up.
  void FreeTimerSlot(std::uint32_t slot);
  bool IsStale(const Timer& timer) const {
    return timer_slots_[timer.slot].seq != timer.seq;
  }
  void PopStaleTimers();
  void PurgeStaleTimers();

  std::vector<Resource> resources_;
  // Active flows: a slot table with a free list, plus order_, the live
  // slots in ascending id.  Every pass over active flows walks order_, so
  // the bit-exact sums see flows in id order.
  std::vector<Flow> flows_;
  std::vector<Slot> free_slots_;
  std::vector<Slot> order_;
  std::map<FlowId, FlowRecord> records_;
  // Timers: a min-heap on (when, seq) over a callback slab with a free
  // list.  Step moves each due callback out of its slot, frees the slot and
  // runs it.  stale_timers_ counts cancelled entries not yet discarded.
  std::vector<Timer> timers_;
  std::vector<TimerSlot> timer_slots_;
  std::vector<std::uint32_t> free_timer_slots_;
  std::size_t stale_timers_ = 0;
  std::uint64_t next_flow_id_ = 1;
  std::uint64_t next_timer_seq_ = 0;
  SimTime now_ = 0;

  // Incremental-solver state: per-resource crossing-flow index plus
  // persistent scratch reused by every solve (no steady-state allocation).
  std::vector<std::vector<FlowEntry>> flows_at_;
  FillState fill_;
  std::vector<std::uint64_t> res_epoch_;
  std::vector<ResourceId> seed_res_;
  std::vector<ShardTask> tasks_;
  std::uint64_t solve_epoch_ = 0;
  std::uint32_t full_solve_streak_ = 0;
  std::uint32_t full_solve_cooldown_ = 0;

  // Shard hints and bookkeeping.  shard_cross_flows_[s] counts active flows
  // that touch shard s and at least one resource outside it; zero means the
  // shard is closed and its components can solve in parallel.
  std::vector<ShardId> resource_shard_;
  std::vector<std::uint32_t> shard_cross_flows_;
  std::vector<std::size_t> shard_task_;        // shard -> task idx this solve
  std::vector<std::uint64_t> shard_task_epoch_;
  std::vector<ShardId> path_shards_;           // UpdateShardCrossings scratch

  std::unique_ptr<SolverPool> pool_;
  int threads_ = 1;

  // Event-loop scratch, reused across Steps to amortize heap churn at high
  // flow counts.  timer_batch_ and done_scratch_ live across callbacks, so
  // they are moved out/in (a re-entrant Step degrades gracefully).
  std::vector<SimTime> durations_;  // by position in order_
  std::vector<Slot> tied_scratch_;
  std::vector<Timer> timer_batch_;
  std::vector<std::pair<FlowId, FlowCallback>> done_scratch_;

  // Deferred solving.  batch_seed_ collects the seeds of every StartFlow
  // and SetCapacity whose solve is deferred: inside an open batch, and
  // while Step runs its callbacks (deferring_).
  bool in_batch_ = false;
  bool deferring_ = false;
  std::vector<ResourceId> batch_seed_;

  bool incremental_ = true;
  bool crosscheck_ = false;
  bool solver_timing_ = false;
  RecordRetention retention_ = RecordRetention::kKeepAll;
  Histogram* flow_duration_hist_ = nullptr;  // owned by the metrics registry
  trace::TraceCollector* trace_ = nullptr;
  SolverStats stats_;
  SolverStats exported_;  // high-water mark of the last ExportSolverMetrics
};

}  // namespace lmp::sim
