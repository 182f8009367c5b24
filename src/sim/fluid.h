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
// flows crossing it, and an arrival/completion/capacity change re-rates only
// the flows it can move.  The component walk starts at the event's resources
// and crosses (expands to every flow on) only three kinds of resource:
// those saturated as of the last solve (rate_sum >= capacity * (1 - 1e-9)),
// SetCapacity targets, and every hop of a new flow none of whose hops is
// saturated.  The unsaturated resources the re-rated flows also cross are
// *cut*: they are never a bottleneck candidate, and after the fill their
// rate_sum is summed again over every crossing flow.  This is bit-exact
// with a full progressive-filling pass (enforceable with
// set_solver_crosscheck):
//   - a resource that ends with slack never has the smallest share while it
//     still has unfrozen flows (shares only rise, so it would end full), so
//     no fill ever picks it and dropping it as a candidate changes nothing;
//   - every flow crossing a saturated resource is re-rated with it, so each
//     bottleneck sees the same subtractions in the same order, and the
//     flows left out keep bottlenecks the event never reached.
// If a cut resource ends at or above the slack limit, the argument fails
// and the task re-runs the classic walk, which crosses every resource of
// the connected component, and solves that instead (SolverStats::
// cut_fallbacks).  Scratch buffers persist across solves, so the steady
// path allocates nothing.  Within a component, progressive filling picks
// each bottleneck from a min-heap of per-resource fair shares and freezes
// only the flows crossing it, so a fill round costs the flows and resources
// it touches.
//
// Storage: active flows live in a slot table (a vector plus a free list),
// each holding its hops inline (Path); the per-resource index holds slot
// numbers in ascending flow id, so the floating-point sums that make rates
// bit-exact (unfrozen weight, rate_sum) always see flows in id order.  A
// warm simulator starts, solves and retires flows without allocating.  Only the full solve and the crosscheck
// walk the active flows, as live slots in any order (the fill needs no
// sorted work list); FlowRate finds a flow's slot through its record.
//
// Lazy progress: every flow the fill freezes at resource r runs at
// share_r x weight, so the flows whose bottleneck is r form a *group* that
// shares one virtual clock, V_r(t) = V_r(t0) + share_r * (t - t0) (bytes per
// unit weight).  A flow joins its group keyed by v_finish = V_r(join) +
// remaining / weight and completes when V_r reaches it; one indexed heap
// over the groups, keyed by when each group's first member can be due,
// names the next completion.  A solve re-anchors only the groups whose
// share it changed and moves only the flows whose bottleneck changed (the
// fill reports both), so an event costs the groups it re-rates, never a
// pass over every flow.
// A group whose share a solve leaves bit-equal keeps its anchor, and a
// resource's BytesServed integrates its rate_sum, settled only when a solve
// changes that sum, so incremental and full solves give the same bits.
// Each completing flow credits its hops the residue its clock leaves (what
// the completion rules below let a flow leave undone, about nothing for
// the event-defining flow), so every flow's bytes reach each hop's counter
// in full.
//
// One solve per event: Step runs its timer and completion callbacks with
// solving deferred, collects what they start or rescale, and re-solves once
// after them.  Since a component solve depends only on the final set of
// flows and capacities, this is bit-exact with solving after every call.
// A completion event retires every flow whose finish lies within
// min_dt * 1e-9 + kTimeEpsilon of the earliest one's (min_dt being the time
// to that earliest finish), the event-defining flows always among them, so
// each completion event retires at least one flow however large now() is;
// it also retires every flow it leaves within kByteEpsilon bytes of done.
// Completion callbacks run in ascending flow id.  Rates settle when read:
// FlowRate, Utilization and SmoothedUtilization first solve anything
// pending, so a callback that reads them sees what an immediate solve would
// give.
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
// pool (set_threads).  Every task writes only its own shard's flows,
// resources and groups and performs the same arithmetic in the same order
// no matter which thread runs it (the shared group heap is updated after
// the merge, task by task), so results — rates, byte counters, traces,
// metrics — are byte-identical for any thread count, including 1.  Unsharded
// resources and open shards fall back to a single sequential "spill" task,
// preserving the pre-shard behaviour bit-exactly.
//
// The simulator's API surface is single-threaded and owned by one
// experiment; worker threads exist only inside a solve and never touch
// state two tasks share.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <memory_resource>
#include <ranges>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.h"
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

// A flow's resource hops, held inline so building, copying or storing one
// allocates nothing.  The longest route fabric::Topology builds is a core's
// cross-rack access: core, port, both rack uplinks, port, DRAM.  A braced
// list or any contiguous range of ResourceId converts to a Path; more than
// kMaxHops hops fail an LMP_CHECK.
class Path {
 public:
  static constexpr std::size_t kMaxHops = 6;

  Path() = default;
  Path(std::initializer_list<ResourceId> hops) {
    for (ResourceId r : hops) push_back(r);
  }
  template <std::ranges::contiguous_range R>
    requires(!std::same_as<std::remove_cvref_t<R>, Path> &&
             std::same_as<std::ranges::range_value_t<R>, ResourceId>)
  Path(const R& hops) {  // NOLINT
    for (ResourceId r : hops) push_back(r);
  }

  void push_back(ResourceId r) {
    LMP_CHECK(size_ < kMaxHops) << "path longer than " << kMaxHops << " hops";
    hops_[size_++] = r;
  }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const ResourceId* begin() const { return hops_.data(); }
  const ResourceId* end() const { return hops_.data() + size_; }
  ResourceId operator[](std::size_t i) const { return hops_[i]; }

  friend bool operator==(const Path& a, const Path& b) {
    return std::ranges::equal(a, b);
  }

 private:
  std::array<ResourceId, kMaxHops> hops_{};
  std::uint32_t size_ = 0;
};

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
  std::uint64_t cut_fallbacks = 0;    // tasks whose cut walk left a cut
                                      // resource at the slack limit and
                                      // re-solved the whole component
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
  FlowId StartFlow(double bytes, const Path& path,
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
  // start.  Step is re-entrant: a callback may call Step, which first
  // settles what it left pending.
  bool Step();

  // Runs until no active flows or pending timers remain.
  void Run();

  // Introspection -----------------------------------------------------------

  std::size_t active_flow_count() const { return active_flows_; }
  const FlowRecord* record(FlowId id) const;
  // Current allocated rate, 0 if inactive.  Settles pending rates first.
  double FlowRate(FlowId id);

  // Total bytes that have fully traversed each resource so far.
  double BytesServed(ResourceId id) const;

  // Closed-form bandwidth for a small access that is not a flow: the share
  // a unit-weight flow joining `path` would get at its tightest resource,
  // min over the path of capacity / (1 + flows crossing that resource).
  // It reads only capacities and the crossing index, both current at every
  // call, so unlike the rate readers it has nothing to settle.  The path
  // must be non-empty.
  double FairShare(const Path& path) const;

  // Records -----------------------------------------------------------------

  // Drops the record of a completed flow (bounds memory in long runs where
  // the caller tracks its own history).  Fails on active or unknown flows.
  Status ReleaseRecord(FlowId id);

  void set_record_retention(RecordRetention policy) { retention_ = policy; }
  std::size_t record_count() const { return live_records_; }

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
  // shard_tasks,parallel_solves,cut_fallbacks}.  solve_ns is wall clock, so
  // it exports as wall.fluid.solver.solve_ns — excluded from the
  // deterministic metrics JSON (see MetricsRegistry::kWallPrefix).
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
    // Bytes served up to served_at, accruing at served_rate since then.  A
    // solve settles the counter only when it changes rate_sum (served_rate
    // is the sum that ran); BytesServed adds the accrued part on read.
    double bytes_served = 0;
    double served_rate = 0;
    SimTime served_at = 0;
    // EWMA of rate_sum / capacity with time constant kUtilTau.  Invariant:
    // every resource's EWMA is folded up to now_.  Only the time sweeps
    // (AdvanceTo, CompleteAt) move now_, and they fold every resource
    // first, at the utilization the elapsed window ran with; rate_sum and
    // capacity change only between sweeps, where no time passes.  So all
    // resources share one fold per sweep, and a read needs no fold at all.
    double smoothed_util = 0;
  };

  // No group: a flow not yet rated, or a free slot.
  static constexpr ResourceId kNoGroup = std::numeric_limits<ResourceId>::max();
  static constexpr std::uint32_t kNotQueued =
      std::numeric_limits<std::uint32_t>::max();

  struct Flow {
    FlowId id = kInvalidFlow;  // kInvalidFlow marks a free slot
    double rate = 0;
    double weight = 1.0;
    std::uint64_t visit_epoch = 0;  // component-BFS visited stamp
    // The group of the resource that froze the flow (see the header
    // comment) and the flow's index in that group's member heap.
    ResourceId group = kNoGroup;
    std::uint32_t member_pos = 0;
    Path path;
    FlowCallback on_done;
  };

  // A group's member: a flow and the virtual time it completes at.
  struct Member {
    double v_finish;
    Slot slot;
  };

  // The flows frozen at one resource, all running at share x weight.  Their
  // virtual clock reads V(t) = v0 + share * (t - t0) / kNsPerSec, in bytes
  // per unit weight, and a member completes when V reaches its v_finish.
  // `members` is a min-heap on v_finish.  `finish` is the time its first
  // member completes.  `due` is the earliest time any member can come
  // within kByteEpsilon bytes of done (judged by min_weight, a lower bound
  // on the members' weights), when a completion event may retire it; it is
  // the group's key in group_heap_ (at heap_pos), and never after finish.
  struct Group {
    double share = 0;
    SimTime t0 = 0;
    double v0 = 0;
    SimTime finish = std::numeric_limits<SimTime>::infinity();
    SimTime due = std::numeric_limits<SimTime>::infinity();
    double min_weight = std::numeric_limits<double>::infinity();
    std::uint32_t heap_pos = kNotQueued;
    std::vector<Member> members;
  };

  // group_heap_ entry: a non-empty group and its due time.
  struct QueuedGroup {
    SimTime due;
    ResourceId group;
  };

  struct Work {
    Slot slot;
    // The resource that froze the flow (kNoGroup while unfrozen) and the
    // rate it froze at.
    ResourceId bottleneck = kNoGroup;
    double rate = 0;
  };

  // One solver task: the seeds routed to it, plus the component(s) it grew
  // from them.  Tasks touch disjoint flows/resources, so they can run on
  // different pool threads without synchronization; the vectors persist
  // across solves as per-task scratch.
  struct ShardTask {
    // Seeds: the resources of retired flows, the SetCapacity targets and the
    // flows started since the last solve.
    std::vector<ResourceId> seeds;
    std::vector<ResourceId> capacity_seeds;
    std::vector<Slot> new_flows;
    // The walk: crossed resources (bottleneck candidates), cut resources
    // (re-summed only; see the header comment) and the flows re-rated.
    std::vector<ResourceId> comp_res;
    std::vector<ResourceId> cut;
    std::vector<Work> work;
    bool fell_back = false;  // the cut solve gave way to the component's
    // ProgressiveFill scratch: the bottleneck min-heap of (share, resource)
    // and the resources one fill round changed.
    std::vector<std::pair<double, ResourceId>> heap;
    std::vector<ResourceId> touched;
    // Every bottleneck the fill froze flows at, with its share.
    std::vector<std::pair<ResourceId, double>> picks;
    // The groups whose due time changed: UpdateGroups finds them, and
    // they are re-queued (RequeueGroup) after the merge.
    std::vector<ResourceId> rekeyed;
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

  // A cut resource must end below capacity * (1 - kSaturationSlack), and a
  // resource at or above it counts as saturated.  Round-off in a fill is
  // ~1e-13 relative, far inside the slack.
  static constexpr double kSaturationSlack = 1e-9;

  // Rate solver.  SolvePending() hands the seeds collected in the batch_*
  // lists to SolveSeeded(), which re-rates what they can move (or
  // everything when incremental mode is off): SolveSeededImpl() partitions
  // the seeds into per-closed-shard tasks plus a spill task and runs
  // SolveTask on each (on the pool when >1 task), which walks the cut
  // component (WalkComponent), fills it, and falls back to the classic
  // component when a cut resource ends saturated; RecomputeAll() is the
  // classic full pass.  ProgressiveFill() is the weighted-max-min core every
  // path shares — including the CheckAgainstFullSolve oracle; the property
  // tests hold it to an independent naive reference.
  void SolvePending();
  void SolveSeeded();
  void SolveSeededImpl();
  void RecomputeAll();
  void SolveTask(ShardTask& task);
  // Grows task.comp_res, task.cut and task.work from the task's seeds,
  // stamping with `epoch`.  With cut == false every reached resource is
  // crossed: the classic connected component.
  void WalkComponent(ShardTask& task, std::uint64_t epoch, bool cut);
  bool Saturated(ResourceId r) const {
    return resources_[r].rate_sum >=
           resources_[r].capacity * (1 - kSaturationSlack);
  }
  void ProgressiveFill(ShardTask& task, FillState& fill) const;
  void ApplyRates(const ShardTask& task);
  void CheckAgainstFullSolve() const;

  // Lazy progress (see the header comment).  UpdateGroups runs at the end
  // of every solve task and touches only the task's own resources and
  // flows: it settles the byte counters whose rate sum moved, applies the
  // fill's shares, moves the flows whose bottleneck changed and re-keys the
  // groups that changed; those are re-queued in group_heap_ task by task
  // after the merge.  CheckGroups is the crosscheck's audit of the group
  // state.
  void UpdateGroups(ShardTask& task);
  // Sets g's finish and due times from its first member.
  void RekeyGroup(Group& g);
  // Moves group r to its current due time in group_heap_, or out if empty.
  void RequeueGroup(ResourceId r);
  // The earliest finish over every group.
  SimTime NextFinish();
  void CheckGroups() const;
  void SettleServed(ResourceId r);
  // The group's virtual clock at now_, and the time it reads `v`.
  double VirtualTime(const Group& g) const;
  SimTime FinishTime(const Group& g, double v) const;
  void PushMember(Group& g, Member m);
  void EraseMember(Group& g, std::uint32_t pos);
  // Keeps Flow::member_pos in step with the member heap.
  auto MemberPlacer() {
    return [this](const Member& m, std::size_t i) {
      flows_[m.slot].member_pos = static_cast<std::uint32_t>(i);
    };
  }

  void IndexFlow(Slot slot);
  // Removes flow `id`'s entries; its slot must still hold the id.
  void UnindexFlow(FlowId id, const Path& path);
  // Maintains shard_cross_flows_ when a flow is indexed (+1) / removed (-1).
  void UpdateShardCrossings(const Path& path, int delta);

  void AdvanceTo(SimTime t);
  // Step's completion event at `t`, the earliest group finish: advances to
  // `t`, retires every flow the completion rules finish and runs their
  // callbacks.
  void CompleteAt(SimTime t);
  // The time sweep's EWMA fold: advances every resource's smoothed_util by
  // dt > 0 at its current utilization.  AdvanceTo and CompleteAt call it
  // before now_ moves.
  void FoldUtilization(SimTime dt);
  void FinishRecord(FlowId id);
  // The record table.  FindRecord returns null for a retired (or never
  // issued) id; DropRecord retires a record if it is still held and trims
  // retired records off the table's front.
  struct RecordEntry;
  const RecordEntry* FindEntry(FlowId id) const;
  FlowRecord* FindRecord(FlowId id);
  const FlowRecord* FindRecord(FlowId id) const;
  void DropRecord(FlowId id);
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
  // By ResourceId; null until the resource is first a bottleneck.
  std::vector<std::unique_ptr<Group>> groups_;
  // Every non-empty group, as a min-heap on (due, group).
  std::vector<QueuedGroup> group_heap_;
  // Scratch for walks over group_heap_ and member heaps (entries to visit),
  // and the groups a completion event may retire flows from.
  std::vector<std::uint32_t> heap_walk_;
  std::vector<ResourceId> due_groups_;
  // Active flows: a slot table with a free list.
  std::vector<Flow> flows_;
  std::vector<Slot> free_slots_;
  std::size_t active_flows_ = 0;
  // Flow records by id: records_[id - records_base_] holds flow `id`.  Ids
  // issue monotonically, so StartFlow appends; a retired record stays as a
  // dead entry until every older one is retired too, then leaves from the
  // front.  Missing (before the base, or dead) means retired.  So the
  // table's size is bounded by the flows started since the oldest record
  // still held, not by the records held: one long-lived record (an active
  // flow, or a kKeepAll record never released) pins a dead entry for every
  // flow started after it.  Entries never move, so record pointers stay
  // valid until the record is retired.  An active flow's entry names its
  // slot.  The table's chunks come from record_pool_, which keeps the ones
  // the front gives back for the back to reuse, so a steady churn of flows
  // allocates no record storage.
  struct RecordEntry {
    FlowRecord rec;
    Slot slot = 0;
    bool live = true;
  };
  std::pmr::unsynchronized_pool_resource record_pool_;
  std::pmr::deque<RecordEntry> records_{&record_pool_};
  FlowId records_base_ = 1;
  std::size_t live_records_ = 0;
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
  // flows_at_[r] holds the slot of every active flow crossing r, one entry
  // per path occurrence, sorted by the slot's flow id: ids are issued in
  // increasing order, so IndexFlow appends.
  std::vector<std::vector<Slot>> flows_at_;
  FillState fill_;
  std::vector<std::uint64_t> res_epoch_;
  std::vector<ShardTask> tasks_;
  std::uint64_t solve_epoch_ = 0;

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
  // A completion's retiring flow and the bytes its clock leaves it to
  // credit (see the header comment).
  struct Retired {
    FlowId id;
    Slot slot;
    double residue;
  };
  std::vector<Retired> retiring_;
  std::vector<Timer> timer_batch_;
  std::vector<std::pair<FlowId, FlowCallback>> done_scratch_;

  // Deferred solving.  The batch_* lists collect the seeds of every change
  // whose solve is deferred (inside an open batch, and while Step runs its
  // callbacks, deferring_): retired flows' paths in batch_seed_, SetCapacity
  // targets in batch_capacity_, started flows' slots in batch_new_.
  bool in_batch_ = false;
  bool deferring_ = false;
  std::vector<ResourceId> batch_seed_;
  std::vector<ResourceId> batch_capacity_;
  std::vector<Slot> batch_new_;

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
