#include "sim/fluid.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "sim/solver_pool.h"

namespace lmp::sim {
namespace {

// Flows with fewer remaining bytes than this are considered complete;
// protects against double round-off never quite reaching zero.
constexpr double kByteEpsilon = 1e-6;
constexpr SimTime kTimeEpsilon = 1e-9;

constexpr ResourceId kNoResource = std::numeric_limits<ResourceId>::max();
constexpr std::size_t kNoTask = std::numeric_limits<std::size_t>::max();

}  // namespace

FluidSimulator::FluidSimulator() = default;
FluidSimulator::~FluidSimulator() = default;

ResourceId FluidSimulator::AddResource(std::string name,
                                       BytesPerSec capacity) {
  LMP_CHECK(capacity > 0) << "resource " << name << " needs capacity > 0";
  resources_.push_back(Resource{std::move(name), capacity, 0, 0, 0});
  flows_at_.emplace_back();
  fill_.headroom.push_back(0);
  fill_.unfrozen.push_back(0);
  fill_.touched.push_back(0);
  res_epoch_.push_back(0);
  resource_shard_.push_back(kNoShard);
  return static_cast<ResourceId>(resources_.size() - 1);
}

Status FluidSimulator::SetCapacity(ResourceId id, BytesPerSec capacity) {
  if (id >= resources_.size()) {
    return InvalidArgumentError("no such resource");
  }
  if (capacity <= 0) return InvalidArgumentError("capacity must be > 0");
  // The EWMA was folded up to now_ by the last time sweep, so the elapsed
  // window is already priced at the old capacity.
  resources_[id].capacity = capacity;
  batch_seed_.push_back(id);
  if (!deferring_) SolvePending();
  return Status::Ok();
}

BytesPerSec FluidSimulator::capacity(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].capacity;
}

const std::string& FluidSimulator::ResourceName(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].name;
}

double FluidSimulator::Utilization(ResourceId id) {
  assert(id < resources_.size());
  SolvePending();
  const Resource& r = resources_[id];
  return r.capacity > 0 ? r.rate_sum / r.capacity : 0.0;
}

double FluidSimulator::SmoothedUtilization(ResourceId id) {
  assert(id < resources_.size());
  SolvePending();
  // Every resource is folded up to now_ (see FoldUtilization).
  return resources_[id].smoothed_util;
}

void FluidSimulator::FoldUtilization(SimTime dt) {
  // Every resource was last folded at now_, so one alpha serves them all.
  const double alpha = 1.0 - std::exp(-dt / kUtilTau);
  for (Resource& r : resources_) {
    const double inst = r.rate_sum / r.capacity;
    r.smoothed_util += alpha * (inst - r.smoothed_util);
  }
}

void FluidSimulator::SetResourceShard(ResourceId id, ShardId shard) {
  LMP_CHECK(id < resources_.size()) << "no such resource";
  LMP_CHECK(shard != kNoShard) << "reserved shard id";
  LMP_CHECK(order_.empty()) << "assign shards before starting flows";
  resource_shard_[id] = shard;
  if (shard >= shard_cross_flows_.size()) {
    shard_cross_flows_.resize(shard + 1, 0);
    shard_task_.resize(shard + 1, 0);
    shard_task_epoch_.resize(shard + 1, 0);
  }
}

ShardId FluidSimulator::resource_shard(ResourceId id) const {
  assert(id < resources_.size());
  return resource_shard_[id];
}

void FluidSimulator::set_threads(int n) {
  LMP_CHECK(n >= 1) << "thread count must be >= 1";
  threads_ = n;
  pool_.reset();
  if (n > 1) pool_ = std::make_unique<SolverPool>(n);
}

void FluidSimulator::FinishRecord(FlowId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return;
  it->second.done = true;
  it->second.end = now_;
  if (flow_duration_hist_ != nullptr) {
    flow_duration_hist_->Record(
        static_cast<std::uint64_t>(now_ - it->second.start));
  }
  if (trace_ != nullptr) {
    trace_->End(trace::Category::kFlow, "flow", id, now_);
  }
}

void FluidSimulator::set_metrics(MetricsRegistry* registry) {
  flow_duration_hist_ =
      registry == nullptr
          ? nullptr
          : &registry->GetHistogram("fluid.flow_duration_ns");
}

FlowId FluidSimulator::StartFlow(double bytes,
                                 const std::vector<ResourceId>& path,
                                 FlowCallback on_done, double weight) {
  const FlowId id = next_flow_id_++;
  records_[id] = FlowRecord{now_, now_, bytes, false};

  LMP_CHECK(weight > 0) << "flow weight must be positive";
  for (ResourceId r : path) {
    LMP_CHECK(r < resources_.size()) << "flow references unknown resource";
  }
  if (trace_ != nullptr) {
    trace_->Begin(trace::Category::kFlow, "flow", id, now_,
                  {trace::Arg("bytes", bytes),
                   trace::Arg("hops", static_cast<std::uint64_t>(path.size())),
                   trace::Arg("weight", weight)});
  }

  if (bytes <= kByteEpsilon || path.empty()) {
    // Degenerate flow: completes instantly.  The record is final here, but
    // the callback is deferred through a zero-delay timer so it cannot
    // re-enter the simulator (start flows, query records) mid-StartFlow.
    FinishRecord(id);
    for (ResourceId r : path) resources_[r].bytes_served += bytes;
    if (on_done) {
      ScheduleAt(now_, [this, id, cb = std::move(on_done)](SimTime t) {
        cb(id, t);
        if (retention_ == RecordRetention::kDropCompleted) records_.erase(id);
      });
    } else if (retention_ == RecordRetention::kDropCompleted) {
      records_.erase(id);
    }
    return id;
  }

  Slot slot = static_cast<Slot>(flows_.size());
  if (free_slots_.empty()) {
    flows_.emplace_back();
    fill_.work_idx.push_back(0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Flow& flow = flows_[slot];
  flow.id = id;
  flow.remaining = bytes;
  flow.path.assign(path.begin(), path.end());  // reuses the slot's buffer
  flow.rate = 0;
  flow.weight = weight;
  flow.on_done = std::move(on_done);
  order_.push_back(slot);  // ids ascend, so order_ stays sorted
  IndexFlow(slot);
  batch_seed_.insert(batch_seed_.end(), path.begin(), path.end());
  if (!deferring_) SolvePending();
  return id;
}

void FluidSimulator::BeginBatch() {
  LMP_CHECK(!in_batch_) << "BeginBatch inside an open batch";
  // Reads inside the batch see every change made before it, as they would
  // had each been solved at once; only the batch's own changes wait.
  SolvePending();
  in_batch_ = true;
}

void FluidSimulator::EndBatch() {
  LMP_CHECK(in_batch_) << "EndBatch without BeginBatch";
  in_batch_ = false;
  if (!deferring_) SolvePending();
}

void FluidSimulator::SolvePending() {
  // Inside an open batch, rates of the batch's flows read 0 until EndBatch.
  if (in_batch_ || batch_seed_.empty()) return;
  std::swap(seed_res_, batch_seed_);
  batch_seed_.clear();
  SolveSeeded();
}

void FluidSimulator::IndexFlow(Slot slot) {
  // Ids are issued monotonically, so push_back keeps each per-resource
  // index sorted; one entry per path occurrence mirrors the solver's
  // per-occurrence accounting.
  const Flow& flow = flows_[slot];
  for (ResourceId r : flow.path) {
    flows_at_[r].push_back(FlowEntry{flow.id, slot});
  }
  UpdateShardCrossings(flow.path, +1);
}

void FluidSimulator::UnindexFlow(FlowId id,
                                 const std::vector<ResourceId>& path) {
  for (ResourceId r : path) {
    auto& entries = flows_at_[r];
    const auto cmp = [](const FlowEntry& e, const FlowEntry& v) {
      return e.id < v.id;
    };
    auto [lo, hi] = std::equal_range(entries.begin(), entries.end(),
                                     FlowEntry{id, 0}, cmp);
    entries.erase(lo, hi);
  }
  UpdateShardCrossings(path, -1);
}

void FluidSimulator::UpdateShardCrossings(const std::vector<ResourceId>& path,
                                          int delta) {
  if (shard_cross_flows_.empty()) return;  // no shards assigned
  // Collect the distinct shards on the path (paths are a handful of hops;
  // a linear dedupe beats any set).  A flow confined to one shard closes
  // nothing; any other mix — two shards, or a shard plus unsharded
  // resources — holds every shard it touches open until the flow retires.
  path_shards_.clear();
  bool touches_unsharded = false;
  for (ResourceId r : path) {
    const ShardId s = resource_shard_[r];
    if (s == kNoShard) {
      touches_unsharded = true;
      continue;
    }
    if (std::find(path_shards_.begin(), path_shards_.end(), s) ==
        path_shards_.end()) {
      path_shards_.push_back(s);
    }
  }
  if (path_shards_.empty()) return;  // fully unsharded: spill-only
  if (path_shards_.size() == 1 && !touches_unsharded) return;  // internal
  for (ShardId s : path_shards_) {
    if (delta > 0) {
      ++shard_cross_flows_[s];
    } else {
      LMP_CHECK(shard_cross_flows_[s] > 0) << "cross-flow underflow";
      --shard_cross_flows_[s];
    }
  }
}

TimerHandle FluidSimulator::ScheduleAt(SimTime when, TimerCallback cb) {
  LMP_CHECK(when + kTimeEpsilon >= now_) << "timer scheduled in the past";
  std::uint32_t slot = static_cast<std::uint32_t>(timer_slots_.size());
  if (free_timer_slots_.empty()) {
    timer_slots_.emplace_back();
  } else {
    slot = free_timer_slots_.back();
    free_timer_slots_.pop_back();
  }
  const TimerHandle handle{slot, next_timer_seq_++};
  timer_slots_[slot].cb = std::move(cb);
  timer_slots_[slot].seq = handle.seq;
  timers_.push_back(Timer{std::max(when, now_), handle.seq, slot});
  std::push_heap(timers_.begin(), timers_.end(), std::greater<>());
  return handle;
}

TimerHandle FluidSimulator::ScheduleAfter(SimTime delay, TimerCallback cb) {
  return ScheduleAt(now_ + delay, std::move(cb));
}

void FluidSimulator::CancelTimer(TimerHandle handle) {
  if (handle.slot >= timer_slots_.size() ||
      timer_slots_[handle.slot].seq != handle.seq) {
    return;  // fired, firing, already cancelled, or the slot was reused
  }
  FreeTimerSlot(handle.slot);
  ++stale_timers_;
  if (stale_timers_ > 64 && stale_timers_ * 2 > timers_.size()) {
    PurgeStaleTimers();
  }
}

void FluidSimulator::FreeTimerSlot(std::uint32_t slot) {
  timer_slots_[slot].cb = nullptr;
  timer_slots_[slot].seq = TimerHandle().seq;
  free_timer_slots_.push_back(slot);
}

void FluidSimulator::PopStaleTimers() {
  while (!timers_.empty() && IsStale(timers_.front())) {
    std::pop_heap(timers_.begin(), timers_.end(), std::greater<>());
    timers_.pop_back();
    --stale_timers_;
  }
}

void FluidSimulator::PurgeStaleTimers() {
  // Entries are totally ordered by (when, seq), so rebuilding the heap
  // leaves the firing order unchanged.
  const std::size_t before = timers_.size();
  std::erase_if(timers_, [this](const Timer& t) { return IsStale(t); });
  std::make_heap(timers_.begin(), timers_.end(), std::greater<>());
  // Cancelled members of a Step's running batch are not in the heap; they
  // stay counted until that Step skips them.
  stale_timers_ -= before - timers_.size();
}

void FluidSimulator::ProgressiveFill(ShardTask& task,
                                     FillState& fill) const {
  // Weighted max-min by progressive filling: repeatedly take the resource
  // whose fair share per unit of still-unfrozen weight is smallest, and
  // freeze the flows crossing it at that share.  task.comp_res must hold
  // every resource the work's flows cross, and task.work every flow
  // crossing those resources.  This is the single weighted max-min core:
  // the incremental solver, the full solver, every shard task, and the
  // CheckAgainstFullSolve oracle all run it.  Rates land in Work::rate;
  // no flow is written.
  //
  // Bit-exactness rests on order.  Each resource's unfrozen weight is summed
  // over its index entries, which are in flow-id order; a bottleneck's
  // flows freeze in that same order; and the heap breaks share ties by the
  // lowest resource id.  Neither comp_res nor work needs sorting.
  //
  // Raw pointers: the loops below store through several of these arrays,
  // and a store through a char-sized element may alias anything.
  double* const headroom = fill.headroom.data();
  double* const unfrozen = fill.unfrozen.data();
  std::uint8_t* const touched = fill.touched.data();
  std::uint32_t* const work_idx = fill.work_idx.data();
  const Flow* const flows = flows_.data();
  Work* const work = task.work.data();
  const std::size_t work_count = task.work.size();
  for (std::size_t i = 0; i < work_count; ++i) {
    work_idx[work[i].slot] = static_cast<std::uint32_t>(i);
  }
  // Min-heap on (share, id) with lazy invalidation.  A round changes the
  // share of every resource it touches, so each is pushed again once at its
  // new share; the entries it leaves behind are stale, and a popped entry
  // counts only if it still equals its resource's share.  The smallest
  // valid entry is the bottleneck a scan over every resource would pick:
  // smallest share, then lowest id.
  auto& heap = task.heap;
  heap.clear();
  for (ResourceId r : task.comp_res) {
    double weight = 0;
    for (const FlowEntry& e : flows_at_[r]) weight += flows[e.slot].weight;
    headroom[r] = resources_[r].capacity;
    unfrozen[r] = weight;
    if (weight > 0) heap.emplace_back(headroom[r] / weight, r);
  }
  const auto later = std::greater<std::pair<double, ResourceId>>();
  std::make_heap(heap.begin(), heap.end(), later);

  std::size_t frozen_count = 0;
  while (frozen_count < work_count) {
    double best_share = std::numeric_limits<double>::infinity();
    ResourceId best_res = kNoResource;
    while (!heap.empty()) {
      const auto [share, r] = heap.front();
      std::pop_heap(heap.begin(), heap.end(), later);
      heap.pop_back();
      if (unfrozen[r] > 0 && headroom[r] / unfrozen[r] == share) {
        best_share = share;
        best_res = r;
        break;
      }
    }
    if (best_res == kNoResource ||
        best_share == std::numeric_limits<double>::infinity()) {
      // Some flows traverse no constrained resource (cannot happen: flows
      // with empty paths complete instantly), but guard anyway by giving
      // them effectively unbounded rate.
      for (std::size_t i = 0; i < work_count; ++i) {
        if (!work[i].frozen) {
          work[i].rate = std::numeric_limits<double>::max();
          work[i].frozen = true;
        }
      }
      break;
    }

    // Freeze every unfrozen flow crossing the bottleneck at the fair share.
    // A flow listed twice (a repeated path hop) freezes at its first entry.
    for (const FlowEntry& e : flows_at_[best_res]) {
      Work& w = work[work_idx[e.slot]];
      if (w.frozen) continue;
      const Flow& f = flows[e.slot];
      const double rate = best_share * f.weight;
      w.rate = rate;
      w.frozen = true;
      ++frozen_count;
      for (ResourceId r : f.path) {
        unfrozen[r] -= f.weight;
        headroom[r] = std::max(headroom[r] - rate, 0.0);  // round-off guard
        if (touched[r] == 0) {
          touched[r] = 1;
          task.touched.push_back(r);
        }
      }
    }
    // Every flow crossing the bottleneck is frozen now.  With fractional
    // weights the subtractions can leave a positive residue (0.4 - 0.1 -
    // 0.1 - 0.2 = 2.8e-17) over zero headroom, which would win every later
    // round at share 0 and freeze nothing, forever.
    unfrozen[best_res] = 0;
    for (ResourceId r : task.touched) {
      touched[r] = 0;
      if (unfrozen[r] > 0) {
        heap.emplace_back(headroom[r] / unfrozen[r], r);
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    task.touched.clear();
  }
}

void FluidSimulator::ApplyRates(const ShardTask& task) {
  // Each resource sums its flows' rates over its index, i.e. in flow-id
  // order — the order a full pass over all flows would add them in.
  for (const Work& w : task.work) flows_[w.slot].rate = w.rate;
  for (ResourceId r : task.comp_res) {
    double rate_sum = 0;
    for (const FlowEntry& e : flows_at_[r]) rate_sum += flows_[e.slot].rate;
    resources_[r].rate_sum = rate_sum;
  }
}

void FluidSimulator::RecomputeAll() {
  ++stats_.recompute_calls;
  ++stats_.full_solves;
  stats_.flows_touched += order_.size();
  if (tasks_.empty()) tasks_.emplace_back();
  ShardTask& task = tasks_[0];  // scratch reuse; full solves never overlap
  task.comp_res.clear();
  for (ResourceId r = 0; r < resources_.size(); ++r) {
    resources_[r].rate_sum = 0;
    if (!flows_at_[r].empty()) task.comp_res.push_back(r);
  }
  if (order_.empty()) return;

  task.work.clear();
  for (Slot slot : order_) task.work.push_back(Work{slot});
  ProgressiveFill(task, fill_);
  ApplyRates(task);
}

void FluidSimulator::SolveSeeded() {
  const std::uint64_t touched_before = stats_.flows_touched;
  if (!solver_timing_) {
    SolveSeededImpl();
  } else {
    const auto t0 = std::chrono::steady_clock::now();
    SolveSeededImpl();
    const auto t1 = std::chrono::steady_clock::now();
    stats_.solve_ns += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
  }
  if (trace_ != nullptr) {
    // Sim-time only: the number of flows re-rated, never the wall cost.
    trace_->Instant(
        trace::Category::kSolver, "rate_change", now_,
        {trace::Arg("flows", stats_.flows_touched - touched_before)});
  }
}

void FluidSimulator::SolveSeededImpl() {
  if (!incremental_) {
    RecomputeAll();
    return;
  }
  // Adaptive fallback: when the connected component keeps spanning every
  // active flow (heavily bridged topologies — incast, all-remote), the
  // component BFS is pure overhead on top of an unavoidable full solve.
  // After a streak of whole-graph components, solve fully for a cooldown
  // window, then probe incrementally again in case locality returned.
  if (full_solve_cooldown_ > 0) {
    --full_solve_cooldown_;
    RecomputeAll();
    return;
  }
  ++stats_.recompute_calls;
  ++solve_epoch_;

  // Partition the seed resources into solver tasks.  A shard with zero
  // cross-shard flows is *closed*: every flow touching it lies entirely
  // inside it, so its connected components cannot extend past the shard
  // boundary and its BFS + solve is independent of every other task.  Seeds
  // in open shards or on unsharded resources funnel into one sequential
  // "spill" task; spill components may span open shards but can never reach
  // into a closed one (any flow that could bridge them would have held the
  // shard open).  With no shards assigned, everything spills and the solve
  // is exactly the classic single-component pass.
  std::size_t num_tasks = 0;
  std::size_t spill = kNoTask;
  const auto task_index_for = [&](ResourceId r) -> std::size_t {
    const ShardId shard = resource_shard_[r];
    if (shard == kNoShard || shard_cross_flows_[shard] != 0) {
      if (spill == kNoTask) {
        spill = num_tasks++;
        if (spill == tasks_.size()) tasks_.emplace_back();
        tasks_[spill].seeds.clear();
      }
      return spill;
    }
    if (shard_task_epoch_[shard] != solve_epoch_) {
      shard_task_epoch_[shard] = solve_epoch_;
      shard_task_[shard] = num_tasks++;
      if (shard_task_[shard] == tasks_.size()) tasks_.emplace_back();
      tasks_[shard_task_[shard]].seeds.clear();
    }
    return shard_task_[shard];
  };
  if (shard_cross_flows_.empty()) {
    // Fast path: no shards assigned, single spill task.
    spill = num_tasks++;
    if (tasks_.empty()) tasks_.emplace_back();
    tasks_[0].seeds.clear();
    tasks_[0].seeds.insert(tasks_[0].seeds.end(), seed_res_.begin(),
                           seed_res_.end());
  } else {
    for (ResourceId r : seed_res_) {
      tasks_[task_index_for(r)].seeds.push_back(r);
    }
  }

  // Solve every task.  Tasks grow disjoint components and write disjoint
  // flows/resources, and each performs identical arithmetic in identical
  // order regardless of which thread runs it — results are byte-identical
  // for any thread count.  The shared epoch stamps (res_epoch_,
  // visit_epoch) are written at most once per solve per element, always by
  // the single task owning that element.
  stats_.shard_tasks += num_tasks;
  if (num_tasks > 1) ++stats_.parallel_solves;
  if (num_tasks > 1 && pool_ != nullptr) {
    pool_->Run(num_tasks, [this](std::size_t i) { SolveTask(tasks_[i]); });
  } else {
    for (std::size_t i = 0; i < num_tasks; ++i) SolveTask(tasks_[i]);
  }

  // Deterministic merge: aggregate stats in task order (task order is a
  // pure function of seed_res_ and the shard map, never of the schedule).
  std::size_t touched = 0;
  for (std::size_t i = 0; i < num_tasks; ++i) touched += tasks_[i].work.size();
  stats_.flows_touched += touched;
  if (touched == order_.size()) {
    ++stats_.full_solves;
    // The full-solve cooldown exists to skip BFS overhead when the graph
    // keeps collapsing into one whole-cluster component.  A *partitioned*
    // whole-graph solve is the opposite case: the BFS is what split it into
    // small per-shard tasks, and falling back to RecomputeAll would replace
    // them with one sequential cluster-wide fill.  Only single-task streaks
    // arm the cooldown.
    if (num_tasks > 1) {
      full_solve_streak_ = 0;
    } else {
      if (full_solve_streak_ < kFullStreakThreshold) ++full_solve_streak_;
      if (full_solve_streak_ >= kFullStreakThreshold) {
        full_solve_cooldown_ = kFullSolveCooldown;
      }
    }
  } else {
    full_solve_streak_ = 0;
  }

  if (crosscheck_) CheckAgainstFullSolve();
}

void FluidSimulator::SolveTask(ShardTask& task) {
  // Connected component(s) of the task's seed resources: alternate
  // resource -> its crossing flows -> their paths until closed.  Epoch
  // stamps make the visited sets allocation-free and are safe to share
  // across concurrent tasks because components are disjoint.
  task.comp_res.clear();
  task.work.clear();
  const auto add_res = [&](ResourceId r) {
    if (res_epoch_[r] != solve_epoch_) {
      res_epoch_[r] = solve_epoch_;
      task.comp_res.push_back(r);
    }
  };
  for (ResourceId r : task.seeds) add_res(r);
  for (std::size_t i = 0; i < task.comp_res.size(); ++i) {
    for (const FlowEntry& e : flows_at_[task.comp_res[i]]) {
      Flow& f = flows_[e.slot];
      if (f.visit_epoch == solve_epoch_) continue;
      f.visit_epoch = solve_epoch_;
      task.work.push_back(Work{e.slot});
      for (ResourceId r : f.path) add_res(r);
    }
  }

  ProgressiveFill(task, fill_);
  ApplyRates(task);
}

void FluidSimulator::CheckAgainstFullSolve() const {
  // Reference full pass over private scratch (the simulator state is
  // untouched), compared bit-exactly against the rates the incremental
  // solve left behind.  Runs the same ProgressiveFill core as production —
  // the parity being checked is component decomposition, not arithmetic.
  // Debug/test-only: allocates.
  ShardTask task;
  for (Slot slot : order_) task.work.push_back(Work{slot});
  task.comp_res.resize(resources_.size());
  std::iota(task.comp_res.begin(), task.comp_res.end(), 0);
  FillState fill;
  fill.headroom.resize(resources_.size());
  fill.unfrozen.resize(resources_.size());
  fill.touched.resize(resources_.size(), 0);
  fill.work_idx.resize(flows_.size());

  ProgressiveFill(task, fill);

  for (const Work& w : task.work) {
    LMP_CHECK(w.rate == flows_[w.slot].rate)
        << "incremental solver diverged from full solve: rate "
        << flows_[w.slot].rate << " vs reference " << w.rate;
  }
  std::vector<double> rate_sum(resources_.size(), 0);
  for (const Work& w : task.work) {
    for (ResourceId r : flows_[w.slot].path) rate_sum[r] += w.rate;
  }
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    LMP_CHECK(rate_sum[r] == resources_[r].rate_sum)
        << "incremental solver diverged on rate_sum of resource " << r << ": "
        << resources_[r].rate_sum << " vs reference " << rate_sum[r];
  }
}

void FluidSimulator::AdvanceTo(SimTime t) {
  assert(t + kTimeEpsilon >= now_);
  const SimTime dt = std::max<SimTime>(0, t - now_);
  if (dt > 0) {
    const double secs = dt / kNsPerSec;
    for (Slot slot : order_) {
      Flow& f = flows_[slot];
      // Clamp to the flow's remaining bytes: crediting rate * dt past the
      // point a flow runs out over-counts bytes_served (historical bug).
      const double moved = std::min(f.rate * secs, f.remaining);
      f.remaining -= moved;
      for (ResourceId r : f.path) resources_[r].bytes_served += moved;
    }
    FoldUtilization(dt);
  }
  now_ = t;
}

bool FluidSimulator::Step() {
  LMP_CHECK(!in_batch_) << "Step inside an open flow batch";
  // A Step entered from a callback first settles what the callback left.
  SolvePending();
  // Shortest remaining duration among active flows.  Each flow's duration
  // is computed once, here; the tie test in CompleteAt reads the same
  // value back.  Working in durations (not absolute times) and
  // force-completing the event-defining flows guarantees progress even when
  // now_ is large enough that absolute-time rounding would otherwise strand
  // sub-epsilon residues (a Zeno deadlock).
  durations_.resize(order_.size());
  SimTime min_dt = std::numeric_limits<SimTime>::infinity();
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Flow& f = flows_[order_[i]];
    durations_[i] = f.rate > 0 ? f.remaining / f.rate * kNsPerSec
                               : std::numeric_limits<SimTime>::infinity();
    min_dt = std::min(min_dt, durations_[i]);
  }
  const SimTime completion =
      std::isfinite(min_dt) ? now_ + min_dt
                            : std::numeric_limits<SimTime>::infinity();
  PopStaleTimers();
  const SimTime timer = timers_.empty()
                            ? std::numeric_limits<SimTime>::infinity()
                            : timers_.front().when;
  if (!std::isfinite(completion) && !std::isfinite(timer)) return false;

  if (timer <= completion) {
    AdvanceTo(timer);
    // Batched dispatch: drain every timer due at this instant before
    // running any callback, so a wave of same-time timers costs one Step
    // (and one heap drain) instead of one Step each.  Timers a callback
    // schedules at this same instant have larger seq values and would sort
    // after the drained batch anyway; they run on the next Step.  Each
    // callback moves out of its slot just before it runs, which frees the
    // slot; a batch member an earlier callback cancelled is skipped.  The
    // scratch is moved out so a re-entrant Step cannot clobber it.
    auto batch = std::move(timer_batch_);
    batch.clear();
    while (!timers_.empty() && timers_.front().when == timer) {
      std::pop_heap(timers_.begin(), timers_.end(), std::greater<>());
      batch.push_back(timers_.back());
      timers_.pop_back();
    }
    // What the callbacks start or rescale is solved once, after all of
    // them.
    const bool outer_deferring = deferring_;
    deferring_ = true;
    for (const Timer& t : batch) {
      if (IsStale(t)) {
        --stale_timers_;
        continue;
      }
      TimerCallback cb = std::move(timer_slots_[t.slot].cb);
      FreeTimerSlot(t.slot);
      cb(now_);
    }
    deferring_ = outer_deferring;
    SolvePending();
    batch.clear();
    timer_batch_ = std::move(batch);
    return true;
  }
  CompleteAt(completion, min_dt);
  return true;
}

void FluidSimulator::CompleteAt(SimTime t, SimTime min_dt) {
  // One pass over the active flows, in id order: advance each to t, mark
  // the flows this event completes, retire the finished ones and compact
  // order_ over the survivors.  The event-defining flows are those whose
  // duration is (within a relative tolerance) the minimum; advancing clamps
  // what it credits to each flow's remaining bytes, and whatever residue
  // the clamp leaves on those flows (the definer can round either way) is
  // settled after the pass, so per-resource BytesServed totals are exact
  // per flow rather than off by up to the Zeno tolerance.
  assert(t + kTimeEpsilon >= now_);
  const SimTime dt = std::max<SimTime>(0, t - now_);
  const double secs = dt / kNsPerSec;
  const SimTime dt_tolerance = min_dt * 1e-9 + kTimeEpsilon;
  const SimTime tie_limit = min_dt + dt_tolerance;
  if (dt > 0) FoldUtilization(dt);
  now_ = t;

  auto done = std::move(done_scratch_);
  done.clear();
  tied_scratch_.clear();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Slot slot = order_[i];
    Flow& f = flows_[slot];
    if (dt > 0) {
      const double moved = std::min(f.rate * secs, f.remaining);
      f.remaining -= moved;
      for (ResourceId r : f.path) resources_[r].bytes_served += moved;
    }
    const bool is_tied = durations_[i] <= tie_limit;
    if (!is_tied && f.remaining > kByteEpsilon &&
        !(f.rate > 0 && f.remaining / f.rate * kNsPerSec < kTimeEpsilon)) {
      order_[kept++] = slot;
      continue;
    }
    if (is_tied) tied_scratch_.push_back(slot);
    FinishRecord(f.id);
    done.emplace_back(f.id, std::move(f.on_done));
    batch_seed_.insert(batch_seed_.end(), f.path.begin(), f.path.end());
    UnindexFlow(f.id, f.path);
    free_slots_.push_back(slot);  // reused only by a later StartFlow
  }
  order_.resize(kept);
  // Tied residues settle after every flow advanced, in id order, so each
  // resource's bytes_served sees the same sequence of additions as a
  // separate advance pass followed by a settle pass.
  for (Slot slot : tied_scratch_) {
    Flow& f = flows_[slot];
    if (f.remaining > 0) {
      for (ResourceId r : f.path) resources_[r].bytes_served += f.remaining;
      f.remaining = 0;
    }
  }

  // Callbacks may start new flows; those and the retired flows' components
  // are solved once, after every callback.
  const bool outer_deferring = deferring_;
  deferring_ = true;
  for (auto& [id, cb] : done) {
    if (cb) cb(id, now_);
    if (retention_ == RecordRetention::kDropCompleted) records_.erase(id);
  }
  deferring_ = outer_deferring;
  SolvePending();
  done.clear();
  done_scratch_ = std::move(done);
}

void FluidSimulator::Run() {
  while (Step()) {
  }
}

Status FluidSimulator::RunUntilFlowDone(FlowId id) {
  if (id == kInvalidFlow || id >= next_flow_id_) {
    return NotFoundError("unknown flow");
  }
  // One lookup per iteration (records can be released mid-run); a missing
  // record for a known id means it was already retired, i.e. completed.
  while (true) {
    const auto it = records_.find(id);
    if (it == records_.end() || it->second.done) return Status::Ok();
    if (!Step()) {
      return InternalError("simulation drained before flow completed");
    }
  }
}

const FlowRecord* FluidSimulator::record(FlowId id) const {
  auto it = records_.find(id);
  return it == records_.end() ? nullptr : &it->second;
}

Status FluidSimulator::ReleaseRecord(FlowId id) {
  auto it = records_.find(id);
  if (it == records_.end()) return NotFoundError("no record for flow");
  if (!it->second.done) {
    return FailedPreconditionError("flow is still active");
  }
  records_.erase(it);
  return Status::Ok();
}

double FluidSimulator::FlowRate(FlowId id) {
  SolvePending();
  const auto it = std::lower_bound(
      order_.begin(), order_.end(), id,
      [this](Slot slot, FlowId v) { return flows_[slot].id < v; });
  return it != order_.end() && flows_[*it].id == id ? flows_[*it].rate : 0.0;
}

double FluidSimulator::BytesServed(ResourceId id) const {
  assert(id < resources_.size());
  return resources_[id].bytes_served;
}

void FluidSimulator::ExportSolverMetrics(MetricsRegistry& registry) {
  registry.Increment("fluid.solver.recompute_calls",
                     stats_.recompute_calls - exported_.recompute_calls);
  registry.Increment("fluid.solver.flows_touched",
                     stats_.flows_touched - exported_.flows_touched);
  registry.Increment("fluid.solver.full_solves",
                     stats_.full_solves - exported_.full_solves);
  registry.Increment("fluid.solver.shard_tasks",
                     stats_.shard_tasks - exported_.shard_tasks);
  registry.Increment("fluid.solver.parallel_solves",
                     stats_.parallel_solves - exported_.parallel_solves);
  // Wall clock, not sim time: the wall. namespace keeps it out of the
  // byte-deterministic metrics JSON.
  registry.Increment("wall.fluid.solver.solve_ns",
                     stats_.solve_ns - exported_.solve_ns);
  exported_ = stats_;
}

}  // namespace lmp::sim
