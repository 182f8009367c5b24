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
constexpr SimTime kNever = std::numeric_limits<SimTime>::infinity();

// Indexed binary min-heap: `before(a, b)` orders the entries and
// `place(e, i)` records that entry e now sits at index i, so an entry can
// be re-keyed or erased where it stands.
template <typename T, typename Before, typename Place>
void SiftUp(std::vector<T>& heap, std::size_t i, Before before, Place place) {
  const T e = heap[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!before(e, heap[parent])) break;
    heap[i] = heap[parent];
    place(heap[i], i);
    i = parent;
  }
  heap[i] = e;
  place(e, i);
}

template <typename T, typename Before, typename Place>
void SiftDown(std::vector<T>& heap, std::size_t i, Before before,
              Place place) {
  const T e = heap[i];
  const std::size_t n = heap.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && before(heap[child + 1], heap[child])) ++child;
    if (!before(heap[child], e)) break;
    heap[i] = heap[child];
    place(heap[i], i);
    i = child;
  }
  heap[i] = e;
  place(e, i);
}

// Restores the heap after heap[i]'s key changed either way.
template <typename T, typename Before, typename Place>
void Resift(std::vector<T>& heap, std::size_t i, Before before, Place place) {
  if (i > 0 && before(heap[i], heap[(i - 1) / 2])) {
    SiftUp(heap, i, before, place);
  } else {
    SiftDown(heap, i, before, place);
  }
}

template <typename T, typename Before, typename Place>
void HeapErase(std::vector<T>& heap, std::size_t i, Before before,
               Place place) {
  heap[i] = heap.back();
  heap.pop_back();
  if (i < heap.size()) Resift(heap, i, before, place);
}

// Walks a heap of `size` entries from the root, descending below entry i
// only when `visit(i)` returns true.  When keys grow down the heap and
// `visit` fails for every entry keyed past some bound, the walk reads the
// entries within the bound and their children only.  `stack` is scratch.
template <typename Visit>
void WalkHeap(std::size_t size, std::vector<std::uint32_t>& stack,
              Visit visit) {
  stack.clear();
  if (size > 0) stack.push_back(0);
  while (!stack.empty()) {
    const std::uint32_t i = stack.back();
    stack.pop_back();
    if (!visit(i)) continue;
    for (std::uint32_t c = 2 * i + 1; c <= 2 * i + 2; ++c) {
      if (c < size) stack.push_back(c);
    }
  }
}

// Orders a group's member heap.
constexpr auto kEarlierFinish = [](const auto& a, const auto& b) {
  return a.v_finish < b.v_finish;
};

}  // namespace

FluidSimulator::FluidSimulator() = default;
FluidSimulator::~FluidSimulator() = default;

ResourceId FluidSimulator::AddResource(std::string name,
                                       BytesPerSec capacity) {
  LMP_CHECK(capacity > 0) << "resource " << name << " needs capacity > 0";
  resources_.push_back(Resource{std::move(name), capacity});
  groups_.emplace_back();
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
  batch_capacity_.push_back(id);
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
  LMP_CHECK(active_flows_ == 0) << "assign shards before starting flows";
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

FlowRecord* FluidSimulator::FindRecord(FlowId id) {
  return const_cast<FlowRecord*>(std::as_const(*this).FindRecord(id));
}

const FluidSimulator::RecordEntry* FluidSimulator::FindEntry(FlowId id) const {
  if (id < records_base_ || id - records_base_ >= records_.size()) {
    return nullptr;
  }
  const RecordEntry& e = records_[id - records_base_];
  return e.live ? &e : nullptr;
}

const FlowRecord* FluidSimulator::FindRecord(FlowId id) const {
  const RecordEntry* e = FindEntry(id);
  return e != nullptr ? &e->rec : nullptr;
}

void FluidSimulator::DropRecord(FlowId id) {
  if (FindRecord(id) == nullptr) return;
  records_[id - records_base_].live = false;
  --live_records_;
  while (!records_.empty() && !records_.front().live) {
    records_.pop_front();
    ++records_base_;
  }
}

void FluidSimulator::FinishRecord(FlowId id) {
  FlowRecord* rec = FindRecord(id);
  if (rec == nullptr) return;
  rec->done = true;
  rec->end = now_;
  if (flow_duration_hist_ != nullptr) {
    flow_duration_hist_->Record(static_cast<std::uint64_t>(now_ - rec->start));
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

FlowId FluidSimulator::StartFlow(double bytes, const Path& path,
                                 FlowCallback on_done, double weight) {
  const FlowId id = next_flow_id_++;
  records_.push_back(RecordEntry{FlowRecord{now_, now_, bytes, false}});
  ++live_records_;

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
        if (retention_ == RecordRetention::kDropCompleted) DropRecord(id);
      });
    } else if (retention_ == RecordRetention::kDropCompleted) {
      DropRecord(id);
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
  flow.path = path;
  flow.rate = 0;
  flow.weight = weight;
  flow.on_done = std::move(on_done);
  records_.back().slot = slot;
  ++active_flows_;
  IndexFlow(slot);
  batch_new_.push_back(slot);
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
  if (in_batch_ || (batch_seed_.empty() && batch_capacity_.empty() &&
                    batch_new_.empty())) {
    return;
  }
  // The solve runs no callback, so nothing adds to the lists under it.
  SolveSeeded();
  batch_seed_.clear();
  batch_capacity_.clear();
  batch_new_.clear();
}

void FluidSimulator::IndexFlow(Slot slot) {
  // Ids are issued monotonically, so push_back keeps each per-resource
  // index sorted; one entry per path occurrence mirrors the solver's
  // per-occurrence accounting.  A resource's first flow sizes its index
  // for eight, so a core crossed by a few flows allocates once, not four
  // times.
  const Flow& flow = flows_[slot];
  for (ResourceId r : flow.path) {
    std::vector<Slot>& index = flows_at_[r];
    if (index.capacity() == 0) index.reserve(8);
    index.push_back(slot);
  }
  UpdateShardCrossings(flow.path, +1);
}

void FluidSimulator::UnindexFlow(FlowId id, const Path& path) {
  // Every indexed slot still holds its flow's id, so the index is sorted by
  // flows_[slot].id and a binary search finds the flow's run of entries.
  const auto id_of = [this](Slot s) { return flows_[s].id; };
  for (ResourceId r : path) {
    auto& entries = flows_at_[r];
    const auto found = std::ranges::equal_range(entries, id, {}, id_of);
    entries.erase(found.begin(), found.end());
  }
  UpdateShardCrossings(path, -1);
}

void FluidSimulator::UpdateShardCrossings(const Path& path, int delta) {
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
  // every resource the work's flows cross but those in task.cut, and
  // task.work every flow crossing a comp_res resource.  Cut resources enter
  // with no unfrozen weight; the freeze loop only lowers it, so they never
  // join the heap and are never a bottleneck.  This is the single weighted
  // max-min core:
  // the incremental solver, the full solver, every shard task, and the
  // CheckAgainstFullSolve oracle all run it.  Rates land in Work::rate, the
  // resource that froze each flow in Work::bottleneck and every bottleneck
  // that froze a flow, with its share, in task.picks; no flow is written.
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
  task.picks.clear();
  for (ResourceId r : task.comp_res) {
    double weight = 0;
    for (Slot s : flows_at_[r]) weight += flows[s].weight;
    headroom[r] = resources_[r].capacity;
    unfrozen[r] = weight;
    if (weight > 0) heap.emplace_back(headroom[r] / weight, r);
  }
  for (ResourceId r : task.cut) unfrozen[r] = 0;
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
    // Every work flow crosses a comp_res resource carrying its weight, and
    // capacities and weights are finite and positive, so a finite
    // bottleneck always remains while a flow is unfrozen.
    LMP_CHECK(best_res != kNoResource &&
              best_share != std::numeric_limits<double>::infinity())
        << "unfrozen flows cross no finite bottleneck";

    // Freeze every unfrozen flow crossing the bottleneck at the fair share.
    // A flow listed twice (a repeated path hop) freezes at its first entry.
    const std::size_t frozen_before = frozen_count;
    for (Slot s : flows_at_[best_res]) {
      Work& w = work[work_idx[s]];
      if (w.bottleneck != kNoGroup) continue;  // already frozen
      const Flow& f = flows[s];
      const double rate = best_share * f.weight;
      w.rate = rate;
      w.bottleneck = best_res;
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
    if (frozen_count > frozen_before) {
      task.picks.emplace_back(best_res, best_share);
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
  // order — the order a full pass over all flows would add them in.  A cut
  // resource's index also holds flows left out of the solve, at the rates
  // they keep.
  for (const Work& w : task.work) flows_[w.slot].rate = w.rate;
  const auto resum = [this](ResourceId r) {
    double rate_sum = 0;
    for (Slot s : flows_at_[r]) rate_sum += flows_[s].rate;
    resources_[r].rate_sum = rate_sum;
  };
  for (ResourceId r : task.comp_res) resum(r);
  for (ResourceId r : task.cut) resum(r);
}

void FluidSimulator::RecomputeAll() {
  ++stats_.recompute_calls;
  ++stats_.full_solves;
  stats_.flows_touched += active_flows_;
  if (tasks_.empty()) tasks_.emplace_back();
  ShardTask& task = tasks_[0];  // scratch reuse; full solves never overlap
  // Resources no flow crosses join as cut: the fill skips them, and
  // ApplyRates sums their (empty) index to zero.
  task.comp_res.clear();
  task.cut.clear();
  for (ResourceId r = 0; r < resources_.size(); ++r) {
    (flows_at_[r].empty() ? task.cut : task.comp_res).push_back(r);
  }
  task.work.clear();
  for (Slot slot = 0; slot < flows_.size(); ++slot) {
    if (flows_[slot].id != kInvalidFlow) task.work.push_back(Work{slot});
  }
  ProgressiveFill(task, fill_);
  ApplyRates(task);
  UpdateGroups(task);
  for (ResourceId r : task.rekeyed) RequeueGroup(r);
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
  ++stats_.recompute_calls;
  // Two fresh stamps per solve: one for the cut walk, one for a fallback.
  solve_epoch_ += 2;

  // Partition the seeds into solver tasks.  A shard with zero cross-shard
  // flows is *closed*: every flow touching it lies entirely inside it, so
  // its connected components cannot extend past the shard boundary and its
  // walk + solve is independent of every other task.  Seeds in open shards
  // or on unsharded resources funnel into one sequential "spill" task;
  // spill components may span open shards but can never reach into a
  // closed one (any flow that could bridge them would have held the shard
  // open).  A new flow's hops all route to one task, so it goes to the
  // task of its first hop.  With no shards assigned, everything spills and
  // the solve is exactly the single-task pass.
  std::size_t num_tasks = 0;
  std::size_t spill = kNoTask;
  const auto open_task = [&]() -> std::size_t {
    const std::size_t i = num_tasks++;
    if (i == tasks_.size()) tasks_.emplace_back();
    tasks_[i].seeds.clear();
    tasks_[i].capacity_seeds.clear();
    tasks_[i].new_flows.clear();
    return i;
  };
  const auto task_index_for = [&](ResourceId r) -> std::size_t {
    const ShardId shard = resource_shard_[r];
    if (shard == kNoShard || shard_cross_flows_[shard] != 0) {
      if (spill == kNoTask) spill = open_task();
      return spill;
    }
    if (shard_task_epoch_[shard] != solve_epoch_) {
      shard_task_epoch_[shard] = solve_epoch_;
      shard_task_[shard] = open_task();
    }
    return shard_task_[shard];
  };
  if (shard_cross_flows_.empty()) {
    // Fast path: no shards assigned, single spill task.  SolvePending
    // clears the batch lists after the solve, so the task can take them.
    spill = open_task();
    std::swap(tasks_[spill].seeds, batch_seed_);
    std::swap(tasks_[spill].capacity_seeds, batch_capacity_);
    std::swap(tasks_[spill].new_flows, batch_new_);
  } else {
    for (ResourceId r : batch_seed_) {
      tasks_[task_index_for(r)].seeds.push_back(r);
    }
    for (ResourceId r : batch_capacity_) {
      tasks_[task_index_for(r)].capacity_seeds.push_back(r);
    }
    for (Slot slot : batch_new_) {
      tasks_[task_index_for(flows_[slot].path[0])].new_flows.push_back(slot);
    }
  }

  // Solve every task.  Tasks grow disjoint components and write disjoint
  // flows/resources, and each performs identical arithmetic in identical
  // order regardless of which thread runs it — results are byte-identical
  // for any thread count.  The shared epoch stamps (res_epoch_,
  // visit_epoch) are written at most once per walk per element, always by
  // the single task owning that element.
  stats_.shard_tasks += num_tasks;
  if (num_tasks > 1) ++stats_.parallel_solves;
  if (num_tasks > 1 && pool_ != nullptr) {
    pool_->Run(num_tasks, [this](std::size_t i) { SolveTask(tasks_[i]); });
  } else {
    for (std::size_t i = 0; i < num_tasks; ++i) SolveTask(tasks_[i]);
  }

  // Deterministic merge: aggregate stats and re-queue the tasks' groups in
  // task order (task order is a pure function of the seeds and the shard
  // map, never of the schedule).
  std::size_t touched = 0;
  for (std::size_t i = 0; i < num_tasks; ++i) {
    touched += tasks_[i].work.size();
    if (tasks_[i].fell_back) ++stats_.cut_fallbacks;
    for (ResourceId r : tasks_[i].rekeyed) RequeueGroup(r);
  }
  stats_.flows_touched += touched;
  if (touched == active_flows_) ++stats_.full_solves;

  if (crosscheck_) {
    CheckAgainstFullSolve();
    CheckGroups();
  }
}

void FluidSimulator::WalkComponent(ShardTask& task, std::uint64_t epoch,
                                   bool cut) {
  // Alternate crossed resource -> its crossing flows -> their paths until
  // closed.  Epoch stamps make the visited sets allocation-free and are safe
  // to share across concurrent tasks because their walks are disjoint.  A
  // resource is crossed or cut when first reached and never changes, so the
  // resources that must be crossed whatever their load go first: SetCapacity
  // targets, and every hop of a new flow that crosses no saturated resource
  // (a saturated hop is crossed anyway and brings the new flow in).
  task.comp_res.clear();
  task.cut.clear();
  task.work.clear();
  const auto add_res = [&](ResourceId r, bool cross) {
    if (res_epoch_[r] == epoch) return;
    res_epoch_[r] = epoch;
    if (!cut || cross || Saturated(r)) {
      task.comp_res.push_back(r);
    } else {
      task.cut.push_back(r);
    }
  };
  for (ResourceId r : task.capacity_seeds) add_res(r, true);
  for (Slot slot : task.new_flows) {
    const Path& path = flows_[slot].path;
    const bool joins_saturated =
        cut && std::any_of(path.begin(), path.end(),
                           [this](ResourceId r) { return Saturated(r); });
    for (ResourceId r : path) {
      if (!joins_saturated || Saturated(r)) add_res(r, true);
    }
  }
  for (ResourceId r : task.seeds) add_res(r, false);
  for (std::size_t i = 0; i < task.comp_res.size(); ++i) {
    for (Slot s : flows_at_[task.comp_res[i]]) {
      Flow& f = flows_[s];
      if (f.visit_epoch == epoch) continue;
      f.visit_epoch = epoch;
      task.work.push_back(Work{s});
      for (ResourceId r : f.path) add_res(r, false);
    }
  }
}

void FluidSimulator::SolveTask(ShardTask& task) {
  // The cut walk, stamped solve_epoch_ - 1; the classic component walk, if
  // a cut resource ends saturated, stamped solve_epoch_.  The fallback's
  // fill rewrites every rate and rate_sum the cut solve wrote.
  task.fell_back = false;
  WalkComponent(task, solve_epoch_ - 1, /*cut=*/true);
  ProgressiveFill(task, fill_);
  ApplyRates(task);
  if (std::any_of(task.cut.begin(), task.cut.end(),
                  [this](ResourceId r) { return Saturated(r); })) {
    task.fell_back = true;
    WalkComponent(task, solve_epoch_, /*cut=*/false);
    ProgressiveFill(task, fill_);
    ApplyRates(task);
  }
  UpdateGroups(task);
}

void FluidSimulator::CheckAgainstFullSolve() const {
  // Reference full pass over private scratch (the simulator state is
  // untouched), compared bit-exactly against the rates the incremental
  // solve left behind.  Runs the same ProgressiveFill core as production —
  // the parity being checked is component decomposition, not arithmetic.
  // Debug/test-only: allocates.
  ShardTask task;
  for (Slot slot = 0; slot < flows_.size(); ++slot) {
    if (flows_[slot].id != kInvalidFlow) task.work.push_back(Work{slot});
  }
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
  // Each reference sum adds its resource's flows in id order (the index's
  // order), as a pass over the flows in id order would.
  for (std::size_t r = 0; r < resources_.size(); ++r) {
    double rate_sum = 0;
    for (Slot s : flows_at_[r]) rate_sum += task.work[fill.work_idx[s]].rate;
    LMP_CHECK(rate_sum == resources_[r].rate_sum)
        << "incremental solver diverged on rate_sum of resource " << r << ": "
        << resources_[r].rate_sum << " vs reference " << rate_sum;
  }
}

void FluidSimulator::CheckGroups() const {
  // Every active flow sits in the group of its bottleneck at the group's
  // share, bit for bit, and every heap is ordered and indexed right.
  std::size_t members = 0;
  for (ResourceId r = 0; r < groups_.size(); ++r) {
    if (groups_[r] == nullptr) continue;
    const Group& g = *groups_[r];
    members += g.members.size();
    for (std::size_t i = 0; i < g.members.size(); ++i) {
      const Flow& f = flows_[g.members[i].slot];
      LMP_CHECK(f.id != kInvalidFlow && f.group == r && f.member_pos == i)
          << "group " << r << " holds a stray member";
      LMP_CHECK(g.min_weight <= f.weight)
          << "group " << r << " understates its least weight";
      LMP_CHECK(f.rate == g.share * f.weight)
          << "flow " << f.id << " rate " << f.rate << " is not its group's "
          << "share " << g.share << " x weight " << f.weight;
      LMP_CHECK(i == 0 ||
                g.members[(i - 1) / 2].v_finish <= g.members[i].v_finish)
          << "group " << r << " member heap out of order";
    }
    const bool queued = g.heap_pos != kNotQueued;
    LMP_CHECK(queued != g.members.empty() &&
              (!queued || (group_heap_[g.heap_pos].group == r &&
                           group_heap_[g.heap_pos].due == g.due)))
        << "group " << r << " is queued wrong";
  }
  LMP_CHECK(members == active_flows_ && group_heap_.size() <= groups_.size())
      << members << " group members for " << active_flows_ << " active flows";
}

void FluidSimulator::SettleServed(ResourceId r) {
  Resource& res = resources_[r];
  if (res.rate_sum == res.served_rate) return;
  res.bytes_served += res.served_rate * ((now_ - res.served_at) / kNsPerSec);
  res.served_at = now_;
  res.served_rate = res.rate_sum;
}

double FluidSimulator::VirtualTime(const Group& g) const {
  return g.v0 + g.share * ((now_ - g.t0) / kNsPerSec);
}

SimTime FluidSimulator::FinishTime(const Group& g, double v) const {
  return g.share > 0 ? g.t0 + (v - g.v0) / g.share * kNsPerSec : kNever;
}

void FluidSimulator::PushMember(Group& g, Member m) {
  g.min_weight = std::min(g.min_weight, flows_[m.slot].weight);
  g.members.push_back(m);
  SiftUp(g.members, g.members.size() - 1, kEarlierFinish, MemberPlacer());
}

void FluidSimulator::EraseMember(Group& g, std::uint32_t pos) {
  HeapErase(g.members, pos, kEarlierFinish, MemberPlacer());
  if (g.members.empty()) g.min_weight = std::numeric_limits<double>::infinity();
}

void FluidSimulator::RekeyGroup(Group& g) {
  if (g.members.empty()) {
    g.finish = g.due = kNever;
    return;
  }
  const double v = g.members.front().v_finish;
  g.finish = FinishTime(g, v);
  g.due = FinishTime(g, v - kByteEpsilon / g.min_weight);
}

void FluidSimulator::UpdateGroups(ShardTask& task) {
  // Byte counters accrue at the rate sum that ran until now.
  for (ResourceId r : task.comp_res) SettleServed(r);
  for (ResourceId r : task.cut) SettleServed(r);

  // fill_.touched is all zero after a fill; it marks task.rekeyed here.
  std::uint8_t* const marked = fill_.touched.data();
  task.rekeyed.clear();
  const auto mark = [&](ResourceId r) {
    if (marked[r] == 0) {
      marked[r] = 1;
      task.rekeyed.push_back(r);
    }
  };
  // Each bottleneck takes the share the fill froze its flows at.  A group
  // re-anchors its clock at now_ only when the share changes, which leaves
  // its reading at now_ as it was, or when it holds no flow, restarting
  // from zero; so a solve that leaves a share bit-equal leaves every
  // member's finish time exactly as it was.  A resource gets its group the
  // first time it is a bottleneck.
  for (const auto& [r, share] : task.picks) {
    if (groups_[r] == nullptr) groups_[r] = std::make_unique<Group>();
    Group& g = *groups_[r];
    if (!g.members.empty() && share == g.share) continue;
    g.v0 = g.members.empty() ? 0 : VirtualTime(g);
    g.t0 = now_;
    g.share = share;
    mark(r);
  }
  // A flow whose bottleneck changed moves to its new group with the bytes
  // its old group's clock leaves it (a flow not yet rated, its size).
  for (const Work& w : task.work) {
    Flow& f = flows_[w.slot];
    if (f.group == w.bottleneck) continue;
    double remaining = 0;
    if (f.group == kNoGroup) {
      remaining = FindEntry(f.id)->rec.bytes;
    } else {
      Group& old = *groups_[f.group];
      remaining =
          (old.members[f.member_pos].v_finish - VirtualTime(old)) * f.weight;
      EraseMember(old, f.member_pos);
      mark(f.group);
    }
    f.group = w.bottleneck;
    Group& g = *groups_[f.group];
    PushMember(g, Member{VirtualTime(g) + remaining / f.weight, w.slot});
    mark(f.group);
  }
  for (ResourceId r : task.rekeyed) {
    marked[r] = 0;
    RekeyGroup(*groups_[r]);
  }
}

void FluidSimulator::RequeueGroup(ResourceId r) {
  const auto before = [](const QueuedGroup& a, const QueuedGroup& b) {
    return a.due < b.due || (a.due == b.due && a.group < b.group);
  };
  const auto place = [this](const QueuedGroup& q, std::size_t i) {
    groups_[q.group]->heap_pos = static_cast<std::uint32_t>(i);
  };
  Group& g = *groups_[r];
  if (g.heap_pos == kNotQueued) {
    if (g.members.empty()) return;
    group_heap_.push_back(QueuedGroup{g.due, r});
    SiftUp(group_heap_, group_heap_.size() - 1, before, place);
  } else if (g.members.empty()) {
    const std::uint32_t pos = g.heap_pos;
    g.heap_pos = kNotQueued;
    HeapErase(group_heap_, pos, before, place);
  } else {
    group_heap_[g.heap_pos].due = g.due;
    Resift(group_heap_, g.heap_pos, before, place);
  }
}

void FluidSimulator::AdvanceTo(SimTime t) {
  assert(t + kTimeEpsilon >= now_);
  if (t > now_) FoldUtilization(t - now_);
  now_ = t;
}

bool FluidSimulator::Step() {
  LMP_CHECK(!in_batch_) << "Step inside an open flow batch";
  // A Step entered from a callback first settles what the callback left.
  SolvePending();
  // The next completion is the earliest group finish, never before now_ (a
  // finish read off a clock can round a hair below it).
  const SimTime completion = std::max(NextFinish(), now_);
  PopStaleTimers();
  const SimTime timer = timers_.empty() ? kNever : timers_.front().when;
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
  CompleteAt(completion);
  return true;
}

SimTime FluidSimulator::NextFinish() {
  // A group finishes no earlier than it is due, and keys only grow down the
  // heap, so only entries due before the best finish found so far can hold
  // an earlier one: the walk visits the few groups due first.
  SimTime best = kNever;
  WalkHeap(group_heap_.size(), heap_walk_, [&](std::uint32_t i) {
    if (group_heap_[i].due >= best) return false;
    best = std::min(best, groups_[group_heap_[i].group]->finish);
    return true;
  });
  return best;
}

void FluidSimulator::CompleteAt(SimTime t) {
  // The event retires every flow whose finish lies within the tie window of
  // min_dt, the time to the earliest finish, and every flow it leaves
  // within kByteEpsilon bytes of done.  Working in durations and
  // force-completing the event-defining flows (the window always holds
  // them) guarantees progress even when now_ is large enough that
  // absolute-time rounding would otherwise strand sub-epsilon residues (a
  // Zeno deadlock).  Each such flow sits in a group due by the window's
  // edge; the walks below visit only those groups, and in each only the
  // members that may qualify (both tests are monotone in v_finish).
  assert(t >= now_);
  const SimTime min_dt = t - now_;
  const SimTime tie_limit = min_dt + (min_dt * 1e-9 + kTimeEpsilon);
  due_groups_.clear();
  WalkHeap(group_heap_.size(), heap_walk_, [&](std::uint32_t i) {
    if (group_heap_[i].due - now_ > tie_limit) return false;
    due_groups_.push_back(group_heap_[i].group);
    return true;
  });
  retiring_.clear();
  for (const ResourceId r : due_groups_) {
    Group& g = *groups_[r];
    // The clock's reading at t: what it leaves each member to go.
    const double v_at_t = g.v0 + g.share * ((t - g.t0) / kNsPerSec);
    const double v_slack = kByteEpsilon / g.min_weight;
    const std::size_t first = retiring_.size();
    WalkHeap(g.members.size(), heap_walk_, [&](std::uint32_t i) {
      const Member& m = g.members[i];
      const bool tied = FinishTime(g, m.v_finish) - now_ <= tie_limit;
      if (!tied && m.v_finish - v_at_t > v_slack) return false;
      const Flow& f = flows_[m.slot];
      const double residue = (m.v_finish - v_at_t) * f.weight;
      if (tied || residue <= kByteEpsilon) {
        retiring_.push_back(Retired{f.id, m.slot, residue});
      }
      return true;
    });
    if (retiring_.size() == first) continue;
    if (retiring_.size() - first == g.members.size()) {
      g.members.clear();
      g.min_weight = std::numeric_limits<double>::infinity();
    } else {
      for (std::size_t k = first; k < retiring_.size(); ++k) {
        EraseMember(g, flows_[retiring_[k].slot].member_pos);
      }
    }
    RekeyGroup(g);
    RequeueGroup(r);
  }
  if (min_dt > 0) FoldUtilization(min_dt);
  now_ = t;

  // Retire in id order, crediting each flow's residue to its hops: the
  // byte counters accrued the flow's rate up to t, so the residue (what
  // the tie window or kByteEpsilon let it leave undone, about nothing for
  // the event-defining flow) makes the flow's total on every hop its size.
  const auto by_id = [](const Retired& a, const Retired& b) {
    return a.id < b.id;
  };
  if (!std::is_sorted(retiring_.begin(), retiring_.end(), by_id)) {
    std::sort(retiring_.begin(), retiring_.end(), by_id);
  }
  auto done = std::move(done_scratch_);
  done.clear();
  for (const Retired& d : retiring_) {
    Flow& f = flows_[d.slot];
    for (ResourceId r : f.path) resources_[r].bytes_served += d.residue;
    FinishRecord(d.id);
    done.emplace_back(d.id, std::move(f.on_done));
    batch_seed_.insert(batch_seed_.end(), f.path.begin(), f.path.end());
    UnindexFlow(f.id, f.path);
    f.id = kInvalidFlow;
    f.group = kNoGroup;
    free_slots_.push_back(d.slot);  // reused only by a later StartFlow
    --active_flows_;
  }

  // Callbacks may start new flows; those and the retired flows' components
  // are solved once, after every callback.
  const bool outer_deferring = deferring_;
  deferring_ = true;
  for (auto& [id, cb] : done) {
    if (cb) cb(id, now_);
    if (retention_ == RecordRetention::kDropCompleted) DropRecord(id);
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

const FlowRecord* FluidSimulator::record(FlowId id) const {
  return FindRecord(id);
}

Status FluidSimulator::ReleaseRecord(FlowId id) {
  const FlowRecord* rec = FindRecord(id);
  if (rec == nullptr) return NotFoundError("no record for flow");
  if (!rec->done) return FailedPreconditionError("flow is still active");
  DropRecord(id);
  return Status::Ok();
}

double FluidSimulator::FlowRate(FlowId id) {
  SolvePending();
  const RecordEntry* e = FindEntry(id);
  return e != nullptr && !e->rec.done ? flows_[e->slot].rate : 0.0;
}

double FluidSimulator::BytesServed(ResourceId id) const {
  assert(id < resources_.size());
  const Resource& r = resources_[id];
  return r.bytes_served + r.served_rate * ((now_ - r.served_at) / kNsPerSec);
}

double FluidSimulator::FairShare(const Path& path) const {
  LMP_CHECK(!path.empty()) << "fair share of an empty path";
  double share = std::numeric_limits<double>::infinity();
  for (ResourceId r : path) {
    assert(r < resources_.size());
    share = std::min(share, resources_[r].capacity /
                                static_cast<double>(flows_at_[r].size() + 1));
  }
  return share;
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
  registry.Increment("fluid.solver.cut_fallbacks",
                     stats_.cut_fallbacks - exported_.cut_fallbacks);
  // Wall clock, not sim time: the wall. namespace keeps it out of the
  // byte-deterministic metrics JSON.
  registry.Increment("wall.fluid.solver.solve_ns",
                     stats_.solve_ns - exported_.solve_ns);
  exported_ = stats_;
}

}  // namespace lmp::sim
