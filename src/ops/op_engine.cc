#include "ops/op_engine.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.h"

namespace lmp::ops {

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kGet:
      return "get";
    case OpKind::kPut:
      return "put";
    case OpKind::kScan:
      return "scan";
    case OpKind::kOther:
      break;
  }
  return "op";
}

OpEngine::OpEngine(sim::FluidSimulator* sim, fabric::Topology* topology,
                   core::PoolManager* manager, Options options)
    : sim_(sim),
      topology_(topology),
      manager_(manager),
      options_(std::move(options)),
      metrics_(options_.metrics != nullptr ? options_.metrics
                                           : &MetricsRegistry::Global()) {
  LMP_CHECK(sim_ != nullptr && topology_ != nullptr && manager_ != nullptr);
  LMP_CHECK(!topology_->has_pool() && !manager_->cluster().has_pool())
      << "ops run on logical pools only (no pool box)";
  // LinkProfile::min_latency_ns is the unloaded round-trip read latency —
  // exactly the cost of one coherent-region CAS round trip.
  lock_rtt_ = topology_->link().min_latency_ns;
  LMP_CHECK(lock_rtt_ > 0) << "lock round trip must cost sim time";
  const int cores = topology_->machine().cores_per_server;
  slots_.resize(static_cast<std::size_t>(topology_->num_servers()) *
                static_cast<std::size_t>(cores));
}

OpId OpEngine::Submit(OpKind kind, cluster::ServerId server, int core,
                      Step first, OpState* state) {
  LMP_CHECK(static_cast<int>(server) < topology_->num_servers() && core >= 0 &&
            core < topology_->machine().cores_per_server)
      << "op issued from an unknown (server, core)";
  const OpId id = next_id_;
  if (id - oldest_ >= by_id_.size()) {
    // The ring is full: double it, re-placing every id still covered.
    std::vector<Op*> grown(std::max<std::size_t>(64, 2 * by_id_.size()));
    for (OpId i = oldest_; i < id; ++i) {
      grown[i & (grown.size() - 1)] = by_id_[i & (by_id_.size() - 1)];
    }
    by_id_ = std::move(grown);
  }
  ++next_id_;
  if (free_ops_.empty()) {
    ops_.push_back(std::make_unique<Op>());
    free_ops_.push_back(ops_.back().get());
  }
  Op& op = *free_ops_.back();
  free_ops_.pop_back();
  by_id_[id & (by_id_.size() - 1)] = &op;
  ++in_flight_;
  op.id_ = id;
  op.kind_ = kind;
  op.server_ = server;
  op.core_ = core;
  op.submit_time_ = sim_->now();
  op.state_ = state;
  op.timer_next_ = std::move(first);
  // The first step is deferred like every later one, so Submit may be
  // called from anywhere (harness code, completion hooks, other steps)
  // without re-entering the engine.
  sim_->ScheduleAt(sim_->now(), [this, id](SimTime) { RunTimerStep(id); });
  return id;
}

OpEngine::Op* OpEngine::Find(OpId id) {
  if (id < oldest_ || id >= next_id_) return nullptr;
  return by_id_[id & (by_id_.size() - 1)];
}

OpEngine::Op& OpEngine::Get(OpId id) {
  Op* op = Find(id);
  LMP_CHECK(op != nullptr) << "op " << id << " is not in flight";
  return *op;
}

void OpEngine::Retire(Op& op) {
  by_id_[op.id_ & (by_id_.size() - 1)] = nullptr;
  while (oldest_ < next_id_ &&
         by_id_[oldest_ & (by_id_.size() - 1)] == nullptr) {
    ++oldest_;
  }
  --in_flight_;
  // Cleared now, so the op's parked steps (and what they capture) die with
  // it; held_ keeps its capacity for the next op.
  std::vector<core::DistributedLock*> held = std::move(op.held_);
  held.clear();
  op = Op();
  op.held_ = std::move(held);
  free_ops_.push_back(&op);
}

void OpEngine::RunTimerStep(OpId id) {
  Op* found = Find(id);
  if (found == nullptr) return;  // op finished out from under the timer
  Op& op = *found;
  // Moved out first: the step may park another Delay on `op`.
  Step next = std::move(op.timer_next_);
  op.timer_next_ = nullptr;
  next(op);
}

void OpEngine::Count(std::uint64_t*& counter, const char* suffix,
                     std::uint64_t delta) {
  if (counter == nullptr) {
    counter = &metrics().GetCounter(options_.metrics_prefix + suffix);
  }
  *counter += delta;
}

void OpEngine::IssueAccess(Op& op, core::BufferId buffer, Bytes offset,
                           Bytes len, Step next) {
  LMP_CHECK(!op.access_next_) << "one access at a time per op";
  const OpId id = op.id_;
  // Resolve every span before pricing any: a lost segment fails the op
  // before a loaded-latency read settles a utilization average.
  spans_.clear();
  const Status resolved = manager_->ForEachSpan(
      buffer, offset, len,
      [this](const core::LocatedSpan& span) { spans_.push_back(span); });
  if (!resolved.ok()) {
    // The access cannot be priced (segment lost in a crash, stale buffer).
    // Fail the op from the timer wheel so the calling step unwinds first.
    sim_->ScheduleAt(sim_->now(), [this, id, status = resolved](SimTime) {
      if (Op* failing = Find(id)) Finish(*failing, status);
    });
    return;
  }

  const auto src = static_cast<fabric::ServerIndex>(op.server_);
  SimTime propagation = 0;
  SimTime serialization = 0;
  for (const core::LocatedSpan& ls : spans_) {
    const auto home = static_cast<fabric::ServerIndex>(ls.location.server);
    propagation += home == src ? topology_->LocalLoadedLatency(src)
                               : topology_->RemoteLoadedLatency(src, home);
    serialization += static_cast<double>(ls.bytes) /
                     sim_->FairShare(topology_->Route(src, op.core_, home)) *
                     kNsPerSec;
  }

  ++op.hops_;
  Count(hops_counter_, ".hops");
  op.propagation_ += propagation;
  op.serialization_ += serialization;
  op.access_cost_ = propagation + serialization;
  op.access_next_ = std::move(next);
  CoreSlots& slots = SlotsOf(op);
  if (slots.free > 0) {
    --slots.free;
    StartAccess(op, 0);
  } else {
    slots.waiting.emplace_back(id, sim_->now());
  }
}

void OpEngine::StartAccess(Op& op, SimTime wait) {
  op.slot_wait_ += wait;
  sim_->ScheduleAfter(op.access_cost_,
                      [this, id = op.id_](SimTime) { EndAccess(id); });
}

void OpEngine::EndAccess(OpId id) {
  Op& op = Get(id);  // an op with an access in flight never finishes
  CoreSlots& slots = SlotsOf(op);
  if (!slots.waiting.empty()) {
    const auto [waiter, since] = slots.waiting.front();
    slots.waiting.pop_front();
    StartAccess(Get(waiter), sim_->now() - since);
  } else {
    ++slots.free;
  }
  // Moved out first: the continuation may issue the op's next access.
  Step next = std::move(op.access_next_);
  op.access_next_ = nullptr;
  next(op);
}

OpEngine::CoreSlots& OpEngine::SlotsOf(const Op& op) {
  return slots_[static_cast<std::size_t>(op.server_) *
                    static_cast<std::size_t>(
                        topology_->machine().cores_per_server) +
                static_cast<std::size_t>(op.core_)];
}

void OpEngine::Read(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
                    Step next) {
  IssueAccess(op, buffer, offset, len, std::move(next));
}

void OpEngine::Write(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
                     Step next) {
  IssueAccess(op, buffer, offset, len, std::move(next));
}

void OpEngine::Acquire(Op& op, core::DistributedLock* lock, Step next) {
  LMP_CHECK(lock != nullptr);
  LMP_CHECK(op.lock_ == nullptr) << "one Acquire at a time per op";
  op.lock_ = lock;
  op.lock_next_ = std::move(next);
  // The first attempt also pays a full round trip: the CAS must reach the
  // coherent region's directory before anyone learns it succeeded.
  sim_->ScheduleAfter(lock_rtt_,
                      [this, id = op.id_](SimTime) { AttemptLock(id); });
}

void OpEngine::AttemptLock(OpId id) {
  Op* found = Find(id);
  if (found == nullptr) return;
  Op& op = *found;
  const int host = static_cast<int>(op.server_);
  auto held_or = op.lock_->TryLock(host);
  if (!held_or.ok()) {
    Finish(op, held_or.status());
    return;
  }
  if (*held_or) {
    EnterLock(op, 0);
    return;
  }
  // Held: queue behind the holder.  The hand-off wakes the op; until then
  // only the wedge deadline is scheduled.
  op.lock_wait_start_ = sim_->now();
  op.lock_ticket_ = op.lock_->Enqueue(host, [this, id] { OnLockGranted(id); });
  op.lock_deadline_ = sim_->ScheduleAfter(
      options_.max_lock_spins * lock_rtt_,
      [this, id](SimTime) { OnLockDeadline(id); });
}

void OpEngine::OnLockGranted(OpId id) {
  Op& op = Get(id);  // Finish takes a queued op out of the queue
  op.lock_ticket_ = 0;
  sim_->CancelTimer(op.lock_deadline_);
  // The hand-off reaches the waiter one round trip after the release.
  sim_->ScheduleAfter(lock_rtt_, [this, id](SimTime) {
    Op& granted = Get(id);  // nothing else drives a parked op
    EnterLock(granted, sim_->now() - granted.lock_wait_start_);
  });
}

void OpEngine::OnLockDeadline(OpId id) {
  Op& op = Get(id);  // granting or finishing cancels the deadline
  RecordLockWait(options_.max_lock_spins, sim_->now() - op.lock_wait_start_);
  op.lock_spins_ += options_.max_lock_spins;
  Finish(op, UnavailableError("lock held past max_lock_spins"));
}

void OpEngine::EnterLock(Op& op, SimTime wait) {
  // Whole round trips waited; the epsilon absorbs rounding in `wait`.
  const int spins = static_cast<int>(std::floor(wait / lock_rtt_ + 1e-6));
  op.lock_spins_ += spins;
  RecordLockWait(spins, wait);
  op.held_.push_back(op.lock_);
  // Moved out first: the continuation may park another Acquire on `op`.
  op.lock_ = nullptr;
  Step next = std::move(op.lock_next_);
  next(op);
}

void OpEngine::RecordLockWait(int spins, SimTime wait) {
  if (spins > 0) {
    Count(lock_spins_counter_, ".lock_spins",
          static_cast<std::uint64_t>(spins));
  }
  if (lock_wait_hist_ == nullptr) {
    lock_wait_hist_ =
        &metrics().GetHistogram(options_.metrics_prefix + ".lock_wait_ns");
  }
  lock_wait_hist_->Record(static_cast<std::uint64_t>(wait));
}

void OpEngine::Release(Op& op, core::DistributedLock* lock, Step next) {
  LMP_CHECK(lock != nullptr);
  const Status st = lock->Unlock(static_cast<int>(op.server_));
  if (!st.ok()) {
    Finish(op, st);
    return;
  }
  std::erase(op.held_, lock);
  Delay(op, lock_rtt_, std::move(next));
}

void OpEngine::Delay(Op& op, SimTime delay, Step next) {
  LMP_CHECK(!op.timer_next_) << "one Delay at a time per op";
  op.timer_next_ = std::move(next);
  sim_->ScheduleAfter(delay,
                      [this, id = op.id_](SimTime) { RunTimerStep(id); });
}

void OpEngine::Finish(Op& op, Status status) {
  LMP_CHECK(!op.access_next_) << "op finished with an access in flight";
  if (op.lock_ticket_ != 0) {
    op.lock_->Leave(op.lock_ticket_);
    sim_->CancelTimer(op.lock_deadline_);
  }
  // Dropped without a priced round trip (the op is dying), but handed off
  // like a Release, so no waiter is stranded.
  for (core::DistributedLock* lock : op.held_) {
    (void)lock->Unlock(static_cast<int>(op.server_));
  }
  OpResult result;
  result.id = op.id_;
  result.kind = op.kind_;
  result.status = status;
  result.submit_time = op.submit_time_;
  result.finish_time = sim_->now();
  result.hops = op.hops_;
  result.lock_spins = op.lock_spins_;
  const SimTime breakdown[3] = {op.propagation_, op.serialization_,
                                op.slot_wait_};
  OpState* state = op.state_;
  Retire(op);  // `op` is dead past this line
  // Before the hook: an op the hook submits may reuse the record.
  if (state != nullptr) state->Release();

  ++completed_;
  Count(completed_counter_, ".completed");
  if (!status.ok()) {
    ++failed_;
    Count(errors_counter_, ".errors");
  } else {
    const auto kind_idx = static_cast<std::size_t>(result.kind);
    if (latency_hist_[kind_idx] == nullptr) {
      latency_hist_[kind_idx] = &metrics().GetHistogram(
          options_.metrics_prefix + "." + OpKindName(result.kind));
    }
    latency_hist_[kind_idx]->Record(
        static_cast<std::uint64_t>(result.finish_time - result.submit_time));
    static constexpr const char* kComponents[3] = {
        ".propagation", ".serialization", ".slot_wait"};
    for (int c = 0; c < 3; ++c) {
      Histogram*& hist = breakdown_hist_[kind_idx][c];
      if (hist == nullptr) {
        hist = &metrics().GetHistogram(options_.metrics_prefix + "." +
                                       OpKindName(result.kind) +
                                       kComponents[c]);
      }
      hist->Record(static_cast<std::uint64_t>(breakdown[c]));
    }
  }
  if (on_complete_) on_complete_(result);
}

StatusOr<std::uint64_t> OpEngine::Drain() {
  std::uint64_t steps = 0;
  while (in_flight_ > 0 && sim_->Step()) ++steps;
  if (in_flight_ > 0) {
    return InternalError("op engine drained with " +
                         std::to_string(in_flight_) +
                         " ops still in flight");
  }
  return steps;
}

}  // namespace lmp::ops
