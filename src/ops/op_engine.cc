#include "ops/op_engine.h"

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
                                           : &MetricsRegistry::Global()),
      hops_name_(options_.metrics_prefix + ".hops"),
      lock_spins_name_(options_.metrics_prefix + ".lock_spins"),
      completed_name_(options_.metrics_prefix + ".completed"),
      errors_name_(options_.metrics_prefix + ".errors"),
      lock_wait_name_(options_.metrics_prefix + ".lock_wait_ns") {
  LMP_CHECK(sim_ != nullptr && topology_ != nullptr && manager_ != nullptr);
  // LinkProfile::min_latency_ns is the unloaded round-trip read latency —
  // exactly the cost of one coherent-region CAS round trip.
  lock_rtt_ = options_.lock_rtt > 0 ? options_.lock_rtt
                                    : topology_->link().min_latency_ns;
  LMP_CHECK(lock_rtt_ > 0) << "lock round trip must cost sim time";
}

OpId OpEngine::Submit(OpKind kind, cluster::ServerId server, int core,
                      Step first) {
  const OpId id = next_id_++;
  Op& op = pending_[id];
  op.id_ = id;
  op.kind_ = kind;
  op.server_ = server;
  op.core_ = core;
  op.submit_time_ = sim_->now();
  // The first step is deferred like every later one, so Submit may be
  // called from anywhere (harness code, completion hooks, other steps)
  // without re-entering the engine.
  sim_->ScheduleAt(sim_->now(), [this, id, step = std::move(first)](SimTime) {
    RunStep(id, step);
  });
  return id;
}

void OpEngine::RunStep(OpId id, const Step& step) {
  auto it = pending_.find(id);
  if (it == pending_.end()) return;  // op finished out from under the timer
  step(it->second);
}

void OpEngine::IssueAccess(Op& op, core::BufferId buffer, Bytes offset,
                           Bytes len, double weight, Step next) {
  const OpId id = op.id_;
  auto spans_or = manager_->Spans(buffer, offset, len);
  if (!spans_or.ok()) {
    // The access cannot be priced (segment lost in a crash, stale buffer).
    // Fail the op from the timer wheel so the calling step unwinds first.
    sim_->ScheduleAt(sim_->now(),
                     [this, id, status = spans_or.status()](SimTime) {
                       auto it = pending_.find(id);
                       if (it != pending_.end()) Finish(it->second, status);
                     });
    return;
  }

  const auto src = static_cast<fabric::ServerIndex>(op.server_);
  std::vector<sim::Span> chain;
  chain.reserve(spans_or->size());
  // Bandwidth rides the fluid solver (the span chain below); propagation
  // rides the topology's loaded-latency model, summed per span and applied
  // as a timed delay after the stream drains.  Without it, small accesses
  // under light load price identically wherever the segment is homed — the
  // whole point of a local-fraction lever is that they must not.
  SimTime propagation = 0;
  for (const core::LocatedSpan& ls : *spans_or) {
    std::vector<sim::ResourceId> path;
    if (ls.location.is_pool()) {
      path = topology_->PoolPath(src, op.core_);
      propagation += topology_->PoolLoadedLatency(src);
    } else if (static_cast<fabric::ServerIndex>(ls.location.server) == src) {
      path = topology_->LocalPath(src, op.core_);
      propagation += topology_->LocalLoadedLatency(src);
    } else {
      const auto dst = static_cast<fabric::ServerIndex>(ls.location.server);
      path = topology_->RemotePath(src, op.core_, dst);
      propagation += topology_->RemoteLoadedLatency(src, dst);
    }
    chain.push_back(sim::Span{static_cast<double>(ls.bytes), std::move(path),
                              weight});
  }

  ++op.hops_;
  metrics().Increment(hops_name_);
  auto stream = std::make_unique<sim::SpanStream>(sim_, std::move(chain));
  stream->set_on_complete(
      [this, id, propagation, step = std::move(next)](sim::SpanStream&) {
        sim_->ScheduleAt(sim_->now() + propagation,
                         [this, id, step](SimTime) { RunStep(id, step); });
      });
  // Replacing the previous stream destroys it; its completion timer (the
  // one that delivered the step now issuing this access) has already fired.
  op.stream_ = std::move(stream);
  op.stream_->Start();
}

void OpEngine::Read(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
                    Step next) {
  IssueAccess(op, buffer, offset, len, /*weight=*/1.0, std::move(next));
}

void OpEngine::Write(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
                     Step next) {
  IssueAccess(op, buffer, offset, len, /*weight=*/1.0, std::move(next));
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
  auto it = pending_.find(id);
  if (it == pending_.end()) return;
  Op& op = it->second;
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
  Op& op = pending_.at(id);  // Finish takes a queued op out of the queue
  op.lock_ticket_ = 0;
  sim_->CancelTimer(op.lock_deadline_);
  // The hand-off reaches the waiter one round trip after the release.
  sim_->ScheduleAfter(lock_rtt_, [this, id](SimTime) {
    Op& granted = pending_.at(id);  // nothing else drives a parked op
    EnterLock(granted, sim_->now() - granted.lock_wait_start_);
  });
}

void OpEngine::OnLockDeadline(OpId id) {
  Op& op = pending_.at(id);  // granting or finishing cancels the deadline
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
    metrics().Increment(lock_spins_name_, static_cast<std::uint64_t>(spins));
  }
  if (lock_wait_hist_ == nullptr) {
    lock_wait_hist_ = &metrics().GetHistogram(lock_wait_name_);
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
  const OpId id = op.id_;
  sim_->ScheduleAfter(delay, [this, id, step = std::move(next)](SimTime) {
    RunStep(id, step);
  });
}

void OpEngine::Finish(Op& op, Status status) {
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
  pending_.erase(op.id_);  // `op` is dead past this line

  ++completed_;
  metrics().Increment(completed_name_);
  if (!status.ok()) {
    ++failed_;
    metrics().Increment(errors_name_);
  } else {
    const auto kind_idx = static_cast<std::size_t>(result.kind);
    if (latency_hist_[kind_idx] == nullptr) {
      latency_hist_[kind_idx] = &metrics().GetHistogram(
          options_.metrics_prefix + "." + OpKindName(result.kind));
    }
    latency_hist_[kind_idx]->Record(
        static_cast<std::uint64_t>(result.finish_time - result.submit_time));
  }
  if (on_complete_) on_complete_(result);
}

Status OpEngine::Drain() {
  while (!pending_.empty() && sim_->Step()) {
  }
  if (!pending_.empty()) {
    return InternalError("op engine drained with " +
                         std::to_string(pending_.size()) +
                         " ops still in flight");
  }
  return Status::Ok();
}

}  // namespace lmp::ops
