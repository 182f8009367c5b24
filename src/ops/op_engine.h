// OpEngine: a request-level asynchronous operation layer over the pool.
//
// The bandwidth benches drive the simulator with a handful of long streams;
// a production system is judged on what happens to millions of small
// *requests* — the p50/p99/p999 of individual gets, puts, and scans.  This
// is the layer §6's inherited RDMA applications (FaRM-style KV stores,
// distributed ordered indexes) run on: each in-flight operation is a
// lightweight state machine advanced only by simulator completions.  Every
// hop — a root→leaf pointer chase, a record read or write — is priced as a
// SpanStream over the fluid simulator's resource graph, resolved against
// the segment map at issue time; a lock round trip is a timed delay.
// There are no cached-node shortcuts: if a node is remote when the op
// reaches it, the op pays the remote path; if migration moved it since the
// previous hop, the op pays the new home.
//
// Shape (after the sst-elements async B+tree): ops live in a pending map,
// each step issues one priced access and parks a continuation, and the
// completion callback — always deferred through the simulator's timer
// wheel — runs the continuation, which issues the next step or finishes
// the op.  Finishing records the op's sim-time latency into the
// MetricsRegistry distribution "<prefix>.get|put|scan|op", which is where
// the percentile plumbing (bench sidecars, metrics JSON) picks it up.
//
// Locks: Acquire() prices its TryLock as one coherent-region round trip of
// simulated time.  An op that finds the lock held joins the lock's FIFO
// queue and schedules nothing but its wedged-peer deadline; the holder's
// Unlock hands the lock to the head waiter, whose continuation runs one
// round trip later.  So contention costs sim time and shows up in the op's
// latency, but a wait costs one event, not a poll per round trip.  A waiter
// still queued max_lock_spins round trips after its first attempt fails
// kUnavailable; a granted waiter's deadline timer is cancelled.  Each
// acquire records the sim time contention added to it — from the first
// attempt to the continuation, 0 for a free lock — into the distribution
// "<prefix>.lock_wait_ns".  The lock and its continuation park on the Op,
// so timers carry only the engine and the op id.  Finish hands any lock
// the op still holds to its next waiter and takes a queued op out of its
// queue, so no ending strands a waiter.
//
// Determinism: the engine takes decisions from simulation state only.  Op
// ids issue monotonically, continuations run in timer FIFO order, and the
// solver's thread count never changes event order — so latency histograms,
// series, and traces are byte-identical for any --threads= value.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/coherent_region.h"
#include "core/pool_manager.h"
#include "fabric/topology.h"
#include "sim/fluid.h"
#include "sim/stream.h"

namespace lmp::ops {

using OpId = std::uint64_t;

enum class OpKind : std::uint8_t { kGet, kPut, kScan, kOther };

const char* OpKindName(OpKind kind);

// Final accounting for one completed op.
struct OpResult {
  OpId id = 0;
  OpKind kind = OpKind::kOther;
  Status status;
  SimTime submit_time = 0;
  SimTime finish_time = 0;
  int hops = 0;        // priced accesses issued
  int lock_spins = 0;  // whole lock round trips spent waiting
};

class OpEngine {
 public:
  struct Options {
    // Sim time one coherent-region round trip costs (TryLock CAS, unlock
    // store).  0 derives it from the topology's link profile: the
    // unloaded remote round-trip latency.
    SimTime lock_rtt = 0;
    // The wedged-peer guard, in round trips of waiting: an Acquire() still
    // queued max_lock_spins * lock_rtt after its first attempt fails
    // kUnavailable with lock_spins == max_lock_spins.
    int max_lock_spins = 1000;
    // Distribution/counter namespace, "<prefix>.get" etc.
    std::string metrics_prefix = "ops";
    // Registry receiving latency distributions and op counters; null uses
    // the process-global registry.
    MetricsRegistry* metrics = nullptr;
  };

  class Op;
  // One state-machine step.  Steps run from simulator callbacks; they may
  // issue the op's next access, submit new ops, or finish the op.  After
  // Finish() the Op reference is dead — return without touching it.
  using Step = std::function<void(Op&)>;
  using CompletionHook = std::function<void(const OpResult&)>;

  // An in-flight operation: identity, issuing context, and accounting.
  // Workload state (current node, collected rows) lives in the step
  // closures, so the engine stays workload-agnostic.
  class Op {
   public:
    OpId id() const { return id_; }
    OpKind kind() const { return kind_; }
    cluster::ServerId server() const { return server_; }
    int core() const { return core_; }
    SimTime submit_time() const { return submit_time_; }
    int hops() const { return hops_; }
    int lock_spins() const { return lock_spins_; }

   private:
    friend class OpEngine;
    OpId id_ = 0;
    OpKind kind_ = OpKind::kOther;
    cluster::ServerId server_ = 0;
    int core_ = 0;
    SimTime submit_time_ = 0;
    int hops_ = 0;
    int lock_spins_ = 0;
    std::unique_ptr<sim::SpanStream> stream_;  // current priced access
    // Parked by Acquire until the lock is held; Finish destroys them.
    core::DistributedLock* lock_ = nullptr;
    Step lock_next_;
    // While queued on lock_ (ticket != 0): the wedge deadline, and when
    // the first attempt found the lock held.
    core::DistributedLock::Ticket lock_ticket_ = 0;
    sim::TimerHandle lock_deadline_;
    SimTime lock_wait_start_ = 0;
    // Locks held and not yet released; Finish hands them off.
    std::vector<core::DistributedLock*> held_;
  };

  // All pointers must outlive the engine.  The topology must have been
  // built inside `sim`, and the manager's segments must resolve onto it
  // (same deployment — baselines::LogicalDeployment wires exactly this).
  OpEngine(sim::FluidSimulator* sim, fabric::Topology* topology,
           core::PoolManager* manager, Options options);
  OpEngine(sim::FluidSimulator* sim, fabric::Topology* topology,
           core::PoolManager* manager)
      : OpEngine(sim, topology, manager, Options()) {}

  // Submission ---------------------------------------------------------------

  // Creates an op owned by (server, core) and schedules `first` through a
  // zero-delay timer (submission itself is never reentrant).  The op id is
  // returned immediately; the step runs when the simulator reaches it.
  OpId Submit(OpKind kind, cluster::ServerId server, int core, Step first);

  // Steps (called from inside a Step) --------------------------------------

  // Prices a read/write of [offset, offset+len) of `buffer` from the op's
  // (server, core): one sim::Span per located span — local DRAM path,
  // remote fabric path, or pool path, resolved at issue time — chained as
  // one SpanStream.  `next` runs when the last span completes.  The engine
  // prices only; the functional access (and its hotness accounting) is the
  // caller's, typically performed inside `next` at completion time.
  // Unresolvable spans (kDataLoss after a crash, unknown buffers) finish
  // the op with that status instead of running `next`.
  void Read(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
            Step next);
  void Write(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
             Step next);

  // Acquires `lock` for the op's server.  The first attempt costs one
  // lock_rtt of sim time; if the lock is held, the op queues (FIFO) and
  // runs one lock_rtt after the hand-off, with lock_spins the whole round
  // trips it waited.  Still queued max_lock_spins round trips after the
  // first attempt, it finishes kUnavailable.  `next` runs holding the
  // lock.  An op has at most one Acquire outstanding: a second one before
  // the first holds its lock is a checked error (`next` may itself call
  // Acquire).  The lock must outlive every op queued on it.
  void Acquire(Op& op, core::DistributedLock* lock, Step next);
  // Releases `lock`, handing it to its next waiter, and runs `next` one
  // round trip later.
  void Release(Op& op, core::DistributedLock* lock, Step next);

  // Pure sim-time delay (compute, client think time).
  void Delay(Op& op, SimTime delay, Step next);

  // Completes the op: leaves any lock queue, hands off locks it still holds
  // (no priced round trip), records its latency distribution and counters,
  // runs the completion hook, and destroys the Op.
  void Finish(Op& op, Status status = Status::Ok());

  // Introspection ------------------------------------------------------------

  std::size_t in_flight() const { return pending_.size(); }
  std::uint64_t submitted() const { return next_id_ - 1; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }

  // Runs the simulator until every submitted op has finished.  Closed-loop
  // drivers that resubmit from the completion hook drain naturally once
  // they stop.  Fails if the simulator goes idle with ops still parked
  // (a stuck state machine — means an engine or driver bug).
  Status Drain();

  // Fired after each op finishes (closed-loop drivers resubmit here; the
  // hook runs inside a timer callback, so submitting is safe).
  void set_on_complete(CompletionHook hook) { on_complete_ = std::move(hook); }

  SimTime lock_rtt() const { return lock_rtt_; }
  sim::FluidSimulator* simulator() { return sim_; }
  core::PoolManager* manager() { return manager_; }

 private:
  void IssueAccess(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
                   double weight, Step next);
  void AttemptLock(OpId id);
  // Runs inside the releaser's Unlock once `id` holds the lock.
  void OnLockGranted(OpId id);
  void OnLockDeadline(OpId id);
  // Runs the parked continuation with the lock held, `wait` after the
  // first attempt found it held (0 when it was free).
  void EnterLock(Op& op, SimTime wait);
  void RecordLockWait(int spins, SimTime wait);
  void RunStep(OpId id, const Step& step);
  MetricsRegistry& metrics() { return *metrics_; }

  sim::FluidSimulator* sim_;
  fabric::Topology* topology_;
  core::PoolManager* manager_;
  Options options_;
  SimTime lock_rtt_ = 0;
  MetricsRegistry* metrics_;
  // Node-based map: Op addresses stay stable while steps run.  Ops are
  // erased on Finish, so memory tracks in-flight — not total — requests.
  std::map<OpId, Op> pending_;
  OpId next_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  CompletionHook on_complete_;
  // Cached distribution instruments (one lookup per kind, not per op).
  Histogram* latency_hist_[4] = {nullptr, nullptr, nullptr, nullptr};
  Histogram* lock_wait_hist_ = nullptr;
  // Metric names, "<prefix>.hops" etc., built once.
  std::string hops_name_;
  std::string lock_spins_name_;
  std::string completed_name_;
  std::string errors_name_;
  std::string lock_wait_name_;
};

}  // namespace lmp::ops
