// OpEngine: a request-level asynchronous operation layer over the pool.
//
// The bandwidth benches drive the simulator with a handful of long streams;
// a production system is judged on what happens to millions of small
// *requests* — the p50/p99/p999 of individual gets, puts, and scans.  This
// is the layer §6's inherited RDMA applications (FaRM-style KV stores,
// distributed ordered indexes) run on: each in-flight operation is a
// lightweight state machine advanced only by simulator events.  Every hop
// — a root→leaf pointer chase, a record read or write — is resolved
// against the segment map at issue time and priced in closed form; a lock
// round trip is a timed delay.  There are no cached-node shortcuts: if a
// node is remote when the op reaches it, the op pays the remote path; if
// migration moved it since the previous hop, the op pays the new home.
//
// Pricing: an access costs, per located span, the path's loaded latency
// (Topology::{Local,Remote}LoadedLatency, read off the smoothed
// utilization that bulk flows drive) plus serialization, the span's bytes
// at the path's fair share (FluidSimulator::FairShare).  Accesses are not
// flows: they never enter the solver.  Instead each holds one of the
// issuing core's kMissSlotsPerCore outstanding-miss slots for its whole
// cost; with every slot taken it waits in the core's FIFO, and the access
// that frees a slot starts the head waiter in the same callback.  So an
// access is one timer event, queueing adds none, and what a core's
// outstanding ops contend for is its memory-level parallelism.  Each
// successful op records the three components summed over its hops into
// "<prefix>.<kind>.propagation", ".serialization" and ".slot_wait"; for an
// op that takes no lock they add up to its latency.
//
// Shape (after the sst-elements async B+tree): ops live in a pending table,
// each step issues one priced access and parks a continuation, and the
// completion callback — always deferred through the simulator's timer
// wheel — runs the continuation, which issues the next step or finishes
// the op.  Finishing records the op's sim-time latency into the
// MetricsRegistry distribution "<prefix>.get|put|scan|op", which is where
// the percentile plumbing (bench sidecars, metrics JSON) picks it up.
//
// Per-op records: the engine stays workload-agnostic, so what an op is
// doing (current node, key, collected rows) lives in an OpState record its
// driver attaches at Submit, and each step captures only the driver and
// that record — small enough that a Step never allocates.  Every parked
// step (Submit's first, Delay's, an access's, a lock's) sits on the Op, so
// timers carry only the engine and the op id.  The engine hands the record
// back (OpState::Release) when it destroys the op, whatever ended it: the
// driver's Finish, a segment lost at issue, a lock deadline.  It does so
// before the completion hook runs, so a hook that resubmits can reuse the
// record.  A step must not touch its record after calling Finish.
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
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/coherent_region.h"
#include "core/pool_manager.h"
#include "fabric/topology.h"
#include "sim/fluid.h"

namespace lmp::ops {

using OpId = std::uint64_t;

enum class OpKind : std::uint8_t { kGet, kPut, kScan, kOther };

const char* OpKindName(OpKind kind);

// Outstanding-miss slots per core: how many accesses one core keeps in
// flight; the rest wait FIFO.  The testbed core's L1D line-fill-buffer
// count (Skylake-SP: 10), one slot per access rather than per line
// (DESIGN.md §2).
inline constexpr int kMissSlotsPerCore = 10;

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
  // Finish() the Op reference — and the op's OpState — is dead: return
  // without touching either.
  using Step = std::function<void(Op&)>;
  using CompletionHook = std::function<void(const OpResult&)>;

  // A driver's per-op record (see the header comment).  Release() runs
  // once, as the engine destroys the op and before the completion hook.
  class OpState {
   public:
    virtual void Release() = 0;

   protected:
    ~OpState() = default;
  };

  // An in-flight operation: identity, issuing context, and accounting.
  // Workload state lives in the driver's OpState record, so the engine
  // stays workload-agnostic.
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
    // The driver's record, released as the op is destroyed (may be null).
    OpState* state_ = nullptr;
    // Parked by Submit and Delay until their timer fires.
    Step timer_next_;
    // The access in flight (access_next_ set until it completes) and its
    // closed-form cost.
    Step access_next_;
    SimTime access_cost_ = 0;
    // Latency components summed over the op's accesses.
    SimTime propagation_ = 0;
    SimTime serialization_ = 0;
    SimTime slot_wait_ = 0;
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
  // Ops run on logical pools only: a pool box in the topology or the
  // cluster is refused.
  OpEngine(sim::FluidSimulator* sim, fabric::Topology* topology,
           core::PoolManager* manager, Options options);
  OpEngine(sim::FluidSimulator* sim, fabric::Topology* topology,
           core::PoolManager* manager)
      : OpEngine(sim, topology, manager, Options()) {}
  // Timers and lock grants hold the engine's address.
  OpEngine(const OpEngine&) = delete;
  OpEngine& operator=(const OpEngine&) = delete;

  // Submission ---------------------------------------------------------------

  // Creates an op owned by (server, core) and schedules `first` through a
  // zero-delay timer (submission itself is never reentrant).  The op id is
  // returned immediately; the step runs when the simulator reaches it.
  // `state`, when given, is the driver's record for the op, released as
  // the op is destroyed.
  OpId Submit(OpKind kind, cluster::ServerId server, int core, Step first,
              OpState* state = nullptr);

  // Steps (called from inside a Step) --------------------------------------

  // Prices a read/write of [offset, offset+len) of `buffer` from the op's
  // (server, core): each located span — local DRAM path or remote fabric
  // path, resolved at issue time — costs its loaded latency
  // plus serialization at the path's fair share, and the access holds one
  // of the core's miss slots (waiting FIFO for one) for the summed cost.
  // `next` runs when it completes.  An op has at most one access in flight.
  // The engine prices only; the functional access (and its hotness
  // accounting) is the caller's, typically performed inside `next` at
  // completion time.  Unresolvable spans (kDataLoss after a crash, unknown
  // buffers) finish the op with that status instead of running `next`.
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

  // Pure sim-time delay (compute, client think time).  An op has at most
  // one Delay outstanding (checked; `next` may itself call Delay).
  void Delay(Op& op, SimTime delay, Step next);

  // Completes the op: leaves any lock queue, hands off locks it still holds
  // (no priced round trip), records its latency distribution, breakdown
  // and counters, destroys the Op and releases its OpState, then runs the
  // completion hook.  An op with an access in flight cannot finish
  // (checked).
  void Finish(Op& op, Status status = Status::Ok());

  // Introspection ------------------------------------------------------------

  std::size_t in_flight() const { return in_flight_; }
  std::uint64_t submitted() const { return next_id_ - 1; }
  std::uint64_t completed() const { return completed_; }
  std::uint64_t failed() const { return failed_; }

  // Runs the simulator until every submitted op has finished and returns
  // the number of simulator steps that took.  Closed-loop drivers that
  // resubmit from the completion hook drain naturally once they stop.
  // Fails if the simulator goes idle with ops still parked (a stuck state
  // machine — means an engine or driver bug).
  StatusOr<std::uint64_t> Drain();

  // Fired after each op finishes (closed-loop drivers resubmit here; the
  // hook runs inside a timer callback, so submitting is safe).
  void set_on_complete(CompletionHook hook) { on_complete_ = std::move(hook); }

  // Sim time one coherent-region round trip costs (TryLock CAS, unlock
  // store): the topology link profile's unloaded remote round-trip
  // latency.
  SimTime lock_rtt() const { return lock_rtt_; }
  sim::FluidSimulator* simulator() { return sim_; }
  core::PoolManager* manager() { return manager_; }

 private:
  // A core's outstanding-miss slots: how many are free, and the accesses
  // waiting for one in FIFO order, each with the time it began waiting.
  struct CoreSlots {
    int free = kMissSlotsPerCore;
    std::deque<std::pair<OpId, SimTime>> waiting;
  };

  void IssueAccess(Op& op, core::BufferId buffer, Bytes offset, Bytes len,
                   Step next);
  // Starts a slot-holding access that waited `wait` for its slot: its
  // completion is due access_cost_ on.
  void StartAccess(Op& op, SimTime wait);
  // The access's one event: passes the slot on, then runs the continuation.
  void EndAccess(OpId id);
  CoreSlots& SlotsOf(const Op& op);
  void AttemptLock(OpId id);
  // Runs inside the releaser's Unlock once `id` holds the lock.
  void OnLockGranted(OpId id);
  void OnLockDeadline(OpId id);
  // Runs the parked continuation with the lock held, `wait` after the
  // first attempt found it held (0 when it was free).
  void EnterLock(Op& op, SimTime wait);
  void RecordLockWait(int spins, SimTime wait);
  // The in-flight op `id`, or null once it has finished.
  Op* Find(OpId id);
  // Op `id`, which must be in flight.
  Op& Get(OpId id);
  // Takes a finished op out of the table and clears it for reuse.
  void Retire(Op& op);
  // Runs the step Submit or Delay parked on op `id`.
  void RunTimerStep(OpId id);
  // Adds `delta` to the counter "<prefix><suffix>", caching its handle in
  // `counter` on first use (so a counter appears only once it counts).
  void Count(std::uint64_t*& counter, const char* suffix,
             std::uint64_t delta = 1);
  MetricsRegistry& metrics() { return *metrics_; }

  sim::FluidSimulator* sim_;
  fabric::Topology* topology_;
  core::PoolManager* manager_;
  Options options_;
  SimTime lock_rtt_ = 0;
  MetricsRegistry* metrics_;
  // The pending table.  Op objects live in ops_ (so their addresses stay
  // stable while steps run) and go back to free_ops_ when they finish, so
  // a steady loop allocates none.  by_id_ is a ring indexed by id modulo
  // its power-of-two size, covering the ids from oldest_ (no op below it is
  // in flight) to next_id_; it doubles when that span fills it, so memory
  // tracks the oldest in-flight op's age, not total requests.  Never
  // iterated, so its order cannot reach a simulated result.
  std::vector<std::unique_ptr<Op>> ops_;
  std::vector<Op*> free_ops_;
  std::vector<Op*> by_id_;
  OpId oldest_ = 1;
  std::size_t in_flight_ = 0;
  OpId next_id_ = 1;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  CompletionHook on_complete_;
  // By server * cores_per_server + core.
  std::vector<CoreSlots> slots_;
  // IssueAccess's resolved spans; reused, so it keeps its capacity.
  std::vector<core::LocatedSpan> spans_;
  // Cached distribution instruments (one lookup per kind, not per op).
  Histogram* latency_hist_[4] = {nullptr, nullptr, nullptr, nullptr};
  Histogram* lock_wait_hist_ = nullptr;
  // "<prefix>.<kind>.propagation|serialization|slot_wait", by kind.
  Histogram* breakdown_hist_[4][3] = {};
  // Cached counter handles: "<prefix>.hops", ".completed", ".errors",
  // ".lock_spins".
  std::uint64_t* hops_counter_ = nullptr;
  std::uint64_t* completed_counter_ = nullptr;
  std::uint64_t* errors_counter_ = nullptr;
  std::uint64_t* lock_spins_counter_ = nullptr;
};

}  // namespace lmp::ops
