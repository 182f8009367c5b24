// SolverPool: a fixed-size work crew for the sharded fluid solver.
//
// The pool owns `threads - 1` long-lived worker threads; Run(count, fn)
// executes fn(0..count-1) across the workers *and* the calling thread, and
// returns only when every index has completed.  Tasks are claimed from a
// shared atomic cursor, so the assignment of task -> thread is arbitrary —
// callers must hand the pool tasks whose writes are disjoint (the solver
// guarantees this by partitioning flows into connected components that
// share no resource).  Determinism therefore does not depend on the
// schedule: every task computes the same bytes no matter which thread runs
// it or in what order.
//
// The pool never spins between Run() calls (workers block on a condition
// variable), so an idle pool costs nothing but memory.  Run() is not
// reentrant and must always be called from the same owner thread — the
// simulator, which is itself single-threaded at the API surface.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lmp::sim {

class SolverPool {
 public:
  // threads >= 1; spawns threads - 1 workers (Run always uses the caller
  // as the remaining worker, so threads == 1 degenerates to inline calls).
  explicit SolverPool(int threads);
  ~SolverPool();

  SolverPool(const SolverPool&) = delete;
  SolverPool& operator=(const SolverPool&) = delete;

  int threads() const { return threads_; }

  // Invokes fn(i) exactly once for every i in [0, count), across workers
  // plus the calling thread; blocks until all invocations return.
  void Run(std::size_t count, const std::function<void(std::size_t)>& fn);

 private:
  void WorkerLoop();
  // Claims tasks from next_ until the batch is drained; returns the number
  // of tasks this thread ran.
  std::size_t DrainTasks();

  const int threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a new batch
  std::condition_variable done_cv_;  // Run() waits for batch completion
  std::uint64_t generation_ = 0;     // bumped per Run() batch (guarded by mu_)
  bool stop_ = false;                // guarded by mu_
  // Workers between picking up a batch and leaving DrainTasks (guarded by
  // mu_).  Run() publishes and retires a batch only while it is zero, so
  // a worker that wakes late never reads job_ or job_count_ while Run()
  // writes them.
  std::size_t active_ = 0;

  // Batch state, published under mu_ before generation_ is bumped.
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_count_ = 0;
  std::atomic<std::size_t> next_{0};     // task claim cursor
  std::atomic<std::size_t> pending_{0};  // tasks not yet finished
};

}  // namespace lmp::sim
