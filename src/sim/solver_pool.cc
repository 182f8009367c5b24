#include "sim/solver_pool.h"

#include "common/logging.h"

namespace lmp::sim {

SolverPool::SolverPool(int threads) : threads_(threads) {
  LMP_CHECK(threads >= 1) << "SolverPool needs at least one thread";
  workers_.reserve(static_cast<std::size_t>(threads - 1));
  for (int t = 0; t < threads - 1; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

SolverPool::~SolverPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::size_t SolverPool::DrainTasks() {
  std::size_t ran = 0;
  while (true) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_count_) break;
    (*job_)(i);
    ++ran;
  }
  return ran;
}

void SolverPool::Run(std::size_t count,
                     const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (workers_.empty()) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return active_ == 0; });
    job_ = &fn;
    job_count_ = count;
    next_.store(0, std::memory_order_relaxed);
    pending_.store(count, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();
  const std::size_t ran = DrainTasks();
  if (ran > 0) pending_.fetch_sub(ran, std::memory_order_acq_rel);
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] {
    return active_ == 0 && pending_.load(std::memory_order_acquire) == 0;
  });
  job_ = nullptr;
  job_count_ = 0;
}

void SolverPool::WorkerLoop() {
  std::uint64_t seen = 0;
  while (true) {
    std::unique_lock<std::mutex> lk(mu_);
    work_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    ++active_;
    lk.unlock();

    const std::size_t ran = DrainTasks();
    if (ran > 0) pending_.fetch_sub(ran, std::memory_order_acq_rel);

    lk.lock();
    if (--active_ == 0) done_cv_.notify_all();
  }
}

}  // namespace lmp::sim
