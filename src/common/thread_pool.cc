#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace updb {

namespace {

/// True while the current thread is executing a ParallelFor body (on any
/// pool); nested parallel loops detect this and run inline.
thread_local bool t_in_parallel_region = false;

}  // namespace

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerMain(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunInline(size_t n, const Body& body) {
  if (n == 1) {
    // Degenerate loop: run directly, without marking a parallel region, so
    // a nested ParallelFor in the body keeps its requested parallelism.
    body(0, 0);
    return;
  }
  // Serial / nested path: no locks, no pool interaction. The region flag
  // still guards against the body spawning further parallel loops.
  const bool was_in_region = t_in_parallel_region;
  t_in_parallel_region = true;
  for (size_t i = 0; i < n; ++i) body(i, 0);
  t_in_parallel_region = was_in_region;
}

void ThreadPool::ParallelFor(size_t n, size_t parallelism, const Body& body) {
  if (n == 0) return;
  parallelism = std::min(parallelism, n);
  if (n == 1 || t_in_parallel_region || parallelism <= 1 ||
      workers_.empty()) {
    RunInline(n, body);
    return;
  }

  // Serialize concurrent top-level callers of this pool: a second caller
  // waits here rather than corrupting the single job slot. Other pools
  // have their own slot and lock. (Nested calls never reach this point.)
  std::lock_guard<std::mutex> caller_lock(caller_mu_);

  const size_t extra_workers =
      std::min(parallelism - 1, workers_.size());
  {
    std::lock_guard<std::mutex> lock(mu_);
    body_ = &body;
    end_ = n;
    next_.store(0, std::memory_order_relaxed);
    worker_limit_ = extra_workers;
    workers_joined_ = 0;
    ++job_epoch_;
  }
  work_cv_.notify_all();

  t_in_parallel_region = true;
  RunLoop(/*worker_slot=*/0, body);
  t_in_parallel_region = false;

  std::unique_lock<std::mutex> lock(mu_);
  worker_limit_ = 0;  // close the job: no further workers may join
  done_cv_.wait(lock, [this] { return workers_active_ == 0; });
  body_ = nullptr;
}

void ThreadPool::WorkerMain() {
  uint64_t seen_epoch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return shutdown_ ||
             (body_ != nullptr && job_epoch_ != seen_epoch &&
              worker_limit_ > 0);
    });
    if (shutdown_) return;
    seen_epoch = job_epoch_;
    // Dense participant ids: the caller is 0; the worker consuming the
    // p-th join permit is p. (workers_active_ would not do — it can reuse
    // an id still held by a running participant.)
    --worker_limit_;
    ++workers_active_;
    const size_t slot = ++workers_joined_;
    const Body* body = body_;
    lock.unlock();

    t_in_parallel_region = true;
    RunLoop(slot, *body);
    t_in_parallel_region = false;

    lock.lock();
    --workers_active_;
    if (workers_active_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::RunLoop(size_t worker_slot, const Body& body) {
  const size_t end = end_;
  for (;;) {
    const size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= end) break;
    body(i, worker_slot);
  }
}

ThreadPool& ThreadPool::Shared() {
  // At least 3 workers (4-way parallelism) even on small machines, so
  // explicitly requested thread counts exercise real threads there.
  static ThreadPool pool(
      std::max<size_t>(std::thread::hardware_concurrency(), 4) - 1);
  return pool;
}

size_t ThreadPool::EffectiveParallelism(int configured) {
  if (configured >= 1) return static_cast<size_t>(configured);
  return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

void ThreadPool::SharedParallelFor(size_t n, size_t parallelism,
                                   const Body& body) {
  if (n == 0) return;
  if (n == 1 || parallelism <= 1 || t_in_parallel_region) {
    // Would run inline anyway — keep Shared() (and its worker threads)
    // unconstructed for fully serial configurations.
    RunInline(n, body);
    return;
  }
  Shared().ParallelFor(n, parallelism, body);
}

}  // namespace updb
