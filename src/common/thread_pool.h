// Copyright 2026 The updb Authors.
// A small persistent thread pool with a ParallelFor primitive, built for
// the IDCA hot paths: the per-iteration (B', R') pair loop and the
// per-candidate loops of the query layer.
//
// Design constraints, in order:
//
//  1. Determinism is the caller's job, and the pool makes it cheap: indices
//     are handed out dynamically (work stealing via one atomic counter),
//     so callers that need reproducible floating-point results accumulate
//     into per-index (or per-chunk) partials and reduce in index order
//     after ParallelFor returns. Nothing about the result may then depend
//     on the schedule or the thread count.
//  2. Nested ParallelFor calls execute inline on the calling thread. The
//     query layer parallelizes over candidates while each candidate's IDCA
//     run may itself request a parallel pair loop; running the inner loop
//     inline keeps the outer, coarser-grained parallelism and cannot
//     deadlock the pool.
//  3. ParallelFor(n, 1, body) never touches the pool or any lock — the
//     serial configuration stays exactly as debuggable as a plain loop.
//
// Bodies must not throw: a escaping exception would terminate (the pool
// runs bodies noexcept-equivalent). updb signals contract violations via
// UPDB_CHECK (abort), never exceptions, so this is not a restriction in
// practice.

#ifndef UPDB_COMMON_THREAD_POOL_H_
#define UPDB_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace updb {

/// Persistent worker pool. One pool can serve many ParallelFor calls (from
/// one caller at a time; concurrent top-level calls on one pool are
/// serialized by that pool's own lock, while distinct pools never wait on
/// each other).
class ThreadPool {
 public:
  /// Body of a parallel loop: called once per index with the index and the
  /// id of the executing participant (0 = the calling thread, 1..P-1 = pool
  /// workers). Participant ids are dense and unique within one ParallelFor,
  /// so they can address per-worker scratch workspaces.
  using Body = std::function<void(size_t index, size_t worker)>;

  /// Spawns `num_workers` persistent worker threads (0 is allowed and makes
  /// every ParallelFor run inline).
  explicit ThreadPool(size_t num_workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_workers() const { return workers_.size(); }

  /// Runs body(i, worker) for every i in [0, n), using at most
  /// `parallelism` threads (the calling thread plus up to parallelism-1
  /// pool workers). Blocks until every index has completed. Nested calls —
  /// ParallelFor from inside a body, on any pool — run inline serially.
  /// n == 1 is not a parallel region at all: the body runs directly and a
  /// nested ParallelFor inside it keeps its full parallelism (a query with
  /// a single candidate must not serialize the engine's pair loop).
  void ParallelFor(size_t n, size_t parallelism, const Body& body);

  /// Process-wide shared pool created on first use, sized with a few
  /// spare workers beyond the hardware thread count so explicit requests
  /// (e.g. num_threads = 4 on a 1-core CI box) still exercise real
  /// threads. Engines and queries draw workers from here instead of
  /// spawning per-instance pools, so a query that parallelizes candidates
  /// and an engine that parallelizes partition pairs never oversubscribe.
  static ThreadPool& Shared();

  /// Resolves a configured thread count: values >= 1 are returned as-is,
  /// 0 means all hardware threads.
  static size_t EffectiveParallelism(int configured);

  /// ParallelFor on the shared pool — but when the loop would run inline
  /// anyway (n <= 1, parallelism <= 1, or already inside a parallel
  /// region) it does so WITHOUT instantiating Shared(), so fully serial
  /// configurations never spawn the pool's worker threads. This is the
  /// entry point the engine and query layer use.
  static void SharedParallelFor(size_t n, size_t parallelism,
                                const Body& body);

 private:
  void WorkerMain();
  /// Pulls indices from the open job until exhausted.
  void RunLoop(size_t worker_slot, const Body& body);
  /// Serial fallback shared by ParallelFor and SharedParallelFor.
  static void RunInline(size_t n, const Body& body);

  std::mutex caller_mu_;  // one top-level ParallelFor at a time
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: a job opened
  std::condition_variable done_cv_;   // caller: all participants finished
  std::vector<std::thread> workers_;

  // Current job, guarded by mu_ (next_ is the only hot shared word).
  const Body* body_ = nullptr;
  std::atomic<size_t> next_{0};
  size_t end_ = 0;
  size_t worker_limit_ = 0;     // pool workers still allowed to join
  size_t workers_joined_ = 0;   // pool workers that joined the current job
  size_t workers_active_ = 0;   // pool workers currently running the body
  uint64_t job_epoch_ = 0;
  bool shutdown_ = false;
};

}  // namespace updb

#endif  // UPDB_COMMON_THREAD_POOL_H_
