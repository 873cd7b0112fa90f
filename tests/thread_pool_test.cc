#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace updb {
namespace {

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, 4, [&](size_t i, size_t /*worker*/) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
  }
}

TEST(ThreadPoolTest, WorkerIdsAreDenseAndBounded) {
  ThreadPool pool(8);
  const size_t parallelism = 4;
  std::vector<std::atomic<int>> used(parallelism);
  for (auto& u : used) u.store(0);
  pool.ParallelFor(512, parallelism, [&](size_t /*i*/, size_t worker) {
    ASSERT_LT(worker, parallelism);
    used[worker].fetch_add(1, std::memory_order_relaxed);
  });
  // Indices are handed out dynamically, so no particular participant is
  // guaranteed any work — only that all of it was done within bounds.
  int total = 0;
  for (auto& u : used) total += u.load();
  EXPECT_EQ(total, 512);
}

TEST(ThreadPoolTest, SerialParallelismRunsInline) {
  ThreadPool pool(2);
  size_t sum = 0;  // unsynchronized on purpose: must run on this thread
  pool.ParallelFor(100, 1, [&](size_t i, size_t worker) {
    EXPECT_EQ(worker, 0u);
    sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPoolTest, NestedCallsRunInline) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  pool.ParallelFor(8, 4, [&](size_t /*i*/, size_t /*worker*/) {
    // Nested region: must execute inline on the calling participant and
    // see worker id 0 without deadlocking the pool.
    pool.ParallelFor(16, 4, [&](size_t /*j*/, size_t inner_worker) {
      EXPECT_EQ(inner_worker, 0u);
      total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(total.load(), 8u * 16u);
}

TEST(ThreadPoolTest, ZeroIndicesIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.ParallelFor(0, 4, [&](size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, PoolWithoutWorkersStillCompletes) {
  ThreadPool pool(0);
  std::atomic<size_t> count{0};
  pool.ParallelFor(64, 8, [&](size_t, size_t worker) {
    EXPECT_EQ(worker, 0u);
    count.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ThreadPoolTest, ManySmallJobsBackToBack) {
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<size_t> count{0};
    pool.ParallelFor(16, 5, [&](size_t, size_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
    ASSERT_EQ(count.load(), 16u) << "round=" << round;
  }
}

TEST(ThreadPoolTest, EffectiveParallelismResolvesConfig) {
  EXPECT_EQ(ThreadPool::EffectiveParallelism(1), 1u);
  EXPECT_EQ(ThreadPool::EffectiveParallelism(6), 6u);
  // 0 = all hardware threads.
  EXPECT_GE(ThreadPool::EffectiveParallelism(0), 1u);
}

TEST(ThreadPoolTest, SingleIndexLoopIsNotAParallelRegion) {
  // A 1-element loop must not mark a parallel region: the nested loop
  // below has to be able to fan out to real workers.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> inner_workers(4);
  for (auto& u : inner_workers) u.store(0);
  pool.ParallelFor(1, 4, [&](size_t /*i*/, size_t worker) {
    EXPECT_EQ(worker, 0u);
    pool.ParallelFor(256, 4, [&](size_t /*j*/, size_t inner) {
      inner_workers[inner].fetch_add(1, std::memory_order_relaxed);
    });
  });
  int total = 0;
  for (auto& u : inner_workers) total += u.load();
  EXPECT_EQ(total, 256);
}

TEST(ThreadPoolTest, DistinctPoolsRunTopLevelLoopsConcurrently) {
  // Each pool has its own job slot, so top-level loops on two pools must
  // not wait on each other. Every body waits until all four bodies (two
  // per pool) have arrived; a lock shared by all pools would hold the
  // second caller back, and the first pool's bodies would time out.
  ThreadPool pool_a(1);
  ThreadPool pool_b(1);
  std::mutex mu;
  std::condition_variable cv;
  size_t arrived = 0;
  std::atomic<size_t> met{0};
  const ThreadPool::Body body = [&](size_t /*i*/, size_t /*worker*/) {
    std::unique_lock<std::mutex> lock(mu);
    ++arrived;
    cv.notify_all();
    if (cv.wait_for(lock, std::chrono::seconds(5),
                    [&] { return arrived == 4; })) {
      met.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread caller_a([&] { pool_a.ParallelFor(2, 2, body); });
  std::thread caller_b([&] { pool_b.ParallelFor(2, 2, body); });
  caller_a.join();
  caller_b.join();
  EXPECT_EQ(arrived, 4u);
  EXPECT_EQ(met.load(), 4u);
}

}  // namespace
}  // namespace updb
