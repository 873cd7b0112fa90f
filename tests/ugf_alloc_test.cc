// Verifies the UGF workspace's zero-allocation contract: once a UgfBatch
// has been grown to its high-water mark and rewound with Begin(),
// replaying a factor sequence of the same (or smaller) size calls the
// allocator exactly zero times. This is the property that lets the IDCA
// refinement loop reuse one workspace across every (B', R') partition pair
// without touching the heap. Also verifies the 32-byte alignment the
// AVX2 kernels rely on for their aligned accumulator spills.
//
// The global operator new/delete overrides below count every allocation in
// the process — including the aligned overloads gf::AlignedVec uses —
// which is why this test lives in its own binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/random.h"
#include "gf/aligned_vec.h"
#include "gf/ugf_batch.h"

namespace {

std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(size_t size, std::align_val_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const size_t a = static_cast<size_t>(align);
  const size_t rounded = (size + a - 1) & ~(a - 1);  // aligned_alloc demands
  if (void* p = std::aligned_alloc(a, rounded)) return p;
  throw std::bad_alloc();
}

void* operator new[](size_t size) { return ::operator new(size); }

void* operator new[](size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace updb {
namespace {

/// Replays `factors` into the workspace and returns the number of heap
/// allocations the replay performed.
size_t AllocationsDuringReplay(UgfBatch& ugf,
                               const std::vector<ProbabilityBounds>& factors) {
  const size_t before = g_allocations.load(std::memory_order_relaxed);
  for (const ProbabilityBounds& f : factors) ugf.MultiplyFactors(&f.lb, &f.ub);
  return g_allocations.load(std::memory_order_relaxed) - before;
}

std::vector<ProbabilityBounds> RandomFactors(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<ProbabilityBounds> factors;
  factors.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double kind = rng.NextDouble();
    if (kind < 0.15) {
      factors.push_back(ProbabilityBounds{0.0, 0.0});
    } else if (kind < 0.3) {
      factors.push_back(ProbabilityBounds{1.0, 1.0});
    } else {
      const double lb = rng.NextDouble();
      factors.push_back(
          ProbabilityBounds{lb, lb + (1.0 - lb) * rng.NextDouble()});
    }
  }
  return factors;
}

TEST(UgfAllocTest, UntruncatedMultiplyIsAllocationFreeOnReuse) {
  const std::vector<ProbabilityBounds> factors = RandomFactors(96, 211);
  UgfBatch ugf;
  ugf.Begin(UgfBatch::kNoTruncation, 1);
  // Warm-up pass: grows the workspace to its high-water mark.
  AllocationsDuringReplay(ugf, factors);
  ugf.Begin(UgfBatch::kNoTruncation, 1);
  EXPECT_EQ(AllocationsDuringReplay(ugf, factors), 0u);
  // And again — Begin() itself must not shrink anything.
  ugf.Begin(UgfBatch::kNoTruncation, 1);
  EXPECT_EQ(AllocationsDuringReplay(ugf, factors), 0u);
}

TEST(UgfAllocTest, TruncatedMultiplyIsAllocationFreeOnReuse) {
  const std::vector<ProbabilityBounds> factors = RandomFactors(96, 223);
  for (size_t k : {size_t{1}, size_t{3}, size_t{9}}) {
    UgfBatch ugf;
    ugf.Begin(k, 1);
    AllocationsDuringReplay(ugf, factors);
    ugf.Begin(k, 1);
    EXPECT_EQ(AllocationsDuringReplay(ugf, factors), 0u) << "k=" << k;
  }
}

TEST(UgfAllocTest, SmallerReplayAfterLargeWarmupIsAllocationFree) {
  const std::vector<ProbabilityBounds> big = RandomFactors(120, 227);
  const std::vector<ProbabilityBounds> small = RandomFactors(40, 229);
  UgfBatch ugf;
  ugf.Begin(UgfBatch::kNoTruncation, 1);
  AllocationsDuringReplay(ugf, big);
  ugf.Begin(UgfBatch::kNoTruncation, 1);
  EXPECT_EQ(AllocationsDuringReplay(ugf, small), 0u);
}

TEST(UgfAllocTest, BatchReplayIsAllocationFreeOnReuse) {
  // One warmed-up UgfBatch serves every later chunk flush for free: after
  // Begin() the replay — multiplies, bounds finish, lane emission and
  // ProbLessThanAll — must not allocate, truncated or not.
  const std::vector<ProbabilityBounds> factors = RandomFactors(80, 233);
  for (size_t k : {UgfBatch::kNoTruncation, size_t{9}}) {
    UgfBatch batch;
    const size_t nr = std::min(k, factors.size() + 1);
    CountDistributionBounds out = CountDistributionBounds::Zero(nr);
    auto replay = [&] {
      batch.Begin(k, UgfBatch::kLanes);
      for (const ProbabilityBounds& f : factors) {
        double lb4[UgfBatch::kLanes];
        double ub4[UgfBatch::kLanes];
        for (size_t l = 0; l < UgfBatch::kLanes; ++l) {
          lb4[l] = f.lb;
          ub4[l] = f.ub;
        }
        batch.MultiplyFactors(lb4, ub4);
      }
      batch.FinishBounds();
      for (size_t l = 0; l < UgfBatch::kLanes; ++l) {
        batch.EmitBounds(l, &out);
      }
      ProbabilityBounds lt[UgfBatch::kLanes];
      batch.ProbLessThanAll(1, lt);
    };
    // Warm-up passes: the first grows the double buffers to their
    // high-water marks, the second lets Begin() equalize their capacities
    // (the trailing swap leaves the scratch buffer one growth step behind).
    replay();
    replay();
    const size_t before = g_allocations.load(std::memory_order_relaxed);
    replay();
    EXPECT_EQ(g_allocations.load(std::memory_order_relaxed) - before, 0u)
        << "k=" << k;
  }
}

TEST(UgfAllocTest, WorkspacesAre32ByteAligned) {
  // The AVX2 kernels spill their accumulator vector with an aligned store;
  // every coefficient workspace (gf::AlignedVec) must start on a 32-byte
  // boundary, across fresh allocations, growth and swaps.
  gf::AlignedVec v;
  for (size_t n : {size_t{1}, size_t{7}, size_t{64}, size_t{1000}}) {
    v.resize(n, 0.0);
    ASSERT_NE(v.data(), nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 32, 0u) << "n=" << n;
  }
  gf::AlignedVec w;
  w.assign(129, 0.5);
  v.swap(w);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(v.data()) % 32, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(w.data()) % 32, 0u);
}

}  // namespace
}  // namespace updb
