// Verifies the UGF workspace's zero-allocation contract: once a UgfBatch
// has been grown to its high-water mark and rewound with Begin(),
// replaying a factor sequence of the same (or smaller) size calls the
// allocator exactly zero times. This is the property that lets the IDCA
// refinement loop reuse one workspace across every (B', R') partition pair
// without touching the heap. Also verifies the 32-byte alignment the
// AVX2 kernels rely on for their aligned accumulator spills.
//
// counting_allocator.h replaces the global operator new/delete to count
// every allocation in the process — including the aligned overloads
// gf::AlignedVec uses — which is why this test lives in its own binary.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "counting_allocator.h"
#include "gf/aligned_vec.h"
#include "gf/ugf_batch.h"

namespace updb {
namespace {

/// Replays `factors` into the workspace and returns the number of heap
/// allocations the replay performed.
size_t AllocationsDuringReplay(UgfBatch& ugf,
                               const std::vector<ProbabilityBounds>& factors) {
  const size_t before = test::AllocationCount();
  for (const ProbabilityBounds& f : factors) ugf.MultiplyFactors(&f.lb, &f.ub);
  return test::AllocationCount() - before;
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
    const size_t before = test::AllocationCount();
    replay();
    EXPECT_EQ(test::AllocationCount() - before, 0u)
        << "k=" << k;
  }
}

TEST(UgfAllocTest, ReserveCoversEverySequenceOfItsLength) {
  // Reserve(n, k) sizes for the worst case of n factors under truncation
  // k — no degenerate factor, so nothing takes a symbolic fast path — and
  // a fresh workspace then replays such a sequence, bounds included,
  // without one allocation, even the first time.
  constexpr size_t kFactors = 70;
  Rng rng(239);
  std::vector<double> lb4(kFactors * UgfBatch::kLanes);
  std::vector<double> ub4(kFactors * UgfBatch::kLanes);
  for (size_t i = 0; i < lb4.size(); ++i) {
    lb4[i] = 0.05 + 0.4 * rng.NextDouble();
    ub4[i] = lb4[i] + 0.5 * rng.NextDouble();
  }
  for (size_t k : {UgfBatch::kNoTruncation, size_t{1}, size_t{3}, size_t{9},
                   size_t{kFactors}, size_t{500}}) {
    for (size_t lanes : {size_t{1}, UgfBatch::kLanes}) {
      UgfBatch batch;
      batch.Reserve(kFactors, k);
      const size_t nr = std::min(k, kFactors + 1);
      CountDistributionBounds out = CountDistributionBounds::Zero(nr);
      const size_t before = test::AllocationCount();
      batch.Begin(k, lanes);
      for (size_t i = 0; i < kFactors; ++i) {
        batch.MultiplyFactors(lb4.data() + i * UgfBatch::kLanes,
                              ub4.data() + i * UgfBatch::kLanes);
      }
      batch.FinishBounds();
      for (size_t l = 0; l < lanes; ++l) batch.EmitBounds(l, &out);
      ProbabilityBounds lt[UgfBatch::kLanes];
      batch.ProbLessThanAll(std::min(k, size_t{2}), lt);
      EXPECT_EQ(test::AllocationCount() - before, 0u)
          << "k=" << k << " lanes=" << lanes;
    }
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
