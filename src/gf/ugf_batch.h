// Copyright 2026 The updb Authors.
// Uncertain Generating Functions (Section IV-C). An UGF expands
//
//   F = Prod_i [ p_lb_i * x  +  (p_ub_i - p_lb_i) * y  +  (1 - p_ub_i) ]
//
// over Bernoulli variables known only through probability brackets
// [p_lb_i, p_ub_i]. The coefficient c_{i,j} of x^i y^j is the probability
// that exactly i variables are definitely 1 and j further variables are
// undecided; the count then lies in [i, i+j]. From the expansion:
//
//   P(Count = k)  >=  c_{k,0}
//   P(Count = k)  <=  Sum_{i<=k, i+j>=k} c_{i,j}
//
// For threshold kNN/RkNN queries only ranks below k matter; the truncated
// mode merges every coefficient with i+j >= k into a per-row tail bucket
// and every row with i >= k into a single overflow cell, reducing the cost
// of n multiplications from O(n^3) to O(k^2 n) (Section VI).
//
// UgfBatch is the library's one UGF workspace. It evaluates up to kLanes
// independent factor sequences of the same length in one pass over one
// contiguous 32-byte-aligned structure-of-arrays triangle: cell (i, j) of
// lane l lives at [cell_index * kLanes + l], so every coefficient cell is
// exactly one vector register wide and the convolution / reduction kernels
// amortize their loads across the whole lane group. The IDCA refinement
// loop stages up to kLanes (B', R') partition pairs per chunk into one
// batch; a single sequence is Begin(k, 1). Begin() rewinds while keeping
// capacity, so a workspace that has reached its high-water mark never
// allocates again. Degenerate factors take O(1) symbolic fast paths when
// every active lane agrees: a (0,0) factor only extends the rank range and
// a (1,1) factor (untruncated) is a row shift counter.
//
// Bit-identity: all arithmetic routes through the runtime-dispatched kernel
// table (gf/kernels.h) and follows its blocked accumulation order, so every
// lane produces exactly the bits NestedVectorUgf (gf/ugf_reference.h)
// produces for the same factor sequence, under either table. The per-lane
// weights of degenerate factors multiply through as exact no-ops (weights 0
// and 1 under the fused gather preserve every bit), so materializing what
// the symbolic paths skip changes nothing — enforced by EXPECT_EQ sweeps in
// tests/ugf_equivalence_test.cc.

#ifndef UPDB_GF_UGF_BATCH_H_
#define UPDB_GF_UGF_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <limits>

#include "gf/aligned_vec.h"
#include "gf/count_bounds.h"
#include "gf/kernels.h"

namespace updb {

/// Up-to-kLanes uncertain generating functions advanced in lockstep.
class UgfBatch {
 public:
  static constexpr size_t kLanes = gf::kSoaLanes;
  static constexpr size_t kNoTruncation = std::numeric_limits<size_t>::max();

  /// Rewinds every lane to F = 1 under the given truncation, keeping all
  /// buffer capacity. `truncate_at` = k enables the O(k^2 n) truncated
  /// mode (ranks >= k merged); kNoTruncation keeps the full expansion.
  /// `active_lanes` (1..kLanes) is how many lanes carry real factor
  /// sequences; the rest are padded with neutral (0,0) factors internally
  /// and must never be emitted.
  void Begin(size_t truncate_at, size_t active_lanes);

  /// Grows every buffer to what `num_factors` factors under `truncate_at`
  /// can need at most, whatever the factor values — so a workspace shared
  /// by pair-loop chunks of one size allocates nothing inside the loop,
  /// whichever chunks it happens to run. Never shrinks.
  void Reserve(size_t num_factors, size_t truncate_at);

  /// Multiplies factor `num_factors()` of every lane: lane l takes the
  /// probability bracket [lb4[l], ub4[l]] (0 <= lb <= ub <= 1; a definite
  /// dominator is (1,1), a definite non-dominator (0,0)). Entries at
  /// l >= active_lanes are never read. Never allocates at or below the
  /// workspace high-water mark.
  void MultiplyFactors(const double* lb4, const double* ub4);

  size_t num_factors() const { return num_factors_; }
  size_t active_lanes() const { return active_lanes_; }

  /// Ranks EmitBounds covers. Untruncated: ranks 0..num_factors().
  /// Truncated at k: ranks 0..k-1 (higher ranks are not represented).
  size_t num_ranks() const {
    return truncated() ? std::min(truncate_at_, num_factors_ + 1)
                       : num_factors_ + 1;
  }

  /// Lifetime per-lane multiply odometer across Begin()s: MultiplyFactors
  /// adds one count per active lane (IDCA reads the delta around each
  /// chunk to attribute UGF work to requests). Never feeds back into any
  /// computed bound.
  uint64_t total_multiplies() const { return total_multiplies_; }

  /// Computes per-rank bounds for every lane in one pass over the shared
  /// coefficients. Read them out per lane with EmitBounds.
  void FinishBounds();

  /// Writes lane `lane`'s per-rank bounds into `out`, which must have
  /// num_ranks() ranks.
  void EmitBounds(size_t lane, CountDistributionBounds* out) const;

  /// Single-lane convenience: FinishBounds() unless it is current, then
  /// lane `lane`'s bounds in a fresh object. Allocates; the engine uses
  /// FinishBounds + EmitBounds into reused storage instead.
  CountDistributionBounds Bounds(size_t lane);

  /// Bounds on P(Count < m) for every lane in one pass; fills
  /// out[0..kLanes). In truncated mode requires m <= k.
  void ProbLessThanAll(size_t m, ProbabilityBounds* out) const;

  /// Lane `lane`'s coefficient c_{i,j} (truncated: the j = k-i slot is the
  /// tail bucket; out-of-range (i, j) yields 0) and the mass merged into the
  /// i >= k overflow cell (0 when untruncated). For tests.
  double Coefficient(size_t lane, size_t i, size_t j) const;
  double OverflowMass(size_t lane) const { return overflow_[lane]; }

 private:
  bool truncated() const { return truncate_at_ != kNoTruncation; }
  size_t CoreRowOffset(size_t i) const {
    return i * (core_n_ + 1) - i * (i - 1) / 2;
  }
  size_t TruncRowOffset(size_t i) const {
    return i * (truncate_at_ + 1) - i * (i - 1) / 2;
  }
  void MultiplyUntruncated(const double* w_x4, const double* w_y4,
                           const double* w_14);
  void MultiplyTruncated(const double* w_x4, const double* w_y4,
                         const double* w_14);

  size_t truncate_at_ = kNoTruncation;
  size_t active_lanes_ = 0;
  size_t num_factors_ = 0;
  uint64_t total_multiplies_ = 0;  // lifetime, survives Begin()

  // Untruncated symbolic state — applies to the lane group as a whole and
  // is only taken when every active lane degenerates the same way (see
  // MultiplyFactors); otherwise degenerate lanes multiply through
  // materially, which the gather makes bit-exact.
  size_t core_n_ = 0;
  size_t ones_shift_ = 0;
  size_t zeros_pad_ = 0;
  size_t num_rows_ = 1;  // truncated mode

  gf::AlignedVec flat_;     // SoA coefficients: cell c, lane l at [c*4+l]
  gf::AlignedVec scratch_;  // out-of-place multiply target
  double overflow_[kLanes] = {};

  // FinishBounds staging (SoA per rank) + its difference-array scratch.
  gf::AlignedVec bounds_lb_;
  gf::AlignedVec bounds_ub_;
  gf::AlignedVec diff_;
  bool bounds_ready_ = false;
};

}  // namespace updb

#endif  // UPDB_GF_UGF_BATCH_H_
