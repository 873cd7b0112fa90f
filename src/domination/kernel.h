// Copyright 2026 The updb Authors.
// The complete-domination kernel: the only code in the library that does
// domination arithmetic (criteria.h's Rect functions wrap it).
//
// Every domination test in IDCA compares a varying box A against a fixed
// pair (B', R'): the engine filter tests every database MBR against
// (target, reference), the refinement loop tests every undecided candidate
// partition against a (B', R') partition pair, and the RkNN candidate
// filter tests every scanned neighbour against (query, object). PairTerms
// precomputes the (B, R) half of every term once per pair, and Classify /
// Dominates read A as a flat run of Intervals.
//
// Both are templates over the criterion and the norm's order p (1, 2, or
// 0 for any other p via std::pow), so no per-test branch on either
// remains; WithPairTerms is the one dispatch point. The arithmetic is the
// Rect formulation's, operation for operation: the same Pow, the same max,
// the same summation order, no fused multiply-add (the library builds with
// -ffp-contract=off). Only the B/R operands are hoisted, so every verdict
// is bit-identical to the per-call computation, except that a NaN term
// never fires a test (EndpointSum).
//
// ClassifyRun classifies a run of boxes against one pair, four boxes per
// step, for p = 1 and 2 (other p call Classify per box). Its body
// (domination/lane_body.h) repeats Classify's operations lane by lane and
// is written once over a 4-lane type; both gf::GfKernels tables
// instantiate it, so the cpuid dispatch of gf/kernels.h (UPDB_FORCE_SCALAR
// pins scalar) picks the AVX2 or the scalar copy, and either returns
// Classify's verdicts bit for bit.

#ifndef UPDB_DOMINATION_KERNEL_H_
#define UPDB_DOMINATION_KERNEL_H_

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <vector>

#include "domination/criteria.h"
#include "gf/kernels.h"

namespace updb {

/// One dimension of a PairTerms: R's side and, for the optimal criterion,
/// B's powered distances at R's two endpoints. Plain doubles, so the lane
/// body reads it without calling into Interval.
struct PairDim {
  double r_lo;
  double r_hi;
  double b_min[2];  // Pow(MinDist(B_i, r)) at r = lo, hi
  double b_max[2];  // Pow(MaxDist(B_i, r)) at r = lo, hi
};

/// Corollary 1's sum over dimensions of the larger of two endpoint terms
/// (R's lower and upper endpoint), and the sign test on it. A NaN endpoint
/// term is an inf - inf of two overflowed powers: its sign is unknown, so
/// it keeps the test from firing. For every other input the sum is the
/// one the Rect formulation computed, max(max(-inf, lo), hi) per
/// dimension, added in dimension order.
class EndpointSum {
 public:
  void Add(double lo_term, double hi_term) {
    sum_ += std::max(lo_term, hi_term);
    nan_ |= std::isunordered(lo_term, hi_term);
  }

  /// True iff the sum is negative and no term was NaN.
  bool Negative() const { return sum_ < 0.0 && !nan_; }

 private:
  double sum_ = 0.0;
  bool nan_ = false;
};

/// The (B, R) half of every domination test against a fixed target box B
/// and reference box R, for criterion C under the Lp norm of order P
/// (0 = generic p >= 3). Terms of up to kInlineDims dimensions live in the
/// object itself, and Reset() reuses any larger buffer, so building terms
/// per call or per pair does not allocate.
template <DominationCriterion C, int P>
class PairTerms {
 public:
  /// Empty terms; call Reset() before testing. Requires norm.p() to match
  /// P (WithPairTerms guarantees it).
  explicit PairTerms(const LpNorm& norm)
      : power_{static_cast<double>(norm.p())} {
    UPDB_DCHECK(P == 0 ? norm.p() >= 3 : norm.p() == P);
  }

  /// Recomputes the terms for target box `b` and reference box `r`.
  void Reset(std::span<const Interval> b, std::span<const Interval> r) {
    UPDB_DCHECK(b.size() == r.size());
    dim_ = b.size();
    if (dim_ > kInlineDims) spill_.resize(dim_);
    PairDim* dims = this->dims();
    double min_sum = 0.0;
    double max_sum = 0.0;
    for (size_t i = 0; i < dim_; ++i) {
      PairDim& t = dims[i];
      t.r_lo = r[i].lo();
      t.r_hi = r[i].hi();
      if constexpr (C == DominationCriterion::kOptimal) {
        t.b_min[0] = power_.Pow(b[i].MinDist(r[i].lo()));
        t.b_min[1] = power_.Pow(b[i].MinDist(r[i].hi()));
        t.b_max[0] = power_.Pow(b[i].MaxDist(r[i].lo()));
        t.b_max[1] = power_.Pow(b[i].MaxDist(r[i].hi()));
      } else {
        min_sum += power_.Pow(b[i].MinDist(r[i]));
        max_sum += power_.Pow(b[i].MaxDist(r[i]));
      }
    }
    if constexpr (C == DominationCriterion::kMinMax) {
      b_min_dist_ = power_.Root(min_sum);
      b_max_dist_ = power_.Root(max_sum);
    }
  }

  /// True iff box A completely dominates B w.r.t. R (PDom(A, B, R) = 1).
  friend bool Dominates(const PairTerms& t, std::span<const Interval> a) {
    UPDB_DCHECK(a.size() == t.dim_);
    const PairDim* dims = t.dims();
    if constexpr (C == DominationCriterion::kOptimal) {
      EndpointSum fwd;
      for (size_t i = 0; i < t.dim_; ++i) t.AddForward(a[i], dims[i], fwd);
      return fwd.Negative();
    } else {
      double max_sum = 0.0;
      for (size_t i = 0; i < t.dim_; ++i) {
        max_sum += t.power_.Pow(a[i].MaxDist(Side(dims[i])));
      }
      return t.power_.Root(max_sum) < t.b_min_dist_;
    }
  }

  /// Box A vs B w.r.t. R: kDominates if A dominates B, else kDominated if
  /// B dominates A, else kUndecided — ClassifyDomination(A, B, R). Both
  /// directions are summed in one pass over A.
  friend DominationClass Classify(const PairTerms& t,
                                  std::span<const Interval> a) {
    UPDB_DCHECK(a.size() == t.dim_);
    const PairDim* dims = t.dims();
    if constexpr (C == DominationCriterion::kOptimal) {
      EndpointSum fwd;
      EndpointSum rev;
      for (size_t i = 0; i < t.dim_; ++i) {
        const PairDim& d = dims[i];
        t.AddForward(a[i], d, fwd);
        rev.Add(d.b_max[0] - t.power_.Pow(a[i].MinDist(d.r_lo)),
                d.b_max[1] - t.power_.Pow(a[i].MinDist(d.r_hi)));
      }
      if (fwd.Negative()) return DominationClass::kDominates;
      if (rev.Negative()) return DominationClass::kDominated;
    } else {
      double max_sum = 0.0;
      double min_sum = 0.0;
      for (size_t i = 0; i < t.dim_; ++i) {
        const Interval r = Side(dims[i]);
        max_sum += t.power_.Pow(a[i].MaxDist(r));
        min_sum += t.power_.Pow(a[i].MinDist(r));
      }
      if (t.power_.Root(max_sum) < t.b_min_dist_) {
        return DominationClass::kDominates;
      }
      if (t.b_max_dist_ < t.power_.Root(min_sum)) {
        return DominationClass::kDominated;
      }
    }
    return DominationClass::kUndecided;
  }

  /// out[j] = Classify(t, box j) for every box of the run, each box
  /// pointing at t's dimension count of Intervals. Four boxes per step
  /// through the active gf::GfKernels table for p = 1 and 2 (the tail is
  /// padded with the run's last box), Classify per box otherwise.
  friend void ClassifyRun(const PairTerms& t,
                          std::span<const Interval* const> boxes,
                          DominationClass* out) {
    if constexpr (P == 0) {
      for (size_t j = 0; j < boxes.size(); ++j) {
        out[j] = Classify(t, std::span<const Interval>(boxes[j], t.dim_));
      }
    } else {
      const gf::GfKernels& k = gf::ActiveKernels();
      const gf::ClassifyRunFn run = C == DominationCriterion::kOptimal
                                        ? k.classify_optimal[P - 1]
                                        : k.classify_minmax[P - 1];
      run(t.dims(), t.dim_, t.b_min_dist_, t.b_max_dist_, boxes.data(),
          boxes.size(), out);
    }
  }

 private:
  static Interval Side(const PairDim& d) { return Interval(d.r_lo, d.r_hi); }

  /// Adds dimension i's optimal-criterion term of "A dominates B".
  void AddForward(const Interval& a, const PairDim& t,
                  EndpointSum& sum) const {
    sum.Add(power_.Pow(a.MaxDist(t.r_lo)) - t.b_min[0],
            power_.Pow(a.MaxDist(t.r_hi)) - t.b_min[1]);
  }

  static constexpr size_t kInlineDims = 4;

  PairDim* dims() {
    return dim_ <= kInlineDims ? inline_.data() : spill_.data();
  }
  const PairDim* dims() const {
    return dim_ <= kInlineDims ? inline_.data() : spill_.data();
  }

  LpPower<P> power_;
  size_t dim_ = 0;
  std::array<PairDim, kInlineDims> inline_{};
  std::vector<PairDim> spill_;  // dim_ > kInlineDims
  double b_min_dist_ = 0.0;  // MinMax: MinDist(B, R)
  double b_max_dist_ = 0.0;  // MinMax: MaxDist(B, R)
};

namespace internal {

template <DominationCriterion C, class F>
decltype(auto) WithPower(const LpNorm& norm, F&& f) {
  switch (norm.p()) {
    case 1:
      return f(PairTerms<C, 1>(norm));
    case 2:
      return f(PairTerms<C, 2>(norm));
    default:
      return f(PairTerms<C, 0>(norm));
  }
}

}  // namespace internal

/// Calls f(PairTerms<C, P>(norm)) (empty terms) with the criterion and the
/// norm's order as template arguments. Callers dispatch once per engine
/// run or filter call and Reset the terms per pair.
template <class F>
decltype(auto) WithPairTerms(DominationCriterion criterion,
                             const LpNorm& norm, F&& f) {
  if (criterion == DominationCriterion::kMinMax) {
    return internal::WithPower<DominationCriterion::kMinMax>(norm, f);
  }
  return internal::WithPower<DominationCriterion::kOptimal>(norm, f);
}

}  // namespace updb

#endif  // UPDB_DOMINATION_KERNEL_H_
