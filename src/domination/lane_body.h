// Copyright 2026 The updb Authors.
// The one body of the gf::GfKernels classify_minmax / classify_optimal
// entries: PairTerms' Classify (domination/kernel.h) over four boxes at a
// time, written as a function template over a 4-lane type V. Only
// gf/kernel_bodies.h includes this header, so it is instantiated by the
// scalar table (gf/kernels.cc) and the AVX2 table (gf/kernels_avx2.cc)
// and by nothing else; the one-TU rule of gf/kernel_bodies.h applies.
//
// Each lane repeats Classify's operations on its own box, in the same
// order: Interval's MinDist/MaxDist (std::max is V's Max, which returns
// the first operand unless it is less than the second), LpPower's Pow
// (abs, then one multiply for p = 2) and Root (a correctly rounded sqrt),
// the dimension-order sums, EndpointSum's NaN flag (an unordered compare).
// Nothing fuses: the body calls no Fma, and the library builds with
// -ffp-contract=off. So a lane's verdict is Classify's, bit for bit, on
// every input.
//
// Beyond gf/kernel_bodies.h's interface, V provides Max(a, b), Abs(a),
// Sqrt(a), LessBits(a, b) and UnorderedBits(a, b) (bit l set iff lane l
// compares less / unordered), and LoadSides(boxes, i, lo, hi), which loads
// side i of four boxes lane by lane.

#ifndef UPDB_DOMINATION_LANE_BODY_H_
#define UPDB_DOMINATION_LANE_BODY_H_

#include <cstddef>

#include "domination/kernel.h"

namespace updb {

template <class V, int P>
V LanePow(V v) {
  const V a = Abs(v);
  if constexpr (P == 1) {
    return a;
  } else {
    return a * a;
  }
}

template <class V, int P>
V LaneRoot(V sum) {
  if constexpr (P == 1) {
    return sum;
  } else {
    return Sqrt(sum);
  }
}

/// Bits l of (dominates, dominated) for the four boxes of `lane`.
template <class V, DominationCriterion C, int P>
void ClassifyFour(const PairDim* dims, size_t dim, double min_dist,
                  double max_dist, const Interval* const* lane,
                  unsigned& dom, unsigned& ndom) {
  const V zero = V::Zero();
  if constexpr (C == DominationCriterion::kOptimal) {
    V fwd = zero;
    V rev = zero;
    unsigned fwd_nan = 0;
    unsigned rev_nan = 0;
    for (size_t i = 0; i < dim; ++i) {
      const PairDim& t = dims[i];
      V lo, hi;
      V::LoadSides(lane, i, lo, hi);
      const V r_lo = V::Broadcast(t.r_lo);
      const V r_hi = V::Broadcast(t.r_hi);
      // A dominates B: Pow(MaxDist(A_i, r)) - Pow(MinDist(B_i, r)).
      const V f0 = LanePow<V, P>(Max(Abs(r_lo - lo), Abs(hi - r_lo))) -
                   V::Broadcast(t.b_min[0]);
      const V f1 = LanePow<V, P>(Max(Abs(r_hi - lo), Abs(hi - r_hi))) -
                   V::Broadcast(t.b_min[1]);
      fwd = fwd + Max(f0, f1);
      fwd_nan |= UnorderedBits(f0, f1);
      // B dominates A: Pow(MaxDist(B_i, r)) - Pow(MinDist(A_i, r)).
      const V g0 = V::Broadcast(t.b_max[0]) -
                   LanePow<V, P>(Max(zero, Max(lo - r_lo, r_lo - hi)));
      const V g1 = V::Broadcast(t.b_max[1]) -
                   LanePow<V, P>(Max(zero, Max(lo - r_hi, r_hi - hi)));
      rev = rev + Max(g0, g1);
      rev_nan |= UnorderedBits(g0, g1);
    }
    dom = LessBits(fwd, zero) & ~fwd_nan;
    ndom = LessBits(rev, zero) & ~rev_nan;
  } else {
    V max_sum = zero;
    V min_sum = zero;
    for (size_t i = 0; i < dim; ++i) {
      const PairDim& t = dims[i];
      V lo, hi;
      V::LoadSides(lane, i, lo, hi);
      const V r_lo = V::Broadcast(t.r_lo);
      const V r_hi = V::Broadcast(t.r_hi);
      max_sum = max_sum + LanePow<V, P>(Max(Abs(r_hi - lo), Abs(hi - r_lo)));
      min_sum = min_sum + LanePow<V, P>(Max(zero, Max(r_lo - hi, lo - r_hi)));
    }
    dom = LessBits(LaneRoot<V, P>(max_sum), V::Broadcast(min_dist));
    ndom = LessBits(V::Broadcast(max_dist), LaneRoot<V, P>(min_sum));
  }
}

static_assert(static_cast<int>(DominationClass::kDominates) == 0 &&
              static_cast<int>(DominationClass::kDominated) == 1 &&
              static_cast<int>(DominationClass::kUndecided) == 2);

/// gf::ClassifyRunFn over lane type V: four boxes per step, the last step
/// padded with the run's last box.
template <class V, DominationCriterion C, int P>
void ClassifyRunLanes(const PairDim* dims, size_t dim, double min_dist,
                      double max_dist, const Interval* const* boxes, size_t n,
                      DominationClass* out) {
  for (size_t j = 0; j < n; j += 4) {
    const size_t live = n - j < 4 ? n - j : 4;
    const Interval* lane[4];
    for (size_t l = 0; l < 4; ++l) {
      lane[l] = boxes[j + (l < live ? l : live - 1)];
    }
    unsigned dom = 0;
    unsigned ndom = 0;
    ClassifyFour<V, C, P>(dims, dim, min_dist, max_dist, lane, dom, ndom);
    // kDominates if the dom bit is set, else kDominated if the ndom bit
    // is, else kUndecided — without a branch on data-dependent bits.
    for (size_t l = 0; l < live; ++l) {
      const unsigned d = dom >> l & 1u;
      const unsigned nd = ndom >> l & 1u;
      out[j + l] = static_cast<DominationClass>((1u - d) * (2u - nd));
    }
  }
}

}  // namespace updb

#endif  // UPDB_DOMINATION_LANE_BODY_H_
