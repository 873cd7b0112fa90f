// Copyright 2026 The updb Authors.
// Complete spatial domination on rectangular uncertainty regions
// (Section III-A). Two decision criteria are provided:
//
//  * MinMax  — the classic MaxDist(A,R) < MinDist(B,R) test. Correct but
//              not tight: it ignores that both distances depend on the same
//              (unique) location of R.
//  * Optimal — Corollary 1, adopted from Emrich et al. (SIGMOD 2010):
//              per-dimension evaluation at the corners of R's projection,
//              Sum_i max_{r in {Rmin_i, Rmax_i}}
//                    (MaxDist(A_i, r)^p - MinDist(B_i, r)^p) < 0.
//              Detects every complete domination on rectangles.
//
// Both criteria decide PDom(A,B,R) = 1 regardless of the PDFs inside the
// rectangles (only the regions matter), which is what makes them usable as
// a filter under possible-world semantics.
//
// The functions below take Rects and are thin wrappers over the one
// domination kernel (domination/kernel.h), which the engine filter, the
// refinement loop and the RkNN candidate filter call directly on flat
// boxes with the (B, R) half of every term precomputed. They suit callers
// off the hot path (PDom bounds, the Monte-Carlo prefilter, tests). A NaN
// endpoint term of the optimal criterion — inf - inf of two powers that
// overflowed, which finite coordinates near sqrt(DBL_MAX) produce — keeps
// the test from firing.

#ifndef UPDB_DOMINATION_CRITERIA_H_
#define UPDB_DOMINATION_CRITERIA_H_

#include "geom/distance.h"
#include "geom/rect.h"

namespace updb {

/// Which complete-domination decision procedure to use. The experiments of
/// Figure 6 compare the two.
enum class DominationCriterion {
  kMinMax,
  kOptimal,
};

/// MinMax criterion: true iff MaxDist(A, R) < MinDist(B, R).
bool MinMaxDominates(const Rect& a, const Rect& b, const Rect& r,
                     const LpNorm& norm = LpNorm::Euclidean());

/// Optimal criterion (Corollary 1): true iff A is closer to R than B in
/// every possible world, i.e. PDom(A,B,R) = 1.
bool OptimalDominates(const Rect& a, const Rect& b, const Rect& r,
                      const LpNorm& norm = LpNorm::Euclidean());

/// Dispatches on `criterion`.
bool Dominates(const Rect& a, const Rect& b, const Rect& r,
               DominationCriterion criterion,
               const LpNorm& norm = LpNorm::Euclidean());

/// Three-way classification of the domination relation between A and B
/// w.r.t. R on complete regions.
enum class DominationClass {
  /// PDom(A,B,R) = 1: A dominates B in every possible world.
  kDominates,
  /// PDom(A,B,R) = 0: B dominates A in every world (Corollary 2 duality).
  kDominated,
  /// 0 < PDom(A,B,R) < 1 possible: neither region test fires.
  kUndecided,
};

/// Classifies A vs B w.r.t. R using `criterion` for both directions.
DominationClass ClassifyDomination(
    const Rect& a, const Rect& b, const Rect& r, DominationCriterion criterion,
    const LpNorm& norm = LpNorm::Euclidean());

}  // namespace updb

#endif  // UPDB_DOMINATION_CRITERIA_H_
