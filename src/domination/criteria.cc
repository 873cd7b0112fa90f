#include "domination/criteria.h"

#include "domination/kernel.h"

namespace updb {

bool MinMaxDominates(const Rect& a, const Rect& b, const Rect& r,
                     const LpNorm& norm) {
  return Dominates(a, b, r, DominationCriterion::kMinMax, norm);
}

bool OptimalDominates(const Rect& a, const Rect& b, const Rect& r,
                      const LpNorm& norm) {
  return Dominates(a, b, r, DominationCriterion::kOptimal, norm);
}

bool Dominates(const Rect& a, const Rect& b, const Rect& r,
               DominationCriterion criterion, const LpNorm& norm) {
  UPDB_DCHECK(a.dim() == b.dim() && b.dim() == r.dim());
  return WithPairTerms(criterion, norm, [&](auto terms) {
    terms.Reset(b.sides(), r.sides());
    return Dominates(terms, a.sides());
  });
}

DominationClass ClassifyDomination(const Rect& a, const Rect& b,
                                   const Rect& r,
                                   DominationCriterion criterion,
                                   const LpNorm& norm) {
  UPDB_DCHECK(a.dim() == b.dim() && b.dim() == r.dim());
  return WithPairTerms(criterion, norm, [&](auto terms) {
    terms.Reset(b.sides(), r.sides());
    return Classify(terms, a.sides());
  });
}

}  // namespace updb
