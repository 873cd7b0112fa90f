// Oracle of the domination kernel (domination/kernel.h): the per-call Rect
// formulation of both criteria, one LpNorm::Pow/MinDist/MaxDist call per
// term, exactly as the library computed it before the kernel hoisted the
// (B, R) operands. The kernel must reproduce every verdict bit for bit.
// The only change is the overflow fix: a NaN term (inf - inf of two
// overflowed powers) keeps the optimal test from firing.

#ifndef UPDB_TESTS_DOMINATION_ORACLE_H_
#define UPDB_TESTS_DOMINATION_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>

#include "domination/criteria.h"

namespace updb {
namespace test_util {

inline bool OracleMinMaxDominates(const Rect& a, const Rect& b, const Rect& r,
                                  const LpNorm& norm) {
  return norm.MaxDist(a, r) < norm.MinDist(b, r);
}

inline bool OracleOptimalDominates(const Rect& a, const Rect& b,
                                   const Rect& r, const LpNorm& norm) {
  double sum = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    const Interval& ai = a.side(i);
    const Interval& bi = b.side(i);
    const Interval& ri = r.side(i);
    double worst = -std::numeric_limits<double>::infinity();
    for (double rv : {ri.lo(), ri.hi()}) {
      const double term = norm.Pow(ai.MaxDist(rv)) - norm.Pow(bi.MinDist(rv));
      if (std::isnan(term)) return false;
      worst = std::max(worst, term);
    }
    sum += worst;
  }
  return sum < 0.0;
}

inline bool OracleDominates(const Rect& a, const Rect& b, const Rect& r,
                            DominationCriterion criterion,
                            const LpNorm& norm) {
  return criterion == DominationCriterion::kMinMax
             ? OracleMinMaxDominates(a, b, r, norm)
             : OracleOptimalDominates(a, b, r, norm);
}

inline DominationClass OracleClassify(const Rect& a, const Rect& b,
                                      const Rect& r,
                                      DominationCriterion criterion,
                                      const LpNorm& norm) {
  if (OracleDominates(a, b, r, criterion, norm)) {
    return DominationClass::kDominates;
  }
  if (OracleDominates(b, a, r, criterion, norm)) {
    return DominationClass::kDominated;
  }
  return DominationClass::kUndecided;
}

}  // namespace test_util
}  // namespace updb

#endif  // UPDB_TESTS_DOMINATION_ORACLE_H_
