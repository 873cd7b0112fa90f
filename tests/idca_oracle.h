// Brute-force reference of one IDCA run at refinement level h: no verdict
// is inherited from a coarser level and no pair is frozen. It
//
//   1. re-derives the complete-domination filter with the Rect-loop
//      oracle of domination_oracle.h,
//   2. deepens the target, the reference and every influence object to
//      level h,
//   3. brackets every candidate for every level-h (B', R') pair with
//      PDomGivenPair over all of the candidate's level-h partitions,
//      scaled by its existence, and
//   4. combines each pair's brackets with the nested-vector UGF and
//      weights the pair's count bounds by P(B')P(R').
//
// IdcaEngine inherits decided mass from ancestor levels, freezes fully
// decided pairs and stops deepening globally decided candidates. Complete
// domination is monotone under shrinking rectangles, so all three must
// reproduce this evaluation up to floating-point regrouping of the same
// mass sums. The oracle never calls IdcaEngine.

#ifndef UPDB_TESTS_IDCA_ORACLE_H_
#define UPDB_TESTS_IDCA_ORACLE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "domination/pdom.h"
#include "domination_oracle.h"
#include "gf/count_bounds.h"
#include "gf/ugf_reference.h"
#include "uncertain/database.h"
#include "uncertain/decomposition.h"

namespace updb {
namespace test_util {

struct IdcaOracleResult {
  size_t complete = 0;
  /// Influence objects in ascending id order (the linear filter's order).
  std::vector<const UncertainObject*> influence;
  /// Bounds on P(DomCount = k), k = 0..N-1; empty in predicate mode.
  CountDistributionBounds bounds{0};
  std::vector<ProbabilityBounds> influence_pdom;
  /// Bounds on P(DomCount < k); set in predicate mode only.
  ProbabilityBounds predicate_prob;
  /// (candidate partition, B', R') triples bracketed at level h.
  uint64_t triples = 0;
};

/// DomCount(target, reference) over every database object but `exclude`,
/// at refinement level `level` >= 1. IdcaEngine::ComputeDomCount(b, r)
/// is (db.object(b).pdf(), r, b); ComputeDomCountOfQuery(q, b) is
/// (q, db.object(b).pdf(), b). `predicate_k` switches to bounds on
/// P(DomCount < k).
inline IdcaOracleResult OracleDomCount(const UncertainDatabase& db,
                                       const Pdf& target, const Pdf& reference,
                                       ObjectId exclude, int level,
                                       DominationCriterion criterion,
                                       const LpNorm& norm,
                                       std::optional<size_t> predicate_k) {
  IdcaOracleResult out;
  for (const UncertainObject& a : db.objects()) {
    if (a.id() == exclude) continue;
    switch (OracleClassify(a.mbr(), target.bounds(), reference.bounds(),
                           criterion, norm)) {
      case DominationClass::kDominates:
        if (a.existentially_certain()) {
          ++out.complete;
        } else {
          out.influence.push_back(&a);
        }
        break;
      case DominationClass::kDominated:
        break;
      case DominationClass::kUndecided:
        out.influence.push_back(&a);
        break;
    }
  }
  const size_t C = out.influence.size();

  // The candidate-space threshold m = k - complete, or no predicate.
  size_t m = NestedVectorUgf::kNoTruncation;
  if (predicate_k) {
    if (*predicate_k <= out.complete) {
      out.predicate_prob = ProbabilityBounds{0.0, 0.0};
      return out;
    }
    if (*predicate_k > out.complete + C) {
      out.predicate_prob = ProbabilityBounds{1.0, 1.0};
      return out;
    }
    m = *predicate_k - out.complete;
  }

  DecompositionTree target_tree(&target);
  DecompositionTree ref_tree(&reference);
  target_tree.DeepenTo(level);
  ref_tree.DeepenTo(level);
  const std::vector<Partition> target_parts = target_tree.Partitions();
  const std::vector<Partition> ref_parts = ref_tree.Partitions();
  std::vector<std::vector<Partition>> cand_parts;
  for (const UncertainObject* a : out.influence) {
    DecompositionTree tree(&a->pdf());
    tree.DeepenTo(level);
    cand_parts.push_back(tree.Partitions());
  }

  CountDistributionBounds agg = CountDistributionBounds::Zero(C + 1);
  ProbabilityBounds lt{0.0, 0.0};
  std::vector<ProbabilityBounds> pdom(C, ProbabilityBounds{0.0, 0.0});
  for (const Partition& bp : target_parts) {
    for (const Partition& rp : ref_parts) {
      const double w = bp.mass * rp.mass;
      NestedVectorUgf ugf(m);
      for (size_t i = 0; i < C; ++i) {
        ProbabilityBounds pb = PDomGivenPair(cand_parts[i], bp.region,
                                             rp.region, criterion, norm);
        const double e = out.influence[i]->existence();
        pb.lb *= e;
        pb.ub *= e;
        ugf.Multiply(pb);
        pdom[i].lb += w * pb.lb;
        pdom[i].ub += w * pb.ub;
        out.triples += cand_parts[i].size();
      }
      if (predicate_k) {
        const ProbabilityBounds p = ugf.ProbLessThan(m);
        lt.lb += w * p.lb;
        lt.ub += w * p.ub;
      } else {
        agg.AccumulateWeighted(ugf.Bounds(), w);
      }
    }
  }

  for (ProbabilityBounds& p : pdom) p.Normalize();
  out.influence_pdom = std::move(pdom);
  if (predicate_k) {
    lt.Normalize();
    out.predicate_prob = lt;
  } else {
    agg.Normalize();
    agg.ShiftRightInto(out.complete, db.size(), &out.bounds);
  }
  return out;
}

}  // namespace test_util
}  // namespace updb

#endif  // UPDB_TESTS_IDCA_ORACLE_H_
