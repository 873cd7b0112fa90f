// Copyright 2026 The updb Authors.
// Container for the conservatively/progressively bounded PDF of an integer
// count random variable (the probabilistic domination count, Definition 3).
// DomCountLB / DomCountUB of Algorithm 1 are a CountDistributionBounds.

#ifndef UPDB_GF_COUNT_BOUNDS_H_
#define UPDB_GF_COUNT_BOUNDS_H_

#include <cstddef>
#include <span>
#include <vector>

#include "domination/pdom.h"

namespace updb {

/// Per-rank probability bounds lb[k] <= P(Count = k) <= ub[k] for
/// k = 0..num_ranks-1, plus derived quantities.
class CountDistributionBounds {
 public:
  /// Vacuous bounds [0, 1] for every rank.
  explicit CountDistributionBounds(size_t num_ranks);

  /// All-zero bounds, the identity for AccumulateWeighted.
  static CountDistributionBounds Zero(size_t num_ranks);

  /// Exact distribution: lb == ub == pdf.
  static CountDistributionBounds Exact(std::vector<double> pdf);

  /// Resizes to `num_ranks` ranks, each bounded [lb, ub], keeping
  /// capacity — the in-place form of the constructor and Zero() for
  /// accumulators reused across runs.
  void Assign(size_t num_ranks, double lb, double ub);

  size_t num_ranks() const { return lb_.size(); }
  double lb(size_t k) const { return lb_[k]; }
  double ub(size_t k) const { return ub_[k]; }
  void Set(size_t k, double lb, double ub);

  /// Sum_k (ub[k] - lb[k]) — the paper's "accumulated uncertainty" metric
  /// (Figure 6(b)); 0 means the distribution is known exactly.
  double TotalUncertainty() const;

  /// Bounds on P(Count < k). Combines the per-rank sums with the
  /// complement (1 - P(Count >= k)) for the tightest derivable bracket.
  ProbabilityBounds ProbLessThan(size_t k) const;

  /// Bounds on the expected rank E[Count + 1] (Corollary 6), obtained by
  /// distributing the not-yet-assigned probability mass to the smallest
  /// (for the lower bound) or largest (upper bound) admissible ranks.
  ProbabilityBounds ExpectedRank() const;

  /// Returns a copy embedded into an array of `total_ranks` ranks with the
  /// counts shifted up by `shift` (the ShiftRight of Algorithm 1, applied
  /// for the CompleteDominationCount). Ranks outside the embedded window
  /// get exact probability 0. Requires shift + num_ranks() <= total_ranks.
  CountDistributionBounds ShiftRight(size_t shift, size_t total_ranks) const;

  /// ShiftRight into `out`, reusing its capacity.
  void ShiftRightInto(size_t shift, size_t total_ranks,
                      CountDistributionBounds* out) const;

  /// this += weight * other (per-rank, both lb and ub) — the disjunctive
  /// worlds aggregation of Section IV-E. Rank counts must match.
  void AccumulateWeighted(const CountDistributionBounds& other, double weight);

  /// Clamps bounds into [0, 1] and repairs lb <= ub per rank.
  void Normalize();

  /// True if `pdf` (a full PDF over the same ranks) lies within bounds,
  /// allowing `tol` slack per rank; used by tests.
  bool Brackets(std::span<const double> pdf, double tol) const;

 private:
  std::vector<double> lb_;
  std::vector<double> ub_;
};

}  // namespace updb

#endif  // UPDB_GF_COUNT_BOUNDS_H_
