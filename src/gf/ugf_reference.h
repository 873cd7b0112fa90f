// Copyright 2026 The updb Authors.
// Reference implementation of the uncertain generating function backed by
// nested std::vector storage — the seed's representation, which the flat
// SoA UgfBatch workspace replaced. It allocates a brand-new row set on
// every Multiply and takes no degenerate-factor fast paths, which makes it
//
//   * the oracle for the equivalence tests: it transcribes the blocked
//     accumulation order of gf/kernels.h literally (gathered cells, 4-way
//     interleaved row sums), so UgfBatch must match it bit for bit under
//     both dispatch tables on arbitrary factor sequences, and
//   * the baseline for bench_hotpath_scaling's "vs seed" speedup series.
//
// Not part of the public API (updb.h does not export it); tests and benches
// include it directly. UgfBatch is strictly faster.

#ifndef UPDB_GF_UGF_REFERENCE_H_
#define UPDB_GF_UGF_REFERENCE_H_

#include <cstddef>
#include <limits>
#include <vector>

#include "gf/count_bounds.h"

namespace updb {

/// Nested-vector uncertain generating function (reference oracle).
class NestedVectorUgf {
 public:
  static constexpr size_t kNoTruncation = std::numeric_limits<size_t>::max();

  explicit NestedVectorUgf(size_t truncate_at = kNoTruncation);

  /// Multiplies in one factor; allocates a fresh row set (the cost the
  /// flat UgfBatch workspace eliminates).
  void Multiply(double p_lb, double p_ub);
  void Multiply(const ProbabilityBounds& b) { Multiply(b.lb, b.ub); }

  size_t num_factors() const { return num_factors_; }
  CountDistributionBounds Bounds() const;
  ProbabilityBounds ProbLessThan(size_t m) const;
  double Coefficient(size_t i, size_t j) const;
  double OverflowMass() const { return overflow_; }

 private:
  bool truncated() const { return truncate_at_ != kNoTruncation; }
  size_t RowSize(size_t i) const;

  size_t truncate_at_;
  size_t num_factors_ = 0;
  // rows_[i][j] = c_{i,j}. Untruncated: i = 0..n, j = 0..n-i.
  // Truncated: i = 0..k-1, j = 0..k-i with slot k-i meaning "i+j >= k".
  std::vector<std::vector<double>> rows_;
  double overflow_ = 0.0;
};

}  // namespace updb

#endif  // UPDB_GF_UGF_REFERENCE_H_
