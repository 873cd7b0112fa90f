#include "gf/ugf_reference.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

// The oracle is written as the most literal possible transcription of the
// blocked accumulation order in gf/kernels.h: every destination cell is one
// uniform gather (ConvCell / BucketCell with absent sources passed as 0.0)
// and every row reduction is BlockSumScalar. No dispatch, no fast paths, no
// flat storage, no lanes — yet bit-identical to UgfBatch under either
// dispatch table on every input, because both follow that one order.

namespace updb {

namespace {

/// Contract item 1: the gathered convolution cell. Absent sources are
/// passed as exactly 0.0.
double ConvCell(double below, double left, double self, double w_x,
                double w_y, double w_1) {
  return std::fma(self, w_1, std::fma(left, w_y, below * w_x));
}

/// Truncated-mode tail-bucket cell: absorbs the clamped x-steps of the two
/// below-row columns spilling into the bucket, the clamped y-step of the
/// preceding column, and the cell's own stay/y terms — in that fixed order.
double BucketCell(double below0, double below1, double left, double self,
                  double w_x, double w_y, double w_1) {
  double t = below0 * w_x;
  t = std::fma(below1, w_x, t);
  t = std::fma(left, w_y, t);
  t = std::fma(self, w_1, t);
  t = std::fma(self, w_y, t);
  return t;
}

/// Contract item 2: element j into accumulator j mod 4, combined as
/// (a0 + a1) + (a2 + a3).
double BlockSumScalar(const double* x, size_t n) {
  double acc[4] = {0.0, 0.0, 0.0, 0.0};
  for (size_t j = 0; j < n; ++j) acc[j & 3] += x[j];
  return (acc[0] + acc[1]) + (acc[2] + acc[3]);
}

}  // namespace

NestedVectorUgf::NestedVectorUgf(size_t truncate_at)
    : truncate_at_(truncate_at) {
  UPDB_CHECK(truncate_at_ >= 1);
  rows_.resize(1);
  rows_[0].assign(RowSize(0), 0.0);
  rows_[0][0] = 1.0;  // F^0 = 1 x^0 y^0
}

size_t NestedVectorUgf::RowSize(size_t i) const {
  if (truncated()) {
    UPDB_DCHECK(i < truncate_at_);
    return truncate_at_ - i + 1;  // j = 0..k-i, last is the bucket
  }
  return num_factors_ - i + 1;  // j = 0..n-i
}

void NestedVectorUgf::Multiply(double p_lb, double p_ub) {
  p_lb = std::clamp(p_lb, 0.0, 1.0);
  p_ub = std::clamp(p_ub, 0.0, 1.0);
  UPDB_DCHECK(p_lb <= p_ub);
  const double w_x = p_lb;          // definite domination
  const double w_y = p_ub - p_lb;   // undecided
  const double w_1 = 1.0 - p_ub;    // definite non-domination

  const size_t n_old = num_factors_;
  const size_t n_new = n_old + 1;
  if (!truncated()) {
    std::vector<std::vector<double>> next(n_new + 1);
    for (size_t i = 0; i <= n_new; ++i) {
      next[i].assign(n_new - i + 1, 0.0);
      const std::vector<double>* below = i >= 1 ? &rows_[i - 1] : nullptr;
      const std::vector<double>* self = i <= n_old ? &rows_[i] : nullptr;
      for (size_t j = 0; j < next[i].size(); ++j) {
        const double b = below != nullptr ? (*below)[j] : 0.0;
        const double l =
            (self != nullptr && j >= 1) ? (*self)[j - 1] : 0.0;
        const double s =
            (self != nullptr && j < self->size()) ? (*self)[j] : 0.0;
        next[i][j] = ConvCell(b, l, s, w_x, w_y, w_1);
      }
    }
    rows_ = std::move(next);
    num_factors_ = n_new;
    return;
  }

  const size_t k = truncate_at_;
  // Overflow picks up the x-step of row k-1 (read before the pass), its
  // two cells chained in ascending j order.
  if (rows_.size() == k) {
    const std::vector<double>& top = rows_[k - 1];
    overflow_ = std::fma(top[1], w_x, std::fma(top[0], w_x, overflow_));
  }
  const size_t num_rows = std::min(n_new + 1, k);
  std::vector<std::vector<double>> next(num_rows);
  for (size_t i = 0; i < num_rows; ++i) {
    const size_t bucket = k - i;
    next[i].assign(bucket + 1, 0.0);
    const std::vector<double>* below = i >= 1 ? &rows_[i - 1] : nullptr;
    const std::vector<double>* self = i < rows_.size() ? &rows_[i] : nullptr;
    for (size_t j = 0; j < bucket; ++j) {
      const double b = below != nullptr ? (*below)[j] : 0.0;
      const double l = (self != nullptr && j >= 1) ? (*self)[j - 1] : 0.0;
      const double s = self != nullptr ? (*self)[j] : 0.0;
      next[i][j] = ConvCell(b, l, s, w_x, w_y, w_1);
    }
    // The tail bucket gathers the two clamped x-steps of the longer row
    // below, the clamped y-step of the preceding column, and its own
    // stay/y terms.
    const double b0 = below != nullptr ? (*below)[bucket] : 0.0;
    const double b1 = below != nullptr ? (*below)[bucket + 1] : 0.0;
    const double l = self != nullptr ? (*self)[bucket - 1] : 0.0;
    const double s = self != nullptr ? (*self)[bucket] : 0.0;
    next[i][bucket] = BucketCell(b0, b1, l, s, w_x, w_y, w_1);
  }
  rows_ = std::move(next);
  num_factors_ = n_new;
}

// The bound computations below mirror UgfBatch reduction for reduction
// (same difference-array construction, same blocked row sums) so the two
// stay bit-identical; only the storage differs.

CountDistributionBounds NestedVectorUgf::Bounds() const {
  const size_t num_ranks =
      truncated() ? std::min(truncate_at_, num_factors_ + 1)
                  : num_factors_ + 1;
  std::vector<double> diff(num_ranks + 1, 0.0);
  for (size_t i = 0; i < rows_.size(); ++i) {
    const std::vector<double>& row = rows_[i];
    diff[i] += BlockSumScalar(row.data(), row.size());
    const size_t sub_len =
        truncated() ? std::min(truncate_at_ - i, num_ranks - i) : row.size();
    for (size_t j = 0; j < sub_len; ++j) diff[i + 1 + j] -= row[j];
  }
  CountDistributionBounds out = CountDistributionBounds::Zero(num_ranks);
  double ub = 0.0;
  for (size_t x = 0; x < num_ranks; ++x) {
    ub += diff[x];
    const double lb = x < rows_.size() ? rows_[x][0] : 0.0;
    out.Set(x, lb, std::min(ub, 1.0));
  }
  out.Normalize();
  return out;
}

ProbabilityBounds NestedVectorUgf::ProbLessThan(size_t m) const {
  if (truncated()) UPDB_CHECK(m <= truncate_at_);
  double lb = 0.0;  // mass of cells whose whole interval [i, i+j] is < m
  double ub = 0.0;  // mass of cells that can realize a count < m (i < m)
  for (size_t i = 0; i < rows_.size() && i < m; ++i) {
    const std::vector<double>& row = rows_[i];
    ub += BlockSumScalar(row.data(), row.size());
    // Bucket cells (truncated mode) mean i+j >= k >= m, so they never
    // join the lower bound.
    const size_t full = truncated() ? truncate_at_ - i : row.size();
    lb += BlockSumScalar(row.data(), std::min(full, m - i));
  }
  ProbabilityBounds out{lb, ub};
  out.Normalize();
  return out;
}

double NestedVectorUgf::Coefficient(size_t i, size_t j) const {
  if (i >= rows_.size() || j >= rows_[i].size()) return 0.0;
  return rows_[i][j];
}

}  // namespace updb
