#include "gf/count_bounds.h"

#include <algorithm>

#include "gf/kernels.h"

namespace updb {

CountDistributionBounds::CountDistributionBounds(size_t num_ranks)
    : lb_(num_ranks, 0.0), ub_(num_ranks, 1.0) {}

CountDistributionBounds CountDistributionBounds::Zero(size_t num_ranks) {
  CountDistributionBounds b(num_ranks);
  std::fill(b.ub_.begin(), b.ub_.end(), 0.0);
  return b;
}

CountDistributionBounds CountDistributionBounds::Exact(
    std::vector<double> pdf) {
  CountDistributionBounds b(pdf.size());
  b.lb_ = pdf;
  b.ub_ = std::move(pdf);
  return b;
}

void CountDistributionBounds::Assign(size_t num_ranks, double lb,
                                     double ub) {
  lb_.assign(num_ranks, lb);
  ub_.assign(num_ranks, ub);
}

void CountDistributionBounds::Set(size_t k, double lb, double ub) {
  UPDB_DCHECK(k < lb_.size());
  lb_[k] = lb;
  ub_[k] = ub;
}

double CountDistributionBounds::TotalUncertainty() const {
  double u = 0.0;
  for (size_t k = 0; k < lb_.size(); ++k) u += ub_[k] - lb_[k];
  return u;
}

ProbabilityBounds CountDistributionBounds::ProbLessThan(size_t k) const {
  // The count's support is 0..num_ranks-1, so any threshold at or beyond
  // the rank window is certain: P(Count < k) = 1. Clamping k to the window
  // instead would pit a vacuous below-sum against the exact complement and
  // collapse the broken bracket to a meaningless midpoint.
  if (k >= lb_.size()) return ProbabilityBounds{1.0, 1.0};
  const gf::GfKernels& K = gf::ActiveKernels();
  const double sum_lb_below = K.block_sum(lb_.data(), k);
  const double sum_ub_below = K.block_sum(ub_.data(), k);
  const double sum_lb_above = K.block_sum(lb_.data() + k, lb_.size() - k);
  const double sum_ub_above = K.block_sum(ub_.data() + k, ub_.size() - k);
  ProbabilityBounds out;
  out.lb = std::max(sum_lb_below, 1.0 - sum_ub_above);
  out.ub = std::min(sum_ub_below, 1.0 - sum_lb_above);
  out.Normalize();
  return out;
}

ProbabilityBounds CountDistributionBounds::ExpectedRank() const {
  const size_t n = lb_.size();
  // Baseline: every rank takes its guaranteed mass lb[k].
  double assigned = 0.0;
  double base = 0.0;
  for (size_t k = 0; k < n; ++k) {
    assigned += lb_[k];
    base += lb_[k] * static_cast<double>(k + 1);
  }
  double free_mass = std::clamp(1.0 - assigned, 0.0, 1.0);

  // Lower bound: pour the free mass into the smallest ranks first, capped
  // by each rank's remaining capacity ub[k] - lb[k].
  double lo = base, remaining = free_mass;
  for (size_t k = 0; k < n && remaining > 0.0; ++k) {
    const double take = std::min(remaining, std::max(0.0, ub_[k] - lb_[k]));
    lo += take * static_cast<double>(k + 1);
    remaining -= take;
  }
  // Upper bound: largest ranks first.
  double hi = base;
  remaining = free_mass;
  for (size_t k = n; k-- > 0 && remaining > 0.0;) {
    const double take = std::min(remaining, std::max(0.0, ub_[k] - lb_[k]));
    hi += take * static_cast<double>(k + 1);
    remaining -= take;
  }
  return ProbabilityBounds{lo, hi};
}

CountDistributionBounds CountDistributionBounds::ShiftRight(
    size_t shift, size_t total_ranks) const {
  CountDistributionBounds out(0);
  ShiftRightInto(shift, total_ranks, &out);
  return out;
}

void CountDistributionBounds::ShiftRightInto(
    size_t shift, size_t total_ranks, CountDistributionBounds* out) const {
  UPDB_CHECK(shift + num_ranks() <= total_ranks);
  UPDB_CHECK(out != this);
  out->Assign(total_ranks, 0.0, 0.0);
  std::copy(lb_.begin(), lb_.end(), out->lb_.begin() + shift);
  std::copy(ub_.begin(), ub_.end(), out->ub_.begin() + shift);
}

void CountDistributionBounds::AccumulateWeighted(
    const CountDistributionBounds& other, double weight) {
  UPDB_CHECK(other.num_ranks() == num_ranks());
  UPDB_DCHECK(weight >= 0.0);
  const gf::GfKernels& K = gf::ActiveKernels();
  K.axpy(lb_.data(), other.lb_.data(), lb_.size(), weight);
  K.axpy(ub_.data(), other.ub_.data(), ub_.size(), weight);
}

void CountDistributionBounds::Normalize() {
  for (size_t k = 0; k < lb_.size(); ++k) {
    lb_[k] = std::clamp(lb_[k], 0.0, 1.0);
    ub_[k] = std::clamp(ub_[k], 0.0, 1.0);
    if (lb_[k] > ub_[k]) {
      const double mid = 0.5 * (lb_[k] + ub_[k]);
      lb_[k] = ub_[k] = mid;
    }
  }
}

bool CountDistributionBounds::Brackets(std::span<const double> pdf,
                                       double tol) const {
  if (pdf.size() != lb_.size()) return false;
  for (size_t k = 0; k < pdf.size(); ++k) {
    if (pdf[k] < lb_[k] - tol || pdf[k] > ub_[k] + tol) return false;
  }
  return true;
}

}  // namespace updb
