#include "gf/ugf_batch.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

// Implementation notes.
//
// The expansion recurrence for one factor (w_x = p_lb, w_y = p_ub - p_lb,
// w_1 = 1 - p_ub) is
//
//   next[i][j] = cur[i][j]*w_1 + cur[i-1][j]*w_x + cur[i][j-1]*w_y,
//
// with truncated mode clamping j into the per-row tail bucket and i into
// the overflow cell. Both modes run out-of-place (flat_ -> scratch_, then
// swap) so each destination cell is *gathered* from its sources in the one
// fused chain the kernel contract fixes (gf/kernels.h), every cell kLanes
// doubles wide with per-lane weight vectors. Edges with an absent source
// pass a zero lane-vector, so the whole pass stays in the SoA kernels.
// Bounds and ProbLessThanAll reduce rows with the contract's blocked sums.

namespace updb {

using gf::ActiveKernels;
using gf::GfKernels;
using gf::kSoaLanes;

namespace {

alignas(32) constexpr double kZeros4[kSoaLanes] = {0.0, 0.0, 0.0, 0.0};

}  // namespace

void UgfBatch::Begin(size_t truncate_at, size_t active_lanes) {
  UPDB_CHECK(truncate_at >= 1);
  UPDB_CHECK(active_lanes >= 1 && active_lanes <= kLanes);
  truncate_at_ = truncate_at;
  active_lanes_ = active_lanes;
  num_factors_ = 0;
  core_n_ = 0;
  ones_shift_ = 0;
  zeros_pad_ = 0;
  num_rows_ = 1;
  bounds_ready_ = false;
  for (size_t l = 0; l < kLanes; ++l) overflow_[l] = 0.0;
  // The buffers alternate roles across multiplies, so after a pass one of
  // them is a triangle smaller than the other. Equalize capacities here
  // (never inside MultiplyFactors) so replays at or below the high-water
  // mark never allocate, whichever buffer ends up as the scratch.
  const size_t cap = std::max(flat_.capacity(), scratch_.capacity());
  flat_.reserve(cap);
  scratch_.reserve(cap);
  const size_t row0 = truncated() ? truncate_at_ + 1 : 1;
  flat_.assign(row0 * kLanes, 0.0);
  for (size_t l = 0; l < kLanes; ++l) flat_[l] = 1.0;  // F^0 = 1, all lanes
}

void UgfBatch::Reserve(size_t num_factors, size_t truncate_at) {
  UPDB_CHECK(truncate_at >= 1);
  // Untruncated, the triangle of n factors has (n+1)(n+2)/2 cells over
  // n + 1 ranks. Truncated at k, it has at most min(n + 1, k) rows of
  // TruncRowOffset's sizes over min(n + 1, k) ranks; Begin() itself
  // materializes row 0 with its k + 1 cells.
  size_t cells = 0;
  size_t ranks = num_factors + 1;
  if (truncate_at == kNoTruncation) {
    cells = (num_factors + 1) * (num_factors + 2) / 2;
  } else {
    const size_t rows = std::min(num_factors + 1, truncate_at);
    cells = std::max(rows * (truncate_at + 1) - rows * (rows - 1) / 2,
                     truncate_at + 1);
    ranks = rows;
  }
  flat_.reserve(cells * kLanes);
  scratch_.reserve(cells * kLanes);
  bounds_lb_.reserve(ranks * kLanes);
  bounds_ub_.reserve(ranks * kLanes);
  diff_.reserve((ranks + 1) * kLanes);
}

void UgfBatch::MultiplyFactors(const double* lb4, const double* ub4) {
  UPDB_DCHECK(active_lanes_ >= 1);
  total_multiplies_ += active_lanes_;
  bounds_ready_ = false;
  alignas(32) double w_x4[kLanes];
  alignas(32) double w_y4[kLanes];
  alignas(32) double w_14[kLanes];
  bool all_zero = true;  // every active lane a (0,0) factor
  bool all_one = true;   // every active lane a (1,1) factor
  for (size_t l = 0; l < kLanes; ++l) {
    double lb = 0.0, ub = 0.0;  // padding lanes carry neutral (0,0)
    if (l < active_lanes_) {
      lb = std::clamp(lb4[l], 0.0, 1.0);
      ub = std::clamp(ub4[l], 0.0, 1.0);
      UPDB_DCHECK(lb <= ub);
      all_zero = all_zero && ub == 0.0;
      all_one = all_one && lb == 1.0;
    }
    w_x4[l] = lb;
    w_y4[l] = ub - lb;
    w_14[l] = 1.0 - ub;
  }

  if (!truncated()) {
    // Group-wide symbolic fast paths, only when every active lane
    // degenerates the same way; a mixed group multiplies through
    // materially, with the degenerate lanes' exact-0/1 weights preserving
    // their coefficients bit for bit.
    if (all_zero) {
      ++zeros_pad_;
      ++num_factors_;
      return;
    }
    if (all_one) {
      ++ones_shift_;
      ++num_factors_;
      return;
    }
    MultiplyUntruncated(w_x4, w_y4, w_14);
    return;
  }

  if (all_zero) {
    // (0,0) everywhere: only the materialized row count may grow.
    ++num_factors_;
    const size_t rows = std::min(num_factors_ + 1, truncate_at_);
    if (rows > num_rows_) {
      num_rows_ = rows;
      flat_.resize(TruncRowOffset(num_rows_) * kLanes, 0.0);
    }
    return;
  }
  MultiplyTruncated(w_x4, w_y4, w_14);
}

void UgfBatch::MultiplyUntruncated(const double* w_x4, const double* w_y4,
                                   const double* w_14) {
  const GfKernels& K = ActiveKernels();
  const size_t n_old = core_n_;
  const size_t n_new = n_old + 1;
  scratch_.resize_uninitialized((n_new + 1) * (n_new + 2) / 2 * kLanes);
  size_t off_old_prev = 0;  // old row i-1, in cells
  size_t off_old = 0;       // old row i
  size_t off_new = 0;
  for (size_t i = 0; i <= n_new; ++i) {
    const size_t L = n_new - i + 1;
    double* dst = scratch_.data() + off_new * kLanes;
    if (i == 0) {
      const double* self = flat_.data();
      K.conv_cells4_nb(dst, kZeros4, self, 1, w_y4, w_14);
      if (L >= 3) {
        K.conv_cells4_nb(dst + kLanes, self, self + kLanes, L - 2, w_y4,
                         w_14);
      }
      K.conv_cells4_nb(dst + (L - 1) * kLanes, self + (L - 2) * kLanes,
                       kZeros4, 1, w_y4, w_14);
    } else if (i <= n_old) {
      const double* below = flat_.data() + off_old_prev * kLanes;
      const double* self = flat_.data() + off_old * kLanes;
      K.conv_cells4(dst, below, kZeros4, self, 1, w_x4, w_y4, w_14);
      if (L >= 3) {
        K.conv_cells4(dst + kLanes, below + kLanes, self, self + kLanes,
                      L - 2, w_x4, w_y4, w_14);
      }
      K.conv_cells4(dst + (L - 1) * kLanes, below + (L - 1) * kLanes,
                    self + (L - 2) * kLanes, kZeros4, 1, w_x4, w_y4, w_14);
    } else {  // i == n_new: fed only by the x-step of old row n_old
      K.scale_cells4(dst, flat_.data() + off_old_prev * kLanes, 1, w_x4);
    }
    off_old_prev = off_old;
    if (i <= n_old) off_old += L - 1;
    off_new += L;
  }
  flat_.swap(scratch_);
  core_n_ = n_new;
  ++num_factors_;
}

void UgfBatch::MultiplyTruncated(const double* w_x4, const double* w_y4,
                                 const double* w_14) {
  const GfKernels& K = ActiveKernels();
  const size_t k = truncate_at_;
  const size_t n_new = num_factors_ + 1;
  const size_t old_rows = num_rows_;

  if (old_rows == k) {
    const double* top = flat_.data() + TruncRowOffset(k - 1) * kLanes;
    for (size_t l = 0; l < kLanes; ++l) {
      overflow_[l] = std::fma(top[kLanes + l], w_x4[l],
                              std::fma(top[l], w_x4[l], overflow_[l]));
    }
  }

  const size_t new_rows = std::min(n_new + 1, k);
  scratch_.resize_uninitialized(TruncRowOffset(new_rows) * kLanes);
  for (size_t i = 0; i < new_rows; ++i) {
    const size_t bucket = k - i;
    double* dst = scratch_.data() + TruncRowOffset(i) * kLanes;
    const double* self =
        i < old_rows ? flat_.data() + TruncRowOffset(i) * kLanes : nullptr;
    const double* below =
        i >= 1 ? flat_.data() + TruncRowOffset(i - 1) * kLanes : nullptr;
    if (self != nullptr && below != nullptr) {
      K.conv_cells4(dst, below, kZeros4, self, 1, w_x4, w_y4, w_14);
      if (bucket >= 2) {
        K.conv_cells4(dst + kLanes, below + kLanes, self, self + kLanes,
                      bucket - 1, w_x4, w_y4, w_14);
      }
      K.bucket_cells4(dst + bucket * kLanes, below + bucket * kLanes,
                      below + (bucket + 1) * kLanes,
                      self + (bucket - 1) * kLanes, self + bucket * kLanes,
                      w_x4, w_y4, w_14);
    } else if (self != nullptr) {  // i == 0
      K.conv_cells4_nb(dst, kZeros4, self, 1, w_y4, w_14);
      if (bucket >= 2) {
        K.conv_cells4_nb(dst + kLanes, self, self + kLanes, bucket - 1, w_y4,
                         w_14);
      }
      K.bucket_cells4(dst + bucket * kLanes, kZeros4, kZeros4,
                      self + (bucket - 1) * kLanes, self + bucket * kLanes,
                      w_x4, w_y4, w_14);
    } else {  // newly materialized row i == old_rows
      K.scale_cells4(dst, below, bucket, w_x4);
      K.bucket_cells4(dst + bucket * kLanes, below + bucket * kLanes,
                      below + (bucket + 1) * kLanes, kZeros4, kZeros4, w_x4,
                      w_y4, w_14);
    }
  }
  flat_.swap(scratch_);
  num_rows_ = new_rows;
  num_factors_ = n_new;
}

void UgfBatch::FinishBounds() {
  // Upper bounds via a difference array: a cell c_{i,j} admits every rank
  // in [i, i+j] (bucket cells: [i, end of the rank window]), so it
  // range-adds its mass — one blocked row sum into diff[rank of i], one
  // element-wise row subtraction off the range ends. A prefix sum then
  // yields all upper bounds in O(cells + ranks).
  const GfKernels& K = ActiveKernels();
  const size_t nr = num_ranks();
  diff_.assign((nr + 1) * kLanes, 0.0);
  alignas(32) double s4[kLanes];
  if (!truncated()) {
    const size_t s = ones_shift_;
    size_t off = 0;
    for (size_t i = 0; i <= core_n_; ++i) {
      const size_t row_len = core_n_ - i + 1;
      const double* row = flat_.data() + off * kLanes;
      K.block_sum4(row, row_len, s4);
      for (size_t l = 0; l < kLanes; ++l) diff_[(i + s) * kLanes + l] += s4[l];
      K.sub_cells4(diff_.data() + (i + s + 1) * kLanes, row, row_len);
      off += row_len;
    }
  } else {
    for (size_t i = 0; i < num_rows_; ++i) {
      const size_t bucket = truncate_at_ - i;
      const double* row = flat_.data() + TruncRowOffset(i) * kLanes;
      K.block_sum4(row, bucket + 1, s4);
      for (size_t l = 0; l < kLanes; ++l) diff_[i * kLanes + l] += s4[l];
      K.sub_cells4(diff_.data() + (i + 1) * kLanes, row,
                   std::min(bucket, nr - i));
    }
  }
  bounds_lb_.resize_uninitialized(nr * kLanes);
  bounds_ub_.resize_uninitialized(nr * kLanes);
  for (size_t l = 0; l < kLanes; ++l) {
    double ub = 0.0;
    for (size_t x = 0; x < nr; ++x) {
      ub += diff_[x * kLanes + l];
      double lb = 0.0;
      if (!truncated()) {
        if (x >= ones_shift_ && x - ones_shift_ <= core_n_) {
          lb = flat_[CoreRowOffset(x - ones_shift_) * kLanes + l];
        }
      } else if (x < num_rows_) {
        lb = flat_[TruncRowOffset(x) * kLanes + l];
      }
      bounds_lb_[x * kLanes + l] = lb;
      bounds_ub_[x * kLanes + l] = std::min(ub, 1.0);
    }
  }
  bounds_ready_ = true;
}

void UgfBatch::EmitBounds(size_t lane, CountDistributionBounds* out) const {
  UPDB_DCHECK(bounds_ready_);
  UPDB_DCHECK(lane < active_lanes_);
  const size_t nr = num_ranks();
  UPDB_CHECK(out->num_ranks() == nr);
  for (size_t x = 0; x < nr; ++x) {
    out->Set(x, bounds_lb_[x * kLanes + lane], bounds_ub_[x * kLanes + lane]);
  }
  out->Normalize();
}

CountDistributionBounds UgfBatch::Bounds(size_t lane) {
  if (!bounds_ready_) FinishBounds();
  CountDistributionBounds out = CountDistributionBounds::Zero(num_ranks());
  EmitBounds(lane, &out);
  return out;
}

void UgfBatch::ProbLessThanAll(size_t m, ProbabilityBounds* out) const {
  if (truncated()) UPDB_CHECK(m <= truncate_at_);
  const GfKernels& K = ActiveKernels();
  alignas(32) double s4[kLanes];
  double lb[kLanes] = {};
  double ub[kLanes] = {};
  if (!truncated()) {
    const size_t s = ones_shift_;
    size_t off = 0;
    for (size_t i = 0; i <= core_n_; ++i) {
      const size_t row_len = core_n_ - i + 1;
      const double* row = flat_.data() + off * kLanes;
      if (i + s < m) {
        K.block_sum4(row, row_len, s4);
        for (size_t l = 0; l < kLanes; ++l) ub[l] += s4[l];
        K.block_sum4(row, std::min(row_len, m - (i + s)), s4);
        for (size_t l = 0; l < kLanes; ++l) lb[l] += s4[l];
      }
      off += row_len;
    }
  } else {
    for (size_t i = 0; i < num_rows_; ++i) {
      const size_t bucket = truncate_at_ - i;
      const double* row = flat_.data() + TruncRowOffset(i) * kLanes;
      if (i < m) {
        K.block_sum4(row, bucket + 1, s4);
        for (size_t l = 0; l < kLanes; ++l) ub[l] += s4[l];
        K.block_sum4(row, std::min(bucket, m - i), s4);  // bucket excluded
        for (size_t l = 0; l < kLanes; ++l) lb[l] += s4[l];
      }
    }
  }
  for (size_t l = 0; l < kLanes; ++l) {
    out[l] = ProbabilityBounds{lb[l], ub[l]};
    out[l].Normalize();
  }
}

double UgfBatch::Coefficient(size_t lane, size_t i, size_t j) const {
  UPDB_DCHECK(lane < kLanes);
  if (truncated()) {
    if (i >= num_rows_ || j > truncate_at_ - i) return 0.0;
    return flat_[(TruncRowOffset(i) + j) * kLanes + lane];
  }
  if (i < ones_shift_) return 0.0;
  const size_t core_i = i - ones_shift_;
  if (core_i > core_n_ || j > core_n_ - core_i) return 0.0;
  return flat_[(CoreRowOffset(core_i) + j) * kLanes + lane];
}

}  // namespace updb
