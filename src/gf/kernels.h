// Copyright 2026 The updb Authors.
// Runtime-dispatched compute kernels for the probability layer: the UgfBatch
// coefficient convolution and bound reductions, the CountDistributionBounds
// prefix reductions and element-wise accumulations, and the
// Poisson-binomial in-place convolution all route through one
// function-pointer table (GfKernels). One table is the portable scalar
// implementation; a second, compiled in its own translation unit with
// -mavx2 -mfma (gf/kernels_avx2.cc), is selected at startup when cpuid
// reports AVX2+FMA. `UPDB_FORCE_SCALAR=1` (or ForceScalarKernels(true))
// pins the scalar table; the selected table's name is surfaced through
// /statusz and the updb_cli banners.
//
// ## The blocked accumulation order (bit-identity contract)
//
// Floating-point addition is not associative, so the repo fixes ONE
// accumulation order. Each kernel body is written once, as a template over
// a 4-lane type (gf/kernel_bodies.h), and both tables instantiate it: the
// scalar table with a plain 4-double struct, the AVX2+FMA table with an
// __m256d wrapper. The nested-vector reference oracle (gf/ugf_reference.cc)
// transcribes the same order cell by cell. Equivalence tests therefore
// compare with EXPECT_EQ, never tolerances:
//
//  1. Convolution cells are *gathered*: each destination cell is computed
//     from its (at most three) source cells in one fused chain
//
//         t = fma(self, w1, fma(left, wy, below * wx))
//
//     with an absent source contributing exactly +0.0 (truncated-mode tail
//     buckets use a longer fixed chain, see bucket_cells4). fma() is
//     correctly rounded, so the per-lane std::fma chain and the vector
//     _mm256_fmadd_pd chain produce the same bits on every input, and
//     there is no cross-cell accumulation to reassociate at all.
//  2. Row reductions use a 4-way interleaved blocked sum: element j is
//     added into accumulator j mod 4 (in ascending j order) and the four
//     accumulators combine as (a0 + a1) + (a2 + a3). One 4-lane
//     accumulator with the same final combine is that order by
//     construction — and so is the per-lane form the SoA kernels use.
//  3. Weighted accumulation (axpy) is element-wise dst = fma(src, w, dst);
//     range subtraction is element-wise dst -= src. Element-wise ops are
//     trivially order-free.
//
// All coefficient masses are non-negative, so adding a +0.0 contribution
// (absent source, zero-mass cell, or padding beyond a shorter logical row)
// never changes an accumulator bit — which is what makes the degenerate
// (0,0)/(1,1) fast paths and the batch's materialized zero rows bit-exact
// shortcuts of the general path rather than waived special cases.
//
// The table also carries the lane copy of the domination kernel's Classify
// (classify_minmax / classify_optimal, body in domination/lane_body.h):
// four boxes per step, the same operations as the per-box Classify in the
// same order, so both tables return its verdicts bit for bit
// (domination/kernel.h).

#ifndef UPDB_GF_KERNELS_H_
#define UPDB_GF_KERNELS_H_

#include <cstddef>

namespace updb {
class Interval;
struct PairDim;
enum class DominationClass;
}  // namespace updb

namespace updb::gf {

/// Lane count of the batched (structure-of-arrays) kernels; one AVX2
/// vector of doubles. SoA buffers store cell c of lane l at [c*4 + l].
inline constexpr size_t kSoaLanes = 4;

/// Classifies boxes[0..n) against one (B', R') pair, writing out[j] =
/// Classify(terms, box j): `dims`/`dim` are the pair's per-dimension terms,
/// min_dist/max_dist MinMax's MinDist/MaxDist(B, R), and every box points
/// at `dim` Intervals (domination/kernel.h, PairTerms::ClassifyRun).
using ClassifyRunFn = void (*)(const PairDim* dims, size_t dim,
                               double min_dist, double max_dist,
                               const Interval* const* boxes, size_t n,
                               DominationClass* out);

/// The dispatch table. Every entry implements the blocked accumulation
/// order above; tables differ only in instruction selection.
struct GfKernels {
  /// Selected-path name, e.g. "scalar" or "avx2+fma".
  const char* name;

  // ---- contiguous-row kernels.
  /// Blocked 4-way interleaved sum of x[0..n).
  double (*block_sum)(const double* x, size_t n);
  /// dst[j] = fma(src[j], w, dst[j]) for j in [0, n).
  void (*axpy)(double* dst, const double* src, size_t n, double w);
  /// In-place descending two-term convolution (Poisson binomial):
  /// x[k] = fma(x[k-1], a, x[k] * b) for k = n-1..1, then x[0] *= b.
  void (*shift_mul_add)(double* x, size_t n, double a, double b);

  // ---- SoA kernels (kSoaLanes lanes per cell, per-lane weights). Every
  // cell is exactly one vector, so there is never a remainder to peel.
  /// Per cell c, lane l, with i = c*4+l: the contract item 1 gather
  /// dst[i] = fma(self[i], w_1[l], fma(left[i], w_y[l], below[i] * w_x[l])).
  void (*conv_cells4)(double* dst, const double* below, const double* left,
                      const double* self, size_t ncells, const double* w_x4,
                      const double* w_y4, const double* w_14);
  /// No-below variant of conv_cells4 (below * w_x taken as +0.0).
  void (*conv_cells4_nb)(double* dst, const double* left, const double* self,
                         size_t ncells, const double* w_y4,
                         const double* w_14);
  /// Per cell c, lane l: dst[c*4+l] = src[c*4+l] * w4[l].
  void (*scale_cells4)(double* dst, const double* src, size_t ncells,
                       const double* w4);
  /// Per-lane blocked sum over cells: out4[l] = BlockSum of x[c*4+l].
  void (*block_sum4)(const double* x, size_t ncells, double* out4);
  /// Per cell c, lane l: dst[c*4+l] -= src[c*4+l].
  void (*sub_cells4)(double* dst, const double* src, size_t ncells);
  /// One truncated-mode tail-bucket cell (4 lanes). It absorbs the clamped
  /// x-steps of the two below-row columns spilling into the bucket, the
  /// clamped y-step of the preceding column, and the cell's own stay/y
  /// terms, chained in that fixed order:
  /// t = below0*w_x; t = fma(below1, w_x, t); t = fma(left, w_y, t);
  /// t = fma(self, w_1, t); dst = fma(self, w_y, t).
  void (*bucket_cells4)(double* dst, const double* below0,
                        const double* below1, const double* left,
                        const double* self, const double* w_x4,
                        const double* w_y4, const double* w_14);

  // ---- domination kernel, indexed by p - 1 for p = 1, 2.
  /// MinMax criterion: Root(sum of MaxDist powers) < min_dist dominates,
  /// max_dist < Root(sum of MinDist powers) is dominated.
  ClassifyRunFn classify_minmax[2];
  /// Optimal criterion (Corollary 1), both directions in one pass.
  ClassifyRunFn classify_optimal[2];
};

/// The portable scalar table — the bit-exact oracle for every other table.
const GfKernels& ScalarKernels();

/// The table selected for this process: the AVX2+FMA table when the CPU
/// supports both and no override is active, else the scalar table. The
/// selection is cached; reading it is one relaxed atomic load.
const GfKernels& ActiveKernels();

/// ActiveKernels().name.
const char* ActiveKernelName();

/// True when an AVX2+FMA table was compiled in and the CPU supports it
/// (regardless of any forced-scalar override).
bool VectorKernelsAvailable();

/// Pins (or unpins) the scalar table, overriding cpuid selection — the
/// in-process hook behind the UPDB_FORCE_SCALAR environment variable,
/// also used by the equivalence tests and the scalar-vs-vector bench rows.
void ForceScalarKernels(bool force);

/// Defined in gf/kernels_avx2.cc: the vector table, or nullptr when the
/// translation unit was built for a non-x86 target.
const GfKernels* Avx2Kernels();

}  // namespace updb::gf

#endif  // UPDB_GF_KERNELS_H_
