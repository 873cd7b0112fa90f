// Copyright 2026 The updb Authors.
// The one body of every GfKernels entry, written as a function template
// over a 4-lane type V (the domination entries' body is in
// domination/lane_body.h). gf/kernels.cc instantiates these with a plain
// 4-double struct (the scalar table) and gf/kernels_avx2.cc with an
// __m256d wrapper (the AVX2+FMA table); nothing else includes this header.
// The blocked accumulation order of gf/kernels.h therefore exists here
// once, plus its literal transcription in the nested-vector oracle.
//
// V provides Zero(), Broadcast(w), Load(p) and Store(p) (unaligned, four
// doubles), lane-wise +, - and *, and a lane-wise fused Fma(a, b, c).
//
// One-TU rule: each lane type lives in an anonymous namespace of its
// translation unit, so every instantiation below has internal linkage.
// The bodies must call nothing else with external linkage that could be
// emitted out of line (no std:: algorithm templates, no non-template
// inline helpers): a weak copy compiled with -mavx2 -mfma could otherwise
// be the one the linker keeps for the scalar path. Scalar tails use
// std::fma on doubles, which is the C library function, never a weak
// symbol. CI checks kernels_avx2.cc.o for W, V and u symbols.

#ifndef UPDB_GF_KERNEL_BODIES_H_
#define UPDB_GF_KERNEL_BODIES_H_

#include <cmath>
#include <cstddef>

#include "domination/lane_body.h"
#include "gf/kernels.h"

namespace updb::gf {

template <class V>
double BlockSum(const double* x, size_t n) {
  V acc = V::Zero();
  size_t j = 0;
  for (; j + kSoaLanes <= n; j += kSoaLanes) acc = acc + V::Load(x + j);
  double a[kSoaLanes];
  acc.Store(a);
  for (; j < n; ++j) a[j & 3] += x[j];
  return (a[0] + a[1]) + (a[2] + a[3]);
}

template <class V>
void Axpy(double* dst, const double* src, size_t n, double w) {
  const V vw = V::Broadcast(w);
  size_t j = 0;
  for (; j + kSoaLanes <= n; j += kSoaLanes) {
    Fma(V::Load(src + j), vw, V::Load(dst + j)).Store(dst + j);
  }
  for (; j < n; ++j) dst[j] = std::fma(src[j], w, dst[j]);
}

template <class V>
void ShiftMulAdd(double* x, size_t n, double a, double b) {
  if (n == 0) return;
  const V va = V::Broadcast(a);
  const V vb = V::Broadcast(b);
  // Descending so each x[k-1] is read before it is overwritten; a 4-lane
  // step writes x[k-3..k] from the pre-step x[k-4..k].
  size_t k = n - 1;
  for (; k >= kSoaLanes; k -= kSoaLanes) {
    const V self = V::Load(x + k - 3);
    const V left = V::Load(x + k - 4);
    Fma(left, va, self * vb).Store(x + k - 3);
  }
  for (; k >= 1; --k) x[k] = std::fma(x[k - 1], a, x[k] * b);
  x[0] *= b;
}

template <class V>
void ConvCells4(double* dst, const double* below, const double* left,
                const double* self, size_t ncells, const double* w_x4,
                const double* w_y4, const double* w_14) {
  const V vx = V::Load(w_x4);
  const V vy = V::Load(w_y4);
  const V v1 = V::Load(w_14);
  for (size_t i = 0; i < ncells * kSoaLanes; i += kSoaLanes) {
    const V t = Fma(V::Load(left + i), vy, V::Load(below + i) * vx);
    Fma(V::Load(self + i), v1, t).Store(dst + i);
  }
}

template <class V>
void ConvCells4Nb(double* dst, const double* left, const double* self,
                  size_t ncells, const double* w_y4, const double* w_14) {
  const V vy = V::Load(w_y4);
  const V v1 = V::Load(w_14);
  for (size_t i = 0; i < ncells * kSoaLanes; i += kSoaLanes) {
    const V t = Fma(V::Load(left + i), vy, V::Zero());
    Fma(V::Load(self + i), v1, t).Store(dst + i);
  }
}

template <class V>
void ScaleCells4(double* dst, const double* src, size_t ncells,
                 const double* w4) {
  const V vw = V::Load(w4);
  for (size_t i = 0; i < ncells * kSoaLanes; i += kSoaLanes) {
    (V::Load(src + i) * vw).Store(dst + i);
  }
}

template <class V>
void BlockSum4(const double* x, size_t ncells, double* out4) {
  // Cell c goes into accumulator c mod 4; named accumulators (not an
  // indexed array) keep all four in registers.
  V acc0 = V::Zero();
  V acc1 = V::Zero();
  V acc2 = V::Zero();
  V acc3 = V::Zero();
  size_t c = 0;
  for (; c + 4 <= ncells; c += 4) {
    const double* p = x + c * kSoaLanes;
    acc0 = acc0 + V::Load(p);
    acc1 = acc1 + V::Load(p + kSoaLanes);
    acc2 = acc2 + V::Load(p + 2 * kSoaLanes);
    acc3 = acc3 + V::Load(p + 3 * kSoaLanes);
  }
  const double* p = x + c * kSoaLanes;
  if (c < ncells) acc0 = acc0 + V::Load(p);
  if (c + 1 < ncells) acc1 = acc1 + V::Load(p + kSoaLanes);
  if (c + 2 < ncells) acc2 = acc2 + V::Load(p + 2 * kSoaLanes);
  ((acc0 + acc1) + (acc2 + acc3)).Store(out4);
}

template <class V>
void SubCells4(double* dst, const double* src, size_t ncells) {
  for (size_t i = 0; i < ncells * kSoaLanes; i += kSoaLanes) {
    (V::Load(dst + i) - V::Load(src + i)).Store(dst + i);
  }
}

template <class V>
void BucketCells4(double* dst, const double* below0, const double* below1,
                  const double* left, const double* self, const double* w_x4,
                  const double* w_y4, const double* w_14) {
  const V vx = V::Load(w_x4);
  const V vy = V::Load(w_y4);
  const V vs = V::Load(self);
  V t = V::Load(below0) * vx;
  t = Fma(V::Load(below1), vx, t);
  t = Fma(V::Load(left), vy, t);
  t = Fma(vs, V::Load(w_14), t);
  Fma(vs, vy, t).Store(dst);
}

/// The dispatch table over lane type V.
template <class V>
constexpr GfKernels MakeKernels(const char* name) {
  return GfKernels{
      .name = name,
      .block_sum = BlockSum<V>,
      .axpy = Axpy<V>,
      .shift_mul_add = ShiftMulAdd<V>,
      .conv_cells4 = ConvCells4<V>,
      .conv_cells4_nb = ConvCells4Nb<V>,
      .scale_cells4 = ScaleCells4<V>,
      .block_sum4 = BlockSum4<V>,
      .sub_cells4 = SubCells4<V>,
      .bucket_cells4 = BucketCells4<V>,
      .classify_minmax = {ClassifyRunLanes<V, DominationCriterion::kMinMax, 1>,
                          ClassifyRunLanes<V, DominationCriterion::kMinMax, 2>},
      .classify_optimal = {
          ClassifyRunLanes<V, DominationCriterion::kOptimal, 1>,
          ClassifyRunLanes<V, DominationCriterion::kOptimal, 2>},
  };
}

}  // namespace updb::gf

#endif  // UPDB_GF_KERNEL_BODIES_H_
