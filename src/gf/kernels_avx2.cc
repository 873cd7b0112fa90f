// Copyright 2026 The updb Authors.
// The AVX2+FMA GfKernels table: the kernel bodies of gf/kernel_bodies.h
// instantiated over one __m256d per 4-lane value. This is the only
// translation unit compiled with -mavx2 -mfma (set per-file in
// CMakeLists.txt), so nothing here may be called unless cpuid reported
// AVX2+FMA — the dispatch in gf/kernels.cc guarantees that.
//
// _mm256_fmadd_pd is correctly rounded exactly like std::fma, and
// _mm256_sqrt_pd like std::sqrt, so this table and the scalar one produce
// identical bits from the same body.

#include "gf/kernels.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include "gf/kernel_bodies.h"

namespace updb::gf {

namespace {

/// The vector table's lane type. Lives in this TU's anonymous namespace
/// so every kernel instantiated over it has internal linkage.
struct Avx2Lanes {
  __m256d v;

  static Avx2Lanes Zero() { return {_mm256_setzero_pd()}; }
  static Avx2Lanes Broadcast(double w) { return {_mm256_set1_pd(w)}; }
  static Avx2Lanes Load(const double* p) { return {_mm256_loadu_pd(p)}; }
  void Store(double* p) const { _mm256_storeu_pd(p, v); }
  friend Avx2Lanes operator+(Avx2Lanes a, Avx2Lanes b) {
    return {_mm256_add_pd(a.v, b.v)};
  }
  friend Avx2Lanes operator-(Avx2Lanes a, Avx2Lanes b) {
    return {_mm256_sub_pd(a.v, b.v)};
  }
  friend Avx2Lanes operator*(Avx2Lanes a, Avx2Lanes b) {
    return {_mm256_mul_pd(a.v, b.v)};
  }
  friend Avx2Lanes Fma(Avx2Lanes a, Avx2Lanes b, Avx2Lanes c) {
    return {_mm256_fmadd_pd(a.v, b.v, c.v)};
  }

  // Domination lanes (domination/lane_body.h).
  /// Side i of four boxes: two (lo, hi) pairs per 128-bit half, then
  /// unpacked into (lo0, lo1, lo2, lo3) and (hi0, hi1, hi2, hi3).
  static void LoadSides(const Interval* const* boxes, size_t i, Avx2Lanes& lo,
                        Avx2Lanes& hi) {
    static_assert(sizeof(Interval) == 2 * sizeof(double));
    const auto side = [boxes, i](size_t l) {
      return _mm_loadu_pd(reinterpret_cast<const double*>(boxes[l] + i));
    };
    const __m256d s02 =
        _mm256_insertf128_pd(_mm256_castpd128_pd256(side(0)), side(2), 1);
    const __m256d s13 =
        _mm256_insertf128_pd(_mm256_castpd128_pd256(side(1)), side(3), 1);
    lo = {_mm256_unpacklo_pd(s02, s13)};
    hi = {_mm256_unpackhi_pd(s02, s13)};
  }
  /// std::max(a, b): max_pd returns its second operand unless the first is
  /// greater, std::max its first unless it is less than the second.
  friend Avx2Lanes Max(Avx2Lanes a, Avx2Lanes b) {
    return {_mm256_max_pd(b.v, a.v)};
  }
  friend Avx2Lanes Abs(Avx2Lanes a) {
    return {_mm256_andnot_pd(_mm256_set1_pd(-0.0), a.v)};
  }
  friend Avx2Lanes Sqrt(Avx2Lanes a) { return {_mm256_sqrt_pd(a.v)}; }
  friend unsigned LessBits(Avx2Lanes a, Avx2Lanes b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)));
  }
  friend unsigned UnorderedBits(Avx2Lanes a, Avx2Lanes b) {
    return static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(a.v, b.v, _CMP_UNORD_Q)));
  }
};

constexpr GfKernels kAvx2Table = MakeKernels<Avx2Lanes>("avx2+fma");

}  // namespace

const GfKernels* Avx2Kernels() { return &kAvx2Table; }

}  // namespace updb::gf

#else  // !x86

namespace updb::gf {

const GfKernels* Avx2Kernels() { return nullptr; }

}  // namespace updb::gf

#endif
