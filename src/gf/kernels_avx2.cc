// Copyright 2026 The updb Authors.
// The AVX2+FMA GfKernels table: the kernel bodies of gf/kernel_bodies.h
// instantiated over one __m256d per 4-lane value. This is the only
// translation unit compiled with -mavx2 -mfma (set per-file in
// CMakeLists.txt), so nothing here may be called unless cpuid reported
// AVX2+FMA — the dispatch in gf/kernels.cc guarantees that.
//
// _mm256_fmadd_pd is correctly rounded exactly like std::fma, so this table
// and the scalar one produce identical bits from the same body.

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
