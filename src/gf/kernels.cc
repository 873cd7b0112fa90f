#include "gf/kernels.h"

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "gf/kernel_bodies.h"

namespace updb::gf {

namespace {

/// The scalar table's lane type: four doubles, every operation a plain
/// per-lane loop. Fma is std::fma per lane, correctly rounded like the
/// vector fmadd.
struct ScalarLanes {
  double v[kSoaLanes];

  static ScalarLanes Zero() { return Broadcast(0.0); }
  static ScalarLanes Broadcast(double w) { return {{w, w, w, w}}; }
  static ScalarLanes Load(const double* p) {
    return {{p[0], p[1], p[2], p[3]}};
  }
  void Store(double* p) const {
    for (size_t l = 0; l < kSoaLanes; ++l) p[l] = v[l];
  }
  friend ScalarLanes operator+(ScalarLanes a, ScalarLanes b) {
    for (size_t l = 0; l < kSoaLanes; ++l) a.v[l] += b.v[l];
    return a;
  }
  friend ScalarLanes operator-(ScalarLanes a, ScalarLanes b) {
    for (size_t l = 0; l < kSoaLanes; ++l) a.v[l] -= b.v[l];
    return a;
  }
  friend ScalarLanes operator*(ScalarLanes a, ScalarLanes b) {
    for (size_t l = 0; l < kSoaLanes; ++l) a.v[l] *= b.v[l];
    return a;
  }
  friend ScalarLanes Fma(ScalarLanes a, ScalarLanes b, ScalarLanes c) {
    for (size_t l = 0; l < kSoaLanes; ++l) {
      c.v[l] = std::fma(a.v[l], b.v[l], c.v[l]);
    }
    return c;
  }

  // Domination lanes (domination/lane_body.h).
  static void LoadSides(const Interval* const* boxes, size_t i,
                        ScalarLanes& lo, ScalarLanes& hi) {
    for (size_t l = 0; l < kSoaLanes; ++l) {
      lo.v[l] = boxes[l][i].lo();
      hi.v[l] = boxes[l][i].hi();
    }
  }
  /// std::max(a, b) per lane.
  friend ScalarLanes Max(ScalarLanes a, ScalarLanes b) {
    for (size_t l = 0; l < kSoaLanes; ++l) {
      if (a.v[l] < b.v[l]) a.v[l] = b.v[l];
    }
    return a;
  }
  friend ScalarLanes Abs(ScalarLanes a) {
    for (size_t l = 0; l < kSoaLanes; ++l) a.v[l] = std::fabs(a.v[l]);
    return a;
  }
  friend ScalarLanes Sqrt(ScalarLanes a) {
    for (size_t l = 0; l < kSoaLanes; ++l) a.v[l] = std::sqrt(a.v[l]);
    return a;
  }
  friend unsigned LessBits(ScalarLanes a, ScalarLanes b) {
    unsigned bits = 0;
    for (size_t l = 0; l < kSoaLanes; ++l) {
      bits |= static_cast<unsigned>(a.v[l] < b.v[l]) << l;
    }
    return bits;
  }
  friend unsigned UnorderedBits(ScalarLanes a, ScalarLanes b) {
    unsigned bits = 0;
    for (size_t l = 0; l < kSoaLanes; ++l) {
      bits |= static_cast<unsigned>(std::isunordered(a.v[l], b.v[l])) << l;
    }
    return bits;
  }
};

constexpr GfKernels kScalarTable = MakeKernels<ScalarLanes>("scalar");

bool EnvForcesScalar() {
  const char* env = std::getenv("UPDB_FORCE_SCALAR");
  if (env == nullptr || env[0] == '\0') return false;
  return std::strcmp(env, "0") != 0;
}

bool CpuHasAvx2Fma() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

std::atomic<bool> g_force_scalar{EnvForcesScalar()};

const GfKernels* Select() {
  if (!g_force_scalar.load(std::memory_order_relaxed)) {
    const GfKernels* vec = Avx2Kernels();
    if (vec != nullptr && CpuHasAvx2Fma()) return vec;
  }
  return &kScalarTable;
}

std::atomic<const GfKernels*> g_active{nullptr};

}  // namespace

const GfKernels& ScalarKernels() { return kScalarTable; }

const GfKernels& ActiveKernels() {
  const GfKernels* t = g_active.load(std::memory_order_acquire);
  if (t == nullptr) {
    t = Select();
    g_active.store(t, std::memory_order_release);
  }
  return *t;
}

const char* ActiveKernelName() { return ActiveKernels().name; }

bool VectorKernelsAvailable() {
  return Avx2Kernels() != nullptr && CpuHasAvx2Fma();
}

void ForceScalarKernels(bool force) {
  g_force_scalar.store(force, std::memory_order_relaxed);
  g_active.store(Select(), std::memory_order_release);
}

}  // namespace updb::gf
