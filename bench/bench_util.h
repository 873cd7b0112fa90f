// Copyright 2026 The updb Authors.
// Shared helpers for the experiment harness. Every binary reproduces one
// figure of the paper's evaluation (Section VII) and prints its series as
// CSV to stdout.
//
// Scaling: binaries whose cost is dominated by the Monte-Carlo comparison
// partner default to a scaled-down database so the whole suite finishes in
// minutes; UPDB_BENCH_SCALE (a multiplier, default 1.0) scales object and
// sample counts back up (e.g. UPDB_BENCH_SCALE=5 restores the paper's
// 10,000-object setups where a binary defaults to 2,000).

#ifndef UPDB_BENCH_BENCH_UTIL_H_
#define UPDB_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace updb {
namespace bench {

/// Multiplier from the UPDB_BENCH_SCALE environment variable (default 1).
inline double ScaleEnv() {
  const char* env = std::getenv("UPDB_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// base * ScaleEnv(), rounded, at least `min_value`.
inline size_t Scaled(size_t base, size_t min_value = 1) {
  const double v = static_cast<double>(base) * ScaleEnv();
  const size_t out = static_cast<size_t>(v + 0.5);
  return out < min_value ? min_value : out;
}

/// Prints the standard experiment banner.
inline void PrintBanner(const char* experiment_id, const char* description) {
  std::printf("# %s — %s\n", experiment_id, description);
  std::printf("# UPDB_BENCH_SCALE=%.3g\n", ScaleEnv());
}

/// Median, minimum and maximum of repeated measurements.
struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// The Spread of `v` (which must not be empty).
inline Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  const double median =
      n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return Spread{median, v.front(), v.back()};
}

}  // namespace bench
}  // namespace updb

#endif  // UPDB_BENCH_BENCH_UTIL_H_
