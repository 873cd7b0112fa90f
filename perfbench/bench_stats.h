// Copyright 2026 The updb Authors.
// Pure statistics helpers of the repo benchmark, kept apart from the
// runner so selftest.cc can check them against known answers.

#ifndef UPDB_PERFBENCH_BENCH_STATS_H_
#define UPDB_PERFBENCH_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Exact percentile `q` (0..100) of the samples, linearly interpolated
/// between the two closest ranks (the "linear" rule of numpy and of
/// Python's statistics.quantiles(method="inclusive")). Computed from the
/// raw per-request samples, never from a bucketed histogram. 0 for an
/// empty sample.
inline double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50.0);
}

inline double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// Paced open-loop arrival offsets (seconds from the start) at `rate_qps`:
/// arrival i falls at (i + u_i) / rate, one uniform draw u_i in [0, 1) per
/// slot of length 1 / rate. The long-run rate is exact and the schedule is
/// a pure function of the draws (and so of the seed that produced them).
/// Unlike Poisson arrivals it has no bursts longer than one slot: on this
/// service's heavy-tailed request costs, Poisson bursts made tail latency
/// spread by 20-50% between seeds at any affordable run length.
inline std::vector<double> PacedSchedule(const std::vector<double>& uniforms,
                                         double rate_qps) {
  std::vector<double> arrivals;
  arrivals.reserve(uniforms.size());
  for (size_t i = 0; i < uniforms.size(); ++i) {
    arrivals.push_back((static_cast<double>(i) + uniforms[i]) / rate_qps);
  }
  return arrivals;
}

/// Stage accounting of one measured round trip: the stages that were
/// measured separately, what they add up to, and the part of the round
/// trip none of them explains. The residual is reported, never hidden; it
/// may be negative when stages were measured in separate passes.
struct StageSum {
  double round_trip = 0.0;
  double accounted = 0.0;
  double residual = 0.0;
  /// residual / round_trip (0 for a zero round trip).
  double residual_fraction = 0.0;
};

inline StageSum AccountStages(double round_trip,
                              const std::vector<double>& stages) {
  StageSum s;
  s.round_trip = round_trip;
  for (double v : stages) s.accounted += v;
  s.residual = round_trip - s.accounted;
  s.residual_fraction = round_trip > 0.0 ? s.residual / round_trip : 0.0;
  return s;
}

}  // namespace perfbench

#endif  // UPDB_PERFBENCH_BENCH_STATS_H_
