// Copyright 2026 The updb Authors.
// Known-answer self-tests of the benchmark's statistics helpers
// (percentile, arrival schedule, stage accounting). run.py
// runs this binary before every measurement and refuses to report numbers
// when it fails. Exit code 0 = all checks pass.

#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_stats.h"

namespace {

int failures = 0;

void ExpectNear(const char* what, double got, double want,
                double tol = 1e-12) {
  if (std::fabs(got - want) > tol) {
    std::fprintf(stderr, "selftest FAIL %s: got %.17g want %.17g\n", what,
                 got, want);
    ++failures;
  }
}

}  // namespace

int main() {
  using namespace perfbench;

  // Percentile: linear interpolation between closest ranks, on unsorted
  // input.
  const std::vector<double> shuffled = {5, 1, 4, 2, 3};
  ExpectNear("median odd", Median(shuffled), 3.0);
  ExpectNear("p0", Percentile(shuffled, 0), 1.0);
  ExpectNear("p100", Percentile(shuffled, 100), 5.0);
  ExpectNear("p25", Percentile(shuffled, 25), 2.0);
  ExpectNear("median even", Median({4, 1, 3, 2}), 2.5);
  std::vector<double> one_to_twenty;
  for (int i = 20; i >= 1; --i) one_to_twenty.push_back(i);
  // pos = 0.95 * 19 = 18.05 -> 19 + 0.05 * (20 - 19).
  ExpectNear("p95 of 1..20", Percentile(one_to_twenty, 95), 19.05, 1e-9);
  ExpectNear("single sample", Percentile({7.5}, 95), 7.5);
  ExpectNear("empty sample", Percentile({}, 50), 0.0);
  ExpectNear("mean", Mean({1, 2, 3, 6}), 3.0);

  // Paced schedule: arrival i sits at (i + u_i) / rate.
  const std::vector<double> arrivals =
      PacedSchedule({0.0, 0.5, 0.25, 0.999}, 4.0);
  ExpectNear("arrival 0", arrivals[0], 0.0);
  ExpectNear("arrival 1", arrivals[1], 0.375);
  ExpectNear("arrival 2", arrivals[2], 0.5625);
  ExpectNear("arrival 3", arrivals[3], 0.99975);
  // Over n slots the schedule spans n / rate: the long-run rate is exact.
  std::vector<double> draws(1000, 0.5);
  const std::vector<double> paced = PacedSchedule(draws, 50.0);
  ExpectNear("rate", paced.size() / (paced.back() + 0.5 / 50.0), 50.0,
             1e-9);

  // Stage accounting: the residual is whatever the stages leave over.
  const StageSum s = AccountStages(10.0, {2.0, 3.0, 4.0});
  ExpectNear("accounted", s.accounted, 9.0);
  ExpectNear("residual", s.residual, 1.0);
  ExpectNear("residual fraction", s.residual_fraction, 0.1);
  const StageSum over = AccountStages(4.0, {3.0, 2.0});
  ExpectNear("negative residual", over.residual, -1.0);
  ExpectNear("zero round trip", AccountStages(0.0, {1.0}).residual_fraction,
             0.0);

  if (failures != 0) {
    std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
    return 1;
  }
  return 0;
}
