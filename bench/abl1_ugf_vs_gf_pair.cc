// Ablation 1: tightness of the Uncertain Generating Function vs. the
// pair-of-regular-generating-functions construction (the technical-report
// baseline). The UGF is provably never looser; this harness quantifies
// by how much, as total per-rank bound width over random instances.

#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "updb.h"

int main() {
  using namespace updb;
  bench::PrintBanner("abl1",
                     "UGF vs regular-GF-pair bound tightness (tech-report "
                     "ablation)");

  const size_t trials = 200;
  std::printf(
      "num_factors,bracket_width,ugf_uncertainty,gf_pair_uncertainty,"
      "ugf_sec,gf_pair_sec\n");
  for (size_t n : {5u, 10u, 20u, 40u}) {
    for (double width : {0.1, 0.3, 0.6}) {
      double ugf_unc = 0.0, pair_unc = 0.0;
      double ugf_sec = 0.0, pair_sec = 0.0;
      Rng rng(n * 1000 + static_cast<uint64_t>(width * 100));
      for (size_t t = 0; t < trials; ++t) {
        std::vector<double> lbs(n), ubs(n);
        for (size_t i = 0; i < n; ++i) {
          lbs[i] = rng.NextDouble() * (1.0 - width);
          ubs[i] = lbs[i] + width * rng.NextDouble();
        }
        Stopwatch sw1;
        UgfBatch ugf;
        ugf.Begin(UgfBatch::kNoTruncation, 1);
        for (size_t i = 0; i < n; ++i) ugf.MultiplyFactors(&lbs[i], &ubs[i]);
        const CountDistributionBounds ub = ugf.Bounds(0);
        ugf_sec += sw1.ElapsedSeconds();
        Stopwatch sw2;
        const CountDistributionBounds pb = RegularGfPairBounds(lbs, ubs);
        pair_sec += sw2.ElapsedSeconds();
        ugf_unc += ub.TotalUncertainty();
        pair_unc += pb.TotalUncertainty();
      }
      std::printf("%zu,%.2f,%.4f,%.4f,%.6f,%.6f\n", n, width,
                  ugf_unc / trials, pair_unc / trials, ugf_sec / trials,
                  pair_sec / trials);
    }
  }
  return 0;
}
