// Ablation 2: the k-truncated UGF (Section VI) vs. the full expansion.
// Confirms the O(k^2 C) vs O(C^3) cost separation and that both return
// identical P(DomCount < k) brackets.

#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "updb.h"

int main() {
  using namespace updb;
  bench::PrintBanner("abl2",
                     "k-truncated UGF vs full expansion (Section VI "
                     "optimization)");

  const size_t repeats = 20;
  std::printf("candidates,k,full_sec,truncated_sec,speedup,max_bound_diff\n");
  for (size_t c : {50u, 100u, 200u, 400u}) {
    for (size_t k : {5u, 10u, 25u}) {
      Rng rng(c * 131 + k);
      std::vector<double> lbs(c), ubs(c);
      for (size_t i = 0; i < c; ++i) {
        lbs[i] = rng.NextDouble() * 0.5;
        ubs[i] = lbs[i] + 0.5 * rng.NextDouble();
      }
      double full_sec = 0.0, trunc_sec = 0.0, max_diff = 0.0;
      for (size_t rep = 0; rep < repeats; ++rep) {
        ProbabilityBounds pf[UgfBatch::kLanes], pt[UgfBatch::kLanes];
        Stopwatch sw1;
        UgfBatch full;
        full.Begin(UgfBatch::kNoTruncation, 1);
        for (size_t i = 0; i < c; ++i) full.MultiplyFactors(&lbs[i], &ubs[i]);
        full.ProbLessThanAll(k, pf);
        full_sec += sw1.ElapsedSeconds();

        Stopwatch sw2;
        UgfBatch trunc;
        trunc.Begin(k, 1);
        for (size_t i = 0; i < c; ++i) trunc.MultiplyFactors(&lbs[i], &ubs[i]);
        trunc.ProbLessThanAll(k, pt);
        trunc_sec += sw2.ElapsedSeconds();

        max_diff = std::max(
            max_diff, std::max(std::abs(pf[0].lb - pt[0].lb),
                               std::abs(pf[0].ub - pt[0].ub)));
      }
      std::printf("%zu,%zu,%.6f,%.6f,%.1fx,%.2e\n", c, k,
                  full_sec / repeats, trunc_sec / repeats,
                  full_sec / trunc_sec, max_diff);
    }
  }
  return 0;
}
