// Ablation 5: the expected-distance kNN baseline ([22]-style, Section II
// of the paper) against possible-world-correct kNN. The paper's
// motivation: expected distances "may produce very inaccurate results,
// that may have a very small probability of being an actual result". We
// measure, across uncertainty extents, (a) the overlap between the
// expected-distance top-k and the k objects with the highest true kNN
// probability, and (b) the lowest true kNN probability among the
// expected-distance answers.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "updb.h"

int main() {
  using namespace updb;
  bench::PrintBanner("abl5",
                     "expected-distance kNN baseline vs possible-world "
                     "semantics (Section II motivation)");

  const size_t k = 5;
  const size_t num_queries = 5;
  std::printf(
      "max_extent,avg_overlap_at_k,min_true_prob_of_ed_answer\n");
  for (double max_extent : {0.01, 0.05, 0.1, 0.2}) {
    workload::SyntheticConfig cfg;
    cfg.num_objects = bench::Scaled(300);
    cfg.max_extent = max_extent;
    cfg.model = workload::ObjectModel::kDiscrete;
    cfg.samples_per_object = 64;
    const UncertainDatabase db = workload::MakeSyntheticDatabase(cfg);
    MonteCarloConfig mc_cfg;
    mc_cfg.samples_per_object = 64;
    MonteCarloEngine mc(db, mc_cfg);

    double overlap_total = 0.0;
    double min_prob = 1.0;
    Rng rng(3000 + static_cast<uint64_t>(max_extent * 1000));
    for (size_t q = 0; q < num_queries; ++q) {
      const Point center{rng.Uniform(0.3, 0.7), rng.Uniform(0.3, 0.7)};
      const auto query = workload::MakeQueryObject(
          center, max_extent, workload::ObjectModel::kDiscrete, 64, rng);

      // Baseline answer.
      const auto ed = ExpectedDistanceKnn(db, *query, k, 128, 17 + q);

      // Ground truth: true P(object is a kNN) for a candidate pool (the
      // 4k closest by MinDist — everything else has negligible mass).
      const RTree index = BuildRTree(db.objects());
      std::vector<std::pair<double, ObjectId>> truth;
      index.ScanByMinDist(query->bounds(), [&](ObjectId id, double) {
        truth.emplace_back(mc.ProbDomCountLessThan(id, *query, k), id);
        return truth.size() < 4 * k;
      });
      std::sort(truth.rbegin(), truth.rend());

      size_t overlap = 0;
      for (const auto& e : ed) {
        for (size_t i = 0; i < k; ++i) {
          overlap += truth[i].second == e.id;
        }
        // True probability of this expected-distance answer.
        double p = 0.0;
        for (const auto& [prob, id] : truth) {
          if (id == e.id) p = prob;
        }
        min_prob = std::min(min_prob, p);
      }
      overlap_total += static_cast<double>(overlap) / static_cast<double>(k);
    }
    std::printf("%.2f,%.3f,%.3f\n", max_extent,
                overlap_total / static_cast<double>(num_queries), min_prob);
  }
  return 0;
}
