// IDCA hot-path benchmark: quantifies the PR-1 optimizations (flat UGF
// workspace, monotone verdict cache, parallel pair loop) and the SIMD
// kernel dispatch layered on top of them.
//
// Series (CSV to stdout; pass a path argument to also write the summary
// as JSON, the format committed as BENCH_idca_hotpath.json):
//
//   ugf_multiply      the UgfBatch workspace (reused across reps) vs the
//                     nested-vector reference (the seed representation),
//                     building the full product + bounds per repetition.
//                     Per-lane microseconds with 1 active lane (three
//                     padding lanes, the single-sequence shape) and with
//                     all 4 lanes active (the IDCA chunk shape), each once
//                     pinned to the scalar kernel table and once on the
//                     vector (AVX2+FMA) table. padding_cost = lane1 / lane4
//                     per-lane vector time: what a single-sequence caller
//                     pays for the idle lanes.
//   idca_refinement   one untruncated domination-count computation, new
//                     engine (UgfBatch + verdict cache + batched lanes,
//                     1 thread) vs a faithful in-bench reimplementation of
//                     the seed's refinement loop; the engine timed under
//                     both dispatch tables.
//   thread_scaling    the same computation at 1/2/4/8 threads.
//
// Two oracles gate the exit status: the seed-style and engine bounds must
// agree within 1e-9 (different accumulation orders), and the scalar- and
// vector-dispatch engine bounds must be IDENTICAL BITS (same blocked
// accumulation order, gf/kernels.h) — any nonzero deviation exits 2.
//
// UPDB_BENCH_SCALE scales the database size.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "gf/ugf_reference.h"
#include "updb.h"

namespace updb {
namespace {

using workload::MakeQueryObject;
using workload::MakeSyntheticDatabase;
using workload::ObjectModel;
using workload::SyntheticConfig;

// ------------------------------------------------------------------ UGF

struct UgfSeries {
  size_t n = 0;
  double nested_us = 0.0;
  // Per-lane microseconds of one UgfBatch pass.
  double lane1_scalar_us = 0.0;  // 1 active lane, scalar kernel table
  double lane1_vector_us = 0.0;  // 1 active lane, auto-selected table
  double lane4_scalar_us = 0.0;  // 4 active lanes, scalar kernel table
  double lane4_vector_us = 0.0;  // 4 active lanes, auto-selected table
  double speedup = 0.0;       // nested / lane1_vector
  double simd_speedup = 0.0;  // lane1_scalar / lane1_vector
  double padding_cost = 0.0;  // lane1_vector / lane4_vector
};

UgfSeries BenchUgf(size_t n, int reps) {
  constexpr size_t kLanes = UgfBatch::kLanes;
  Rng rng(101);
  // Factor i of lane l at [i * kLanes + l]; lane 0 is also the nested run.
  std::vector<double> lb4(n * kLanes), ub4(n * kLanes);
  for (size_t i = 0; i < n * kLanes; ++i) {
    lb4[i] = rng.NextDouble();
    ub4[i] = lb4[i] + (1.0 - lb4[i]) * rng.NextDouble();
  }
  UgfSeries out;
  out.n = n;

  double sink = 0.0;
  Stopwatch timer;
  for (int rep = 0; rep < reps; ++rep) {
    NestedVectorUgf nested;  // fresh rows every factor — the seed's cost
    for (size_t i = 0; i < n; ++i) {
      nested.Multiply(lb4[i * kLanes], ub4[i * kLanes]);
    }
    sink += nested.Bounds().lb(n / 2);
  }
  out.nested_us = timer.ElapsedSeconds() * 1e6 / reps;

  UgfBatch batch;
  CountDistributionBounds bounds = CountDistributionBounds::Zero(n + 1);
  auto time_batch = [&](bool force_scalar, size_t lanes) {
    gf::ForceScalarKernels(force_scalar);
    auto pass = [&] {
      // Same workspace across reps: the IDCA reuse pattern.
      batch.Begin(UgfBatch::kNoTruncation, lanes);
      for (size_t i = 0; i < n; ++i) {
        batch.MultiplyFactors(lb4.data() + i * kLanes, ub4.data() + i * kLanes);
      }
      batch.FinishBounds();
      for (size_t l = 0; l < lanes; ++l) {
        batch.EmitBounds(l, &bounds);
        sink += bounds.lb(n / 2);
      }
    };
    pass();  // warm-up, so buffer growth is off the clock
    timer.Reset();
    for (int rep = 0; rep < reps; ++rep) pass();
    return timer.ElapsedSeconds() * 1e6 / reps / static_cast<double>(lanes);
  };
  out.lane1_scalar_us = time_batch(true, 1);
  out.lane4_scalar_us = time_batch(true, kLanes);
  out.lane1_vector_us = time_batch(false, 1);
  out.lane4_vector_us = time_batch(false, kLanes);
  out.speedup = out.nested_us / out.lane1_vector_us;
  out.simd_speedup = out.lane1_scalar_us / out.lane1_vector_us;
  out.padding_cost = out.lane1_vector_us / out.lane4_vector_us;
  if (sink < -1.0) std::printf("#impossible\n");  // keep `sink` alive
  return out;
}

// ------------------------------------------------- seed-style refinement

/// Faithful reimplementation of the seed's refinement loop: nested-vector
/// UGF, no verdict cache (every candidate partition re-classified against
/// every pair each iteration), serial. This is the baseline the tentpole
/// rework replaced; keeping it here pins the "vs seed" speedup series to
/// the real thing rather than to a proxy.
CountDistributionBounds SeedStyleRefine(const UncertainDatabase& db,
                                        ObjectId b, const Pdf& reference,
                                        int max_iterations) {
  const IdcaConfig config;  // criterion/norm/split defaults
  const Pdf& target = db.object(b).pdf();
  const Rect& t = target.bounds();
  const Rect& r = reference.bounds();

  size_t complete = 0;
  std::vector<const UncertainObject*> influence;
  for (const UncertainObject& a : db.objects()) {
    if (a.id() == b) continue;
    switch (ClassifyDomination(a.mbr(), t, r, config.criterion, config.norm)) {
      case DominationClass::kDominates:
        if (a.existentially_certain()) {
          ++complete;
        } else {
          influence.push_back(&a);
        }
        break;
      case DominationClass::kDominated:
        break;
      case DominationClass::kUndecided:
        influence.push_back(&a);
        break;
    }
  }
  const size_t C = influence.size();

  DecompositionTree target_tree(&target, config.split_policy);
  DecompositionTree ref_tree(&reference, config.split_policy);
  std::vector<std::unique_ptr<DecompositionTree>> cand_trees;
  cand_trees.reserve(C);
  for (const UncertainObject* a : influence) {
    cand_trees.push_back(
        std::make_unique<DecompositionTree>(&a->pdf(), config.split_policy));
  }

  CountDistributionBounds agg = CountDistributionBounds::Zero(C + 1);
  for (int iter = 1; iter <= max_iterations; ++iter) {
    size_t splits = target_tree.Deepen() + ref_tree.Deepen();
    for (auto& tree : cand_trees) splits += tree->Deepen();
    agg = CountDistributionBounds::Zero(C + 1);
    for (const Partition& bp : target_tree.frontier()) {
      for (const Partition& rp : ref_tree.frontier()) {
        const double w = bp.mass * rp.mass;
        NestedVectorUgf ugf;
        for (size_t i = 0; i < C; ++i) {
          ProbabilityBounds pb =
              PDomGivenPair(cand_trees[i]->frontier(), bp.region, rp.region,
                            config.criterion, config.norm);
          const double e = influence[i]->existence();
          pb.lb *= e;
          pb.ub *= e;
          ugf.Multiply(pb);
        }
        agg.AccumulateWeighted(ugf.Bounds(), w);
      }
    }
    if (splits == 0) break;
  }
  agg.Normalize();
  return agg.ShiftRight(complete, db.size());
}

}  // namespace
}  // namespace updb

int main(int argc, char** argv) {
  using namespace updb;
  bench::PrintBanner("bench_hotpath_scaling",
                     "UgfBatch + verdict cache + parallel pair loop + SIMD");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# hardware_threads=%u\n", hw);
  std::printf("# kernel_dispatch=%s\n", gf::ActiveKernelName());

  // ---- UGF multiplication series.
  std::printf(
      "series,n,nested_us,lane1_scalar_us,lane1_vector_us,lane4_scalar_us,"
      "lane4_vector_us,speedup,simd_speedup,padding_cost\n");
  std::vector<UgfSeries> ugf_series;
  for (size_t n : {size_t{32}, size_t{64}, size_t{128}}) {
    const int reps = n <= 64 ? 400 : 150;
    ugf_series.push_back(BenchUgf(n, reps));
    const UgfSeries& s = ugf_series.back();
    std::printf("ugf_multiply,%zu,%.2f,%.2f,%.2f,%.2f,%.2f,%.2fx,%.2fx,%.2fx\n",
                s.n, s.nested_us, s.lane1_scalar_us, s.lane1_vector_us,
                s.lane4_scalar_us, s.lane4_vector_us, s.speedup,
                s.simd_speedup, s.padding_cost);
  }

  // ---- IDCA refinement: seed style vs new engine, single thread.
  SyntheticConfig cfg;
  cfg.num_objects = bench::Scaled(150);
  cfg.max_extent = 0.12;  // large extents -> many influence objects
  cfg.seed = 7;
  const UncertainDatabase db = MakeSyntheticDatabase(cfg);
  Rng rng(31);
  const auto query =
      MakeQueryObject(Point{0.5, 0.5}, 0.12, ObjectModel::kUniform, 0, rng);
  const ObjectId target = 42 % db.size();
  const int iterations = 5;

  Stopwatch timer;
  const CountDistributionBounds seed_bounds =
      SeedStyleRefine(db, target, *query, iterations);
  const double seed_seconds = timer.ElapsedSeconds();

  IdcaConfig fast;
  fast.max_iterations = iterations;
  fast.uncertainty_epsilon = -1.0;  // run all iterations, like the loop above
  fast.num_threads = 1;
  gf::ForceScalarKernels(true);
  const IdcaResult scalar_result =
      IdcaEngine(db, fast).ComputeDomCount(target, *query);
  const double scalar_seconds = scalar_result.seconds;
  gf::ForceScalarKernels(false);
  const IdcaResult fast_result =
      IdcaEngine(db, fast).ComputeDomCount(target, *query);
  const double fast_seconds = fast_result.seconds;

  // Oracle 1: seed-style and engine bounds agree within tolerance (the two
  // loops accumulate in different orders, so 1e-9, not equality).
  bool checksum_ok = seed_bounds.num_ranks() == fast_result.bounds.num_ranks();
  double max_dev = 0.0;
  if (checksum_ok) {
    for (size_t k = 0; k < seed_bounds.num_ranks(); ++k) {
      max_dev = std::max(
          max_dev, std::abs(seed_bounds.lb(k) - fast_result.bounds.lb(k)));
      max_dev = std::max(
          max_dev, std::abs(seed_bounds.ub(k) - fast_result.bounds.ub(k)));
    }
    checksum_ok = max_dev < 1e-9;
  }
  // Oracle 2: scalar and vector dispatch are the SAME accumulation order —
  // their bounds must match bit for bit, deviation exactly zero.
  double simd_dev = 0.0;
  bool simd_exact =
      scalar_result.bounds.num_ranks() == fast_result.bounds.num_ranks();
  if (simd_exact) {
    for (size_t k = 0; k < fast_result.bounds.num_ranks(); ++k) {
      simd_dev = std::max(simd_dev, std::abs(scalar_result.bounds.lb(k) -
                                             fast_result.bounds.lb(k)));
      simd_dev = std::max(simd_dev, std::abs(scalar_result.bounds.ub(k) -
                                             fast_result.bounds.ub(k)));
    }
    simd_exact = simd_dev == 0.0;
  }
  std::printf(
      "series,seed_style_s,scalar_s,vector_s,speedup,max_dev,simd_dev,"
      "agree\n");
  std::printf("idca_refinement,%.3f,%.3f,%.3f,%.2fx,%.2e,%.2e,%s\n",
              seed_seconds, scalar_seconds, fast_seconds,
              seed_seconds / fast_seconds, max_dev, simd_dev,
              checksum_ok && simd_exact ? "yes" : "NO");

  // ---- Thread scaling on the same computation.
  std::printf("series,threads,seconds,speedup_vs_1t\n");
  std::vector<std::pair<int, double>> scaling;
  double t1 = 0.0;
  for (int threads : {1, 2, 4, 8}) {
    IdcaConfig c = fast;
    c.num_threads = threads;
    // Warm the pool, then take the best of 3 runs.
    double best = 1e100;
    for (int rep = 0; rep < 3; ++rep) {
      const IdcaResult r = IdcaEngine(db, c).ComputeDomCount(target, *query);
      best = std::min(best, r.seconds);
    }
    if (threads == 1) t1 = best;
    scaling.emplace_back(threads, best);
    std::printf("thread_scaling,%d,%.3f,%.2fx\n", threads, best, t1 / best);
  }

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_hotpath_scaling\",\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
    std::fprintf(f, "  \"kernel_dispatch\": \"%s\",\n", gf::ActiveKernelName());
    std::fprintf(f,
                 "  \"note\": \"thread_scaling is bounded by "
                 "hardware_threads on the recording host; results are "
                 "bit-identical for every thread count (see "
                 "idca_parallel_test)\",\n");
    std::fprintf(f, "  \"db_objects\": %zu,\n", db.size());
    std::fprintf(f, "  \"refinement_iterations\": %d,\n", iterations);
    std::fprintf(f, "  \"ugf_multiply\": [\n");
    for (size_t i = 0; i < ugf_series.size(); ++i) {
      const UgfSeries& s = ugf_series[i];
      std::fprintf(f,
                   "    {\"n\": %zu, \"nested_us\": %.2f, "
                   "\"lane1_scalar_us\": %.2f, \"lane1_vector_us\": %.2f, "
                   "\"lane4_scalar_us\": %.2f, \"lane4_vector_us\": %.2f, "
                   "\"speedup\": %.2f, \"simd_speedup\": %.2f, "
                   "\"padding_cost\": %.2f}%s\n",
                   s.n, s.nested_us, s.lane1_scalar_us, s.lane1_vector_us,
                   s.lane4_scalar_us, s.lane4_vector_us, s.speedup,
                   s.simd_speedup, s.padding_cost,
                   i + 1 < ugf_series.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"idca_refinement\": {\"seed_style_seconds\": %.3f, "
                 "\"scalar_seconds\": %.3f, \"flat_cached_seconds\": %.3f, "
                 "\"speedup\": %.2f, \"max_abs_bound_deviation\": %.3e, "
                 "\"simd_max_abs_bound_deviation\": %.1e, \"agree\": %s},\n",
                 seed_seconds, scalar_seconds, fast_seconds,
                 seed_seconds / fast_seconds, max_dev, simd_dev,
                 checksum_ok && simd_exact ? "true" : "false");
    std::fprintf(f, "  \"thread_scaling\": [\n");
    for (size_t i = 0; i < scaling.size(); ++i) {
      std::fprintf(f,
                   "    {\"threads\": %d, \"seconds\": %.3f, "
                   "\"speedup_vs_1t\": %.2f}%s\n",
                   scaling[i].first, scaling[i].second,
                   t1 / scaling[i].second,
                   i + 1 < scaling.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return checksum_ok && simd_exact ? 0 : 2;
}
