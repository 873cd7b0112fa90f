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
//   domination        nanoseconds per optimal-criterion classification
//                     at L1/L2, d = 2/3 and runs of 8/32/64 boxes per
//                     (B, R) pair: the flat-box kernel box by box
//                     (domination/kernel.h, one PairTerms per pair), the
//                     lane kernel over the pair's run (ClassifyRun, four
//                     boxes per step, active dispatch table), and an
//                     in-bench copy of the per-call Rect loop the kernel
//                     replaced (out-of-line Pow, branching MinDist).
//                     Median/min/max over repeats.
//   engine_run        nanoseconds per short engine run on the same
//                     database, the threshold-query shape (one run per
//                     candidate, few iterations): a predicate run and a
//                     full-distribution run, each repeated on one thread so
//                     every run after the first reuses the thread's engine
//                     workspace. Median/min/max over repeats.
//   rknn_filter       milliseconds per RknnCandidates batch (the threshold
//                     RkNN candidate filter, one scan over an R-tree) at
//                     1, 2 and 8 probes on a 1,000-object database of
//                     extent 0.01. Median/min/max over repeats.
//
// Five oracles gate the exit status: the seed-style and engine bounds
// must agree within 1e-9 (different accumulation orders), the scalar- and
// vector-dispatch engine bounds must be IDENTICAL BITS (same blocked
// accumulation order, gf/kernels.h), the kernel's domination verdicts
// (box by box, and the lane kernel under both tables) must equal the
// Rect loop's on every test, every engine_run result
// must equal bit for bit the same run made on a fresh thread (whose
// workspace is new), and every rknn_filter candidate list must equal an
// in-bench unindexed dominator count — any deviation exits 2.
//
// UPDB_BENCH_SCALE scales the database size.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "domination/kernel.h"
#include "gf/ugf_reference.h"
#include "updb.h"

namespace updb {
namespace {

using bench::Spread;
using bench::SpreadOf;
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

  DecompositionTree target_tree(&target);
  DecompositionTree ref_tree(&reference);
  std::vector<std::unique_ptr<DecompositionTree>> cand_trees;
  cand_trees.reserve(C);
  for (const UncertainObject* a : influence) {
    cand_trees.push_back(std::make_unique<DecompositionTree>(&a->pdf()));
  }

  CountDistributionBounds agg = CountDistributionBounds::Zero(C + 1);
  for (int iter = 1; iter <= max_iterations; ++iter) {
    size_t splits = target_tree.Deepen() + ref_tree.Deepen();
    for (auto& tree : cand_trees) splits += tree->Deepen();
    agg = CountDistributionBounds::Zero(C + 1);
    const std::vector<Partition> target_parts = target_tree.Partitions();
    const std::vector<Partition> ref_parts = ref_tree.Partitions();
    std::vector<std::vector<Partition>> cand_parts;
    for (const auto& tree : cand_trees) {
      cand_parts.push_back(tree->Partitions());
    }
    for (const Partition& bp : target_parts) {
      for (const Partition& rp : ref_parts) {
        const double w = bp.mass * rp.mass;
        NestedVectorUgf ugf;
        for (size_t i = 0; i < C; ++i) {
          ProbabilityBounds pb =
              PDomGivenPair(cand_parts[i], bp.region, rp.region,
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

// ---------------------------------------------------- domination kernel

/// LpNorm::Pow as the library compiled it before the kernel: out of line,
/// switching on p per call.
[[gnu::noinline]] double RectLoopPow(const LpNorm& norm, double v) {
  v = std::abs(v);
  switch (norm.p()) {
    case 1:
      return v;
    case 2:
      return v * v;
    default:
      return std::pow(v, static_cast<double>(norm.p()));
  }
}

/// Interval::MinDist(double) as it was written before, with branches.
double RectLoopMinDist(const Interval& side, double r) {
  if (r < side.lo()) return side.lo() - r;
  if (r > side.hi()) return r - side.hi();
  return 0.0;
}

/// The optimal criterion as the library computed it per call before the
/// flat-box kernel: Rect sides, out-of-line Pow, no hoisting.
bool RectLoopDominates(const Rect& a, const Rect& b, const Rect& r,
                       const LpNorm& norm) {
  double sum = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) {
    const Interval& ai = a.side(i);
    const Interval& bi = b.side(i);
    const Interval& ri = r.side(i);
    double worst = -std::numeric_limits<double>::infinity();
    for (double rv : {ri.lo(), ri.hi()}) {
      const double term = RectLoopPow(norm, ai.MaxDist(rv)) -
                          RectLoopPow(norm, RectLoopMinDist(bi, rv));
      worst = std::max(worst, term);
    }
    sum += worst;
  }
  return sum < 0.0;
}

DominationClass RectLoopClassify(const Rect& a, const Rect& b, const Rect& r,
                                 const LpNorm& norm) {
  if (RectLoopDominates(a, b, r, norm)) return DominationClass::kDominates;
  if (RectLoopDominates(b, a, r, norm)) return DominationClass::kDominated;
  return DominationClass::kUndecided;
}

struct DominationSeries {
  int p = 2;
  size_t dim = 2;
  size_t run = 32;            // A boxes per (B, R) pair
  size_t tests = 0;           // classifications per repeat
  double decided = 0.0;       // share of kDominates/kDominated verdicts
  Spread rect_ns;     // per classification, Rect loop
  Spread kernel_ns;   // per classification, flat-box kernel, box by box
  Spread lane_ns;     // per classification, ClassifyRun over the pair's run
  bool agree = true;
};

/// Refinement-shaped workload: per (B', R') pair, a run of `run` candidate
/// boxes is classified, each pair's terms built once on the kernel side.
/// The lane column gathers the run's box pointers and calls ClassifyRun,
/// as the engine's pair loop does; its verdicts are also taken once under
/// the scalar table, and all four verdict sets must be equal.
DominationSeries BenchDomination(int p, size_t dim, size_t run, int repeats) {
  constexpr size_t kTests = 8192;
  const size_t pairs = kTests / run;
  Rng rng(808 + static_cast<uint64_t>(10 * p) + dim);
  const auto random_box = [&rng, dim](double max_extent) {
    std::vector<Interval> sides;
    for (size_t i = 0; i < dim; ++i) {
      const double lo = rng.NextDouble();
      sides.emplace_back(lo, lo + max_extent * rng.NextDouble());
    }
    return Rect(std::move(sides));
  };
  std::vector<Rect> b_boxes, r_boxes, a_boxes;
  for (size_t i = 0; i < pairs; ++i) {
    b_boxes.push_back(random_box(0.05));
    r_boxes.push_back(random_box(0.05));
  }
  std::vector<Interval> a_flat;  // the kernel reads A boxes flat
  for (size_t i = 0; i < kTests; ++i) {
    a_boxes.push_back(random_box(0.05));
    const std::span<const Interval> sides = a_boxes.back().sides();
    a_flat.insert(a_flat.end(), sides.begin(), sides.end());
  }

  const LpNorm norm(p);
  DominationSeries out;
  out.p = p;
  out.dim = dim;
  out.run = run;
  out.tests = kTests;
  std::vector<DominationClass> rect_verdicts(kTests);
  std::vector<DominationClass> kernel_verdicts(kTests);
  std::vector<DominationClass> lane_verdicts(kTests);
  std::vector<const Interval*> boxes(run);
  std::vector<double> rect_ns, kernel_ns, lane_ns;
  Stopwatch timer;
  WithPairTerms(DominationCriterion::kOptimal, norm, [&](auto terms) {
    const auto lanes = [&] {
      for (size_t pr = 0; pr < pairs; ++pr) {
        terms.Reset(b_boxes[pr].sides(), r_boxes[pr].sides());
        for (size_t j = 0; j < run; ++j) {
          boxes[j] = a_flat.data() + (pr * run + j) * dim;
        }
        ClassifyRun(terms, boxes, lane_verdicts.data() + pr * run);
      }
    };
    for (int rep = 0; rep < repeats; ++rep) {
      timer.Reset();
      for (size_t pr = 0; pr < pairs; ++pr) {
        for (size_t j = pr * run; j < (pr + 1) * run; ++j) {
          rect_verdicts[j] =
              RectLoopClassify(a_boxes[j], b_boxes[pr], r_boxes[pr], norm);
        }
      }
      rect_ns.push_back(timer.ElapsedSeconds() * 1e9 /
                        static_cast<double>(kTests));

      timer.Reset();
      for (size_t pr = 0; pr < pairs; ++pr) {
        terms.Reset(b_boxes[pr].sides(), r_boxes[pr].sides());
        for (size_t j = pr * run; j < (pr + 1) * run; ++j) {
          kernel_verdicts[j] = Classify(
              terms, std::span<const Interval>(a_flat.data() + j * dim, dim));
        }
      }
      kernel_ns.push_back(timer.ElapsedSeconds() * 1e9 /
                          static_cast<double>(kTests));

      timer.Reset();
      lanes();
      lane_ns.push_back(timer.ElapsedSeconds() * 1e9 /
                        static_cast<double>(kTests));
      out.agree = out.agree && rect_verdicts == kernel_verdicts &&
                  lane_verdicts == kernel_verdicts;
    }
    // The scalar table's copy of the lane body, untimed.
    const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();
    gf::ForceScalarKernels(true);
    lanes();
    gf::ForceScalarKernels(was_scalar);
    out.agree = out.agree && lane_verdicts == kernel_verdicts;
  });
  size_t decided = 0;
  for (DominationClass v : kernel_verdicts) {
    decided += v != DominationClass::kUndecided;
  }
  out.decided = static_cast<double>(decided) / static_cast<double>(kTests);
  out.rect_ns = SpreadOf(rect_ns);
  out.kernel_ns = SpreadOf(kernel_ns);
  out.lane_ns = SpreadOf(lane_ns);
  return out;
}

// ---------------------------------------------------------- engine runs

/// The CPU model of the recording host ("model name" in /proc/cpuinfo),
/// or "unknown" where that file does not say.
std::string HostCpu() {
  std::FILE* f = std::fopen("/proc/cpuinfo", "r");
  if (f == nullptr) return "unknown";
  char line[256];
  std::string model = "unknown";
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    const std::string text(line);
    if (text.rfind("model name", 0) != 0) continue;
    const size_t colon = text.find(':');
    if (colon != std::string::npos && colon + 2 <= text.size()) {
      model = text.substr(colon + 2);
      while (!model.empty() && (model.back() == '\n' || model.back() == ' ')) {
        model.pop_back();
      }
    }
    break;
  }
  std::fclose(f);
  return model;
}

/// True iff two results carry the same bits in every payload field and
/// the same work counters.
bool SameResult(const IdcaResult& a, const IdcaResult& b) {
  if (a.complete_domination_count != b.complete_domination_count ||
      a.influence_count != b.influence_count ||
      a.bounds.num_ranks() != b.bounds.num_ranks() ||
      a.influence_pdom.size() != b.influence_pdom.size() ||
      a.iterations.size() != b.iterations.size() ||
      a.decision != b.decision) {
    return false;
  }
  const auto same = [](double x, double y) {
    return std::memcmp(&x, &y, sizeof(double)) == 0;
  };
  for (size_t k = 0; k < a.bounds.num_ranks(); ++k) {
    if (!same(a.bounds.lb(k), b.bounds.lb(k)) ||
        !same(a.bounds.ub(k), b.bounds.ub(k))) {
      return false;
    }
  }
  for (size_t i = 0; i < a.influence_pdom.size(); ++i) {
    if (!same(a.influence_pdom[i].lb, b.influence_pdom[i].lb) ||
        !same(a.influence_pdom[i].ub, b.influence_pdom[i].ub)) {
      return false;
    }
  }
  const IdcaCounters& x = a.counters;
  const IdcaCounters& y = b.counters;
  return same(a.predicate_prob.lb, b.predicate_prob.lb) &&
         same(a.predicate_prob.ub, b.predicate_prob.ub) &&
         x.pairs_evaluated == y.pairs_evaluated &&
         x.pairs_frozen == y.pairs_frozen &&
         x.domination_tests == y.domination_tests &&
         x.verdict_cache_hits == y.verdict_cache_hits &&
         x.verdict_cache_misses == y.verdict_cache_misses &&
         x.ugf_multiplies == y.ugf_multiplies;
}

struct EngineRunSeries {
  const char* kind = "";
  size_t influence = 0;
  size_t iterations = 0;
  int runs_per_repeat = 0;
  Spread ns;  // per run
  bool agree = true;
};

EngineRunSeries BenchEngineRun(const char* kind,
                               const std::function<IdcaResult()>& run,
                               int runs_per_repeat, int repeats) {
  EngineRunSeries out;
  out.kind = kind;
  out.runs_per_repeat = runs_per_repeat;
  IdcaResult fresh;
  std::thread([&] { fresh = run(); }).join();
  IdcaResult last = run();  // warm-up: grows this thread's workspace
  std::vector<double> ns;
  Stopwatch timer;
  for (int rep = 0; rep < repeats; ++rep) {
    timer.Reset();
    for (int i = 0; i < runs_per_repeat; ++i) last = run();
    ns.push_back(timer.ElapsedSeconds() * 1e9 / runs_per_repeat);
  }
  out.influence = last.influence_count;
  out.iterations = last.iterations_run;
  out.ns = SpreadOf(ns);
  out.agree = SameResult(last, fresh);
  return out;
}

// --------------------------------------------------------- RkNN filter

/// The RkNN filter without index or groups: per object B and probe, count
/// the certain A != B inside B's MBR expanded by MaxDist(Q, B) that
/// completely dominate Q w.r.t. B, over all objects in id order, capped at
/// k. Returns the objects below k per probe, in ascending id order.
std::vector<std::vector<ObjectId>> UnindexedRknnCandidates(
    const UncertainDatabase& db, std::span<const DominatorProbe> probes,
    const LpNorm& norm) {
  std::vector<std::vector<ObjectId>> out(probes.size());
  for (size_t r = 0; r < probes.size(); ++r) {
    const Rect& q = *probes[r].query;
    for (ObjectId b = 0; b < db.size(); ++b) {
      const Rect& b_mbr = db.object(b).mbr();
      const double reach = norm.MaxDist(q, b_mbr);
      std::vector<Interval> sides;
      for (const Interval& side : b_mbr.sides()) {
        sides.emplace_back(side.lo() - reach, side.hi() + reach);
      }
      const Rect box(std::move(sides));
      size_t dominators = 0;
      for (ObjectId a = 0; a < db.size() && dominators < probes[r].k; ++a) {
        const UncertainObject& o = db.object(a);
        if (a != b && o.existentially_certain() && o.mbr().Intersects(box) &&
            Dominates(o.mbr(), q, b_mbr, DominationCriterion::kOptimal, norm)) {
          ++dominators;
        }
      }
      if (dominators < probes[r].k) out[r].push_back(b);
    }
  }
  return out;
}

struct RknnFilterSeries {
  size_t probes = 0;
  size_t batches = 0;     // batches per repeat
  double candidates = 0;  // mean per probe
  Spread ms;              // per batch
  bool agree = true;
};

/// Times RknnCandidates on `batches` batches of `probes` uniform query
/// boxes of extent 0.01 and k in 1..10, the shape of the repo
/// benchmark's RkNN requests.
RknnFilterSeries BenchRknnFilter(const UncertainDatabase& db,
                                 const RTree& index, size_t probes,
                                 size_t batches, int repeats) {
  const LpNorm norm = LpNorm::Euclidean();
  Rng rng(4200 + probes);
  std::vector<std::shared_ptr<const Pdf>> queries;
  std::vector<std::vector<DominatorProbe>> batch_probes(batches);
  for (std::vector<DominatorProbe>& batch : batch_probes) {
    for (size_t r = 0; r < probes; ++r) {
      const Point center{rng.NextDouble(), rng.NextDouble()};
      queries.push_back(
          MakeQueryObject(center, 0.01, ObjectModel::kUniform, 0, rng));
      batch.push_back(DominatorProbe{&queries.back()->bounds(),
                                     1 + rng.NextBounded(10)});
    }
  }
  const MinDistScan scan = [&index, &norm](const Rect& from,
                                           const MinDistEmit& emit) {
    index.ScanByMinDist(from, emit, norm);
  };
  RknnFilterSeries out;
  out.probes = probes;
  out.batches = batches;
  std::vector<std::vector<std::vector<ObjectId>>> lists(batches);
  std::vector<double> ms;
  Stopwatch timer;
  for (int rep = 0; rep < repeats; ++rep) {
    timer.Reset();
    for (size_t b = 0; b < batches; ++b) {
      lists[b] = RknnCandidates(db, batch_probes[b], {&scan, 1},
                                DominationCriterion::kOptimal, norm);
    }
    ms.push_back(timer.ElapsedSeconds() * 1e3 / static_cast<double>(batches));
  }
  size_t total = 0;
  for (size_t b = 0; b < batches; ++b) {
    out.agree = out.agree &&
                lists[b] == UnindexedRknnCandidates(db, batch_probes[b], norm);
    for (const std::vector<ObjectId>& ids : lists[b]) total += ids.size();
  }
  out.candidates =
      static_cast<double>(total) / static_cast<double>(batches * probes);
  out.ms = SpreadOf(ms);
  return out;
}

}  // namespace
}  // namespace updb

int main(int argc, char** argv) {
  using namespace updb;
  bench::PrintBanner("bench_hotpath_scaling",
                     "UgfBatch + verdict cache + parallel pair loop + SIMD");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# host_cpu=%s\n", HostCpu().c_str());
  std::printf("# hardware_threads=%u\n", hw);
  std::printf("# kernel_dispatch=%s\n", gf::ActiveKernelName());
  const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();

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
  // The rows below run on the table this process selected (scalar under
  // UPDB_FORCE_SCALAR=1), which the JSON's kernel_dispatch names.
  gf::ForceScalarKernels(was_scalar);

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

  // ---- Domination kernel vs the per-call Rect loop.
  std::printf(
      "series,p,d,run,tests,decided,rect_ns_median,rect_ns_min,rect_ns_max,"
      "kernel_ns_median,kernel_ns_min,kernel_ns_max,lane_ns_median,"
      "lane_ns_min,lane_ns_max,speedup,lane_speedup,agree\n");
  std::vector<DominationSeries> domination;
  bool domination_agree = true;
  for (int p : {1, 2}) {
    for (size_t d : {size_t{2}, size_t{3}}) {
      for (size_t run : {size_t{8}, size_t{32}, size_t{64}}) {
        domination.push_back(BenchDomination(p, d, run, /*repeats=*/7));
        const DominationSeries& s = domination.back();
        domination_agree = domination_agree && s.agree;
        std::printf(
            "domination,%d,%zu,%zu,%zu,%.3f,%.2f,%.2f,%.2f,%.2f,%.2f,%.2f,"
            "%.2f,%.2f,%.2f,%.2fx,%.2fx,%s\n",
            s.p, s.dim, s.run, s.tests, s.decided, s.rect_ns.median,
            s.rect_ns.min, s.rect_ns.max, s.kernel_ns.median,
            s.kernel_ns.min, s.kernel_ns.max, s.lane_ns.median,
            s.lane_ns.min, s.lane_ns.max,
            s.rect_ns.median / s.kernel_ns.median,
            s.kernel_ns.median / s.lane_ns.median, s.agree ? "yes" : "NO");
      }
    }
  }

  // ---- Short engine runs, each thread reusing its engine workspace.
  IdcaConfig short_run;
  short_run.max_iterations = 2;
  short_run.num_threads = 1;
  const IdcaEngine short_engine(db, short_run);
  // A predicate k inside the candidate rank window, so the predicate run
  // refines instead of being settled by the filter.
  const IdcaResult window = short_engine.ComputeDomCount(target, *query);
  const size_t predicate_k =
      window.complete_domination_count + window.influence_count / 4 + 1;
  std::printf(
      "series,kind,influence,iterations,runs_per_repeat,ns_median,ns_min,"
      "ns_max,agree\n");
  std::vector<EngineRunSeries> engine_runs;
  engine_runs.push_back(BenchEngineRun(
      "predicate",
      [&] {
        return short_engine.ComputeDomCount(target, *query,
                                            IdcaPredicate{predicate_k, 0.5});
      },
      /*runs_per_repeat=*/200, /*repeats=*/7));
  engine_runs.push_back(BenchEngineRun(
      "full_distribution",
      [&] { return short_engine.ComputeDomCount(target, *query); },
      /*runs_per_repeat=*/100, /*repeats=*/7));
  bool engine_runs_agree = true;
  for (const EngineRunSeries& s : engine_runs) {
    engine_runs_agree = engine_runs_agree && s.agree;
    std::printf("engine_run,%s,%zu,%zu,%d,%.0f,%.0f,%.0f,%s\n", s.kind,
                s.influence, s.iterations, s.runs_per_repeat, s.ns.median,
                s.ns.min, s.ns.max, s.agree ? "yes" : "NO");
  }

  // ---- The threshold-RkNN candidate filter over one R-tree.
  SyntheticConfig rknn_cfg;
  rknn_cfg.num_objects = bench::Scaled(1000);
  rknn_cfg.max_extent = 0.01;
  rknn_cfg.seed = 42;
  const UncertainDatabase rknn_db = MakeSyntheticDatabase(rknn_cfg);
  const RTree rknn_index = BuildRTree(rknn_db.objects());
  std::printf(
      "series,objects,probes,batches,candidates_per_probe,ms_median,ms_min,"
      "ms_max,agree\n");
  std::vector<RknnFilterSeries> rknn_filter;
  bool rknn_filter_agree = true;
  for (size_t probes : {size_t{1}, size_t{2}, size_t{8}}) {
    rknn_filter.push_back(BenchRknnFilter(rknn_db, rknn_index, probes,
                                          /*batches=*/16, /*repeats=*/7));
    const RknnFilterSeries& s = rknn_filter.back();
    rknn_filter_agree = rknn_filter_agree && s.agree;
    std::printf("rknn_filter,%zu,%zu,%zu,%.1f,%.3f,%.3f,%.3f,%s\n",
                rknn_db.size(), s.probes, s.batches, s.candidates, s.ms.median,
                s.ms.min, s.ms.max, s.agree ? "yes" : "NO");
  }
  const bool all_agree = checksum_ok && simd_exact && domination_agree &&
                         engine_runs_agree && rknn_filter_agree;

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_hotpath_scaling\",\n");
    std::fprintf(f, "  \"host_cpu\": \"%s\",\n", HostCpu().c_str());
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
    std::fprintf(f, "  \"kernel_dispatch\": \"%s\",\n", gf::ActiveKernelName());
    std::fprintf(f,
                 "  \"note\": \"thread_scaling is bounded by "
                 "hardware_threads on the recording host; results are "
                 "bit-identical for every thread count (see "
                 "idca_parallel_test); engine_run rows reuse the thread's "
                 "engine workspace and equal fresh-thread runs bit for bit; "
                 "on a shared VM host compare rows of one recording only\",\n");
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
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"domination\": [\n");
    for (size_t i = 0; i < domination.size(); ++i) {
      const DominationSeries& s = domination[i];
      std::fprintf(
          f,
          "    {\"criterion\": \"optimal\", \"p\": %d, \"d\": %zu, "
          "\"run\": %zu, \"tests\": %zu, \"repeats\": 7, "
          "\"decided_fraction\": %.3f, "
          "\"rect_loop_ns\": {\"median\": %.2f, \"min\": %.2f, "
          "\"max\": %.2f}, \"kernel_ns\": {\"median\": %.2f, "
          "\"min\": %.2f, \"max\": %.2f}, \"lane_ns\": {\"median\": "
          "%.2f, \"min\": %.2f, \"max\": %.2f}, \"speedup\": %.2f, "
          "\"lane_speedup\": %.2f, \"agree\": %s}%s\n",
          s.p, s.dim, s.run, s.tests, s.decided, s.rect_ns.median,
          s.rect_ns.min, s.rect_ns.max, s.kernel_ns.median, s.kernel_ns.min,
          s.kernel_ns.max, s.lane_ns.median, s.lane_ns.min, s.lane_ns.max,
          s.rect_ns.median / s.kernel_ns.median,
          s.kernel_ns.median / s.lane_ns.median, s.agree ? "true" : "false",
          i + 1 < domination.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"engine_run\": [\n");
    for (size_t i = 0; i < engine_runs.size(); ++i) {
      const EngineRunSeries& s = engine_runs[i];
      std::fprintf(
          f,
          "    {\"kind\": \"%s\", \"max_iterations\": %d, "
          "\"influence\": %zu, \"iterations\": %zu, "
          "\"runs_per_repeat\": %d, \"repeats\": 7, "
          "\"ns_per_run\": {\"median\": %.0f, \"min\": %.0f, "
          "\"max\": %.0f}, \"agree\": %s}%s\n",
          s.kind, short_run.max_iterations, s.influence, s.iterations,
          s.runs_per_repeat, s.ns.median, s.ns.min, s.ns.max,
          s.agree ? "true" : "false", i + 1 < engine_runs.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"rknn_filter\": [\n");
    for (size_t i = 0; i < rknn_filter.size(); ++i) {
      const RknnFilterSeries& s = rknn_filter[i];
      std::fprintf(
          f,
          "    {\"objects\": %zu, \"max_extent\": 0.01, \"probes\": %zu, "
          "\"k\": \"1..10\", \"batches_per_repeat\": %zu, "
          "\"repeats\": 7, \"candidates_per_probe\": %.1f, "
          "\"ms_per_batch\": {\"median\": %.3f, \"min\": %.3f, "
          "\"max\": %.3f}, \"agree\": %s}%s\n",
          rknn_db.size(), s.probes, s.batches, s.candidates, s.ms.median,
          s.ms.min, s.ms.max, s.agree ? "true" : "false",
          i + 1 < rknn_filter.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return all_agree ? 0 : 2;
}
