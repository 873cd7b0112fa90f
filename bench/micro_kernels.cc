// Google-benchmark microbenchmarks for the hot kernels: the two
// domination criteria, generating-function expansion, batched UGF
// multiplication, decomposition deepening and R-tree kNN.

#include <benchmark/benchmark.h>

#include "updb.h"

namespace updb {
namespace {

/// Pins the kernel dispatch table for one benchmark body, restoring the
/// prior mode on exit; the scalar/vector row pairs below use it to measure
/// both tables in one binary run.
class ScopedDispatch {
 public:
  explicit ScopedDispatch(bool force_scalar)
      : was_scalar_(&gf::ActiveKernels() == &gf::ScalarKernels()) {
    gf::ForceScalarKernels(force_scalar);
  }
  ~ScopedDispatch() { gf::ForceScalarKernels(was_scalar_); }

 private:
  bool was_scalar_;
};

std::vector<Rect> RandomRects(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point center{rng.NextDouble(), rng.NextDouble()};
    rects.push_back(
        Rect::Centered(center, {rng.Uniform(0, 0.05), rng.Uniform(0, 0.05)}));
  }
  return rects;
}

void BM_MinMaxDominates(benchmark::State& state) {
  const auto rects = RandomRects(3000, 1);
  size_t i = 0;
  for (auto _ : state) {
    const Rect& a = rects[i % rects.size()];
    const Rect& b = rects[(i + 1) % rects.size()];
    const Rect& r = rects[(i + 2) % rects.size()];
    benchmark::DoNotOptimize(MinMaxDominates(a, b, r));
    ++i;
  }
}
BENCHMARK(BM_MinMaxDominates);

void BM_OptimalDominates(benchmark::State& state) {
  const auto rects = RandomRects(3000, 2);
  size_t i = 0;
  for (auto _ : state) {
    const Rect& a = rects[i % rects.size()];
    const Rect& b = rects[(i + 1) % rects.size()];
    const Rect& r = rects[(i + 2) % rects.size()];
    benchmark::DoNotOptimize(OptimalDominates(a, b, r));
    ++i;
  }
}
BENCHMARK(BM_OptimalDominates);

void BM_PoissonBinomial(benchmark::State& state, bool force_scalar) {
  ScopedDispatch dispatch(force_scalar);
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> probs(n);
  for (double& p : probs) p = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PoissonBinomialPdf(probs));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
  state.SetLabel(gf::ActiveKernelName());
}
BENCHMARK_CAPTURE(BM_PoissonBinomial, scalar, true)
    ->Range(16, 1024)
    ->Complexity();
BENCHMARK_CAPTURE(BM_PoissonBinomial, vector, false)
    ->Range(16, 1024)
    ->Complexity();

void BM_UgfBatch4(benchmark::State& state, bool force_scalar) {
  // Four candidate factor sequences advanced in lockstep through one SoA
  // workspace — the shape the IDCA refinement loop stages per chunk.
  ScopedDispatch dispatch(force_scalar);
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(4);
  std::vector<double> lb4(n * UgfBatch::kLanes), ub4(n * UgfBatch::kLanes);
  for (size_t i = 0; i < n * UgfBatch::kLanes; ++i) {
    lb4[i] = rng.NextDouble() * 0.5;
    ub4[i] = lb4[i] + 0.5 * rng.NextDouble();
  }
  UgfBatch batch;
  CountDistributionBounds out = CountDistributionBounds::Zero(n + 1);
  for (auto _ : state) {
    batch.Begin(UgfBatch::kNoTruncation, UgfBatch::kLanes);
    for (size_t i = 0; i < n; ++i) {
      batch.MultiplyFactors(lb4.data() + i * UgfBatch::kLanes,
                            ub4.data() + i * UgfBatch::kLanes);
    }
    batch.FinishBounds();
    for (size_t l = 0; l < UgfBatch::kLanes; ++l) batch.EmitBounds(l, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel(gf::ActiveKernelName());
}
BENCHMARK_CAPTURE(BM_UgfBatch4, scalar, true)->Range(8, 128);
BENCHMARK_CAPTURE(BM_UgfBatch4, vector, false)->Range(8, 128);

void BM_DecompositionDeepen(benchmark::State& state) {
  const int depth = static_cast<int>(state.range(0));
  UniformPdf pdf(Rect(Point{0.0, 0.0}, Point{1.0, 1.0}));
  for (auto _ : state) {
    DecompositionTree tree(&pdf);
    tree.DeepenTo(depth);
    benchmark::DoNotOptimize(tree.size());
  }
}
BENCHMARK(BM_DecompositionDeepen)->DenseRange(1, 8);

void BM_RTreeKnn(benchmark::State& state) {
  workload::SyntheticConfig cfg;
  cfg.num_objects = 10000;
  cfg.max_extent = 0.004;
  const UncertainDatabase db = workload::MakeSyntheticDatabase(cfg);
  const RTree index = BuildRTree(db.objects());
  Rng rng(6);
  for (auto _ : state) {
    const Rect q =
        Rect::Centered(Point{rng.NextDouble(), rng.NextDouble()}, {0.0, 0.0});
    std::vector<ObjectId> nearest;
    index.ScanByMinDist(q, [&nearest](ObjectId id, double) {
      nearest.push_back(id);
      return nearest.size() < 10;
    });
    benchmark::DoNotOptimize(nearest.data());
  }
}
BENCHMARK(BM_RTreeKnn);

void BM_PDomGivenPair(benchmark::State& state) {
  UniformPdf a(Rect(Point{0.3, 0.3}, Point{0.5, 0.5}));
  UniformPdf b(Rect(Point{0.4, 0.4}, Point{0.6, 0.6}));
  UniformPdf r(Rect(Point{0.0, 0.0}, Point{0.2, 0.2}));
  DecompositionTree tree(&a);
  tree.DeepenTo(static_cast<int>(state.range(0)));
  const std::vector<Partition> parts = tree.Partitions();
  for (auto _ : state) {
    benchmark::DoNotOptimize(PDomGivenPair(parts, b.bounds(), r.bounds()));
  }
}
BENCHMARK(BM_PDomGivenPair)->DenseRange(2, 8, 2);

}  // namespace
}  // namespace updb

BENCHMARK_MAIN();
