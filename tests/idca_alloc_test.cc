// Verifies the IDCA engine's allocation contract: every thread keeps one
// engine workspace (chunk partials, pair blocks, decomposition trees,
// per-worker UGF scratch) across runs, so once a warm-up run of a given
// size has grown it, a run of that size or smaller allocates exactly the
// heap blocks of the IdcaResult it returns — two for the rank bounds, one
// for the influence brackets, one for the iteration stats — and nothing
// else. Covered: predicate runs in both directions (ComputeDomCount,
// ComputeDomCountOfQuery) and full-distribution runs, both domination
// criteria, L1/L2/L3, serial and 4-thread pair loops, uniform,
// truncated-Gaussian and discrete objects, runs with a verdict memo
// attached, and a smaller run after a larger one.
//
// counting_allocator.h counts every allocation in the process, so this
// test lives in its own binary.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>

#include "cache/verdict_memo.h"
#include "core/idca.h"
#include "counting_allocator.h"
#include "workload/generators.h"

namespace updb {
namespace {

using workload::MakeQueryObject;
using workload::MakeSyntheticDatabase;
using workload::ObjectModel;
using workload::SyntheticConfig;

/// Heap blocks a returned IdcaResult owns.
size_t ResultBlocks(const IdcaResult& r) {
  return (r.bounds.num_ranks() > 0 ? 2 : 0) +
         (r.influence_pdom.empty() ? 0 : 1) + (r.iterations.empty() ? 0 : 1);
}

/// Runs `run` once to warm the calling thread's workspace, then again,
/// and expects the second run to allocate only its result's blocks.
/// Returns the second run's result.
IdcaResult ExpectOnlyResultAllocations(
    const std::function<IdcaResult()>& run, const std::string& label) {
  run();
  const size_t before = test::AllocationCount();
  IdcaResult result = run();
  const size_t allocations = test::AllocationCount() - before;
  EXPECT_EQ(allocations, ResultBlocks(result)) << label;
  return result;
}

struct Fixture {
  UncertainDatabase db;
  std::shared_ptr<const Pdf> query;
};

Fixture MakeFixture(ObjectModel model, size_t n, double extent) {
  SyntheticConfig cfg;
  cfg.num_objects = n;
  cfg.max_extent = extent;
  cfg.model = model;
  cfg.samples_per_object = 40;
  cfg.seed = 613;
  Rng rng(617);
  std::shared_ptr<const Pdf> query =
      MakeQueryObject(Point{0.5, 0.5}, extent, model, 40, rng);
  return Fixture{MakeSyntheticDatabase(cfg), std::move(query)};
}

const char* ModelName(ObjectModel model) {
  switch (model) {
    case ObjectModel::kUniform:
      return "uniform";
    case ObjectModel::kGaussian:
      return "gaussian";
    case ObjectModel::kDiscrete:
      return "discrete";
  }
  return "?";
}

TEST(IdcaAllocTest, WarmRunsAllocateOnlyTheirResult) {
  for (ObjectModel model : {ObjectModel::kUniform, ObjectModel::kGaussian,
                            ObjectModel::kDiscrete}) {
    const Fixture f = MakeFixture(model, 80, 0.12);
    for (DominationCriterion criterion :
         {DominationCriterion::kOptimal, DominationCriterion::kMinMax}) {
      for (int p : {1, 2, 3}) {
        for (int threads : {1, 4}) {
          IdcaConfig config;
          config.criterion = criterion;
          config.norm = LpNorm(p);
          config.num_threads = threads;
          config.max_iterations = 4;
          const IdcaEngine engine(f.db, config);
          const std::string label =
              std::string(ModelName(model)) + " criterion=" +
              (criterion == DominationCriterion::kOptimal ? "optimal"
                                                          : "minmax") +
              " p=" + std::to_string(p) +
              " threads=" + std::to_string(threads);
          const IdcaPredicate predicate{6, 0.5};
          const IdcaResult knn = ExpectOnlyResultAllocations(
              [&] { return engine.ComputeDomCount(17, *f.query, predicate); },
              label + " ComputeDomCount+predicate");
          const IdcaResult rknn = ExpectOnlyResultAllocations(
              [&] {
                return engine.ComputeDomCountOfQuery(*f.query, 23, predicate);
              },
              label + " ComputeDomCountOfQuery+predicate");
          const IdcaResult full = ExpectOnlyResultAllocations(
              [&] { return engine.ComputeDomCount(17, *f.query); },
              label + " full distribution");
          // The runs must have refined, or the workspace was never used.
          EXPECT_GT(knn.influence_count, 0u) << label;
          EXPECT_GT(rknn.influence_count, 0u) << label;
          EXPECT_GE(full.iterations_run, 2u) << label;
        }
      }
    }
  }
}

TEST(IdcaAllocTest, WarmRunsWithAVerdictMemoAllocateOnlyTheirResult) {
  // With a cross-request verdict memo attached, the pair loop probes the
  // memo per test while it gathers the run of boxes to classify and
  // inserts decided misses after classifying; its key and verdict buffers
  // are per-worker scratch like the rest. The second run of each shape
  // mostly hits the memo, the first mostly misses: both paths stay off
  // the heap once warm.
  const Fixture f = MakeFixture(ObjectModel::kUniform, 80, 0.12);
  cache::VerdictMemo memo(1 << 14);
  for (DominationCriterion criterion :
       {DominationCriterion::kOptimal, DominationCriterion::kMinMax}) {
    for (int threads : {1, 4}) {
      IdcaConfig config;
      config.criterion = criterion;
      config.num_threads = threads;
      config.max_iterations = 4;
      config.verdict_memo = &memo;
      config.memo_context = 71 + static_cast<uint64_t>(threads);
      const IdcaEngine engine(f.db, config);
      const std::string label =
          std::string(criterion == DominationCriterion::kOptimal
                          ? "optimal"
                          : "minmax") +
          " threads=" + std::to_string(threads);
      const uint64_t hits_before = memo.hits();
      const IdcaResult knn = ExpectOnlyResultAllocations(
          [&] {
            return engine.ComputeDomCount(17, *f.query, IdcaPredicate{6, 0.5});
          },
          label + " ComputeDomCount+predicate");
      const IdcaResult full = ExpectOnlyResultAllocations(
          [&] { return engine.ComputeDomCount(17, *f.query); },
          label + " full distribution");
      EXPECT_GT(knn.influence_count, 0u) << label;
      EXPECT_GE(full.iterations_run, 2u) << label;
      // The repeated runs replayed verdicts from the memo.
      EXPECT_GT(memo.hits(), hits_before) << label;
    }
  }
}

TEST(IdcaAllocTest, SmallerRunAfterLargerOneAllocatesOnlyItsResult) {
  // A thread keeps the footprint of the largest run it has executed: after
  // a large full-distribution run (many candidates, deep refinement), a
  // smaller one — fewer candidates, fewer iterations, and a predicate run
  // of a different truncation — needs no warm-up of its own.
  const Fixture big = MakeFixture(ObjectModel::kUniform, 120, 0.15);
  const Fixture small = MakeFixture(ObjectModel::kUniform, 60, 0.05);
  for (int threads : {1, 4}) {
    IdcaConfig large_config;
    large_config.num_threads = threads;
    large_config.max_iterations = 6;
    IdcaConfig small_config = large_config;
    small_config.max_iterations = 3;
    const IdcaEngine large_engine(big.db, large_config);
    const IdcaEngine small_engine(small.db, small_config);
    const IdcaResult large = large_engine.ComputeDomCount(5, *big.query);
    ASSERT_GT(large.influence_count, 0u);
    const std::string label = "threads=" + std::to_string(threads);

    size_t before = test::AllocationCount();
    const IdcaResult full = small_engine.ComputeDomCount(9, *small.query);
    EXPECT_EQ(test::AllocationCount() - before, ResultBlocks(full)) << label;
    EXPECT_LT(full.influence_count, large.influence_count) << label;

    before = test::AllocationCount();
    const IdcaResult predicate = small_engine.ComputeDomCountOfQuery(
        *small.query, 9, IdcaPredicate{3, 0.4});
    EXPECT_EQ(test::AllocationCount() - before, ResultBlocks(predicate))
        << label;
  }
}

TEST(IdcaAllocTest, RunsSettledByTheFilterAllocateOnlyTheirResult) {
  // Runs the filter alone settles — no influence objects, a k the complete
  // dominators already reach, a k no world can reach — return through the
  // same exit as refined runs, without extra blocks.
  const Fixture f = MakeFixture(ObjectModel::kUniform, 60, 0.002);
  IdcaConfig config;
  config.max_iterations = 3;
  const IdcaEngine engine(f.db, config);
  size_t no_influence = 0;
  size_t k_reached = 0;
  for (ObjectId b = 0; b < 20; ++b) {
    const std::string label = "b=" + std::to_string(b);
    const IdcaResult full = ExpectOnlyResultAllocations(
        [&] { return engine.ComputeDomCount(b, *f.query); }, label);
    no_influence += full.influence_count == 0;
    const IdcaResult k1 = ExpectOnlyResultAllocations(
        [&] {
          return engine.ComputeDomCount(b, *f.query, IdcaPredicate{1, 0.5});
        },
        label + " k=1");
    k_reached += k1.complete_domination_count >= 1;
    ExpectOnlyResultAllocations(
        [&] {
          return engine.ComputeDomCount(b, *f.query,
                                        IdcaPredicate{f.db.size(), 0.5});
        },
        label + " k=N");
  }
  EXPECT_GT(no_influence, 0u);
  EXPECT_GT(k_reached, 0u);
}

}  // namespace
}  // namespace updb
