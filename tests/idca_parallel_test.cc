// Determinism and equivalence properties of the parallel IDCA engine:
//
//  * num_threads = 1 vs N produce bit-identical IdcaResult bounds. The
//    pair loop accumulates into a fixed number of chunk partials reduced
//    in chunk order, so nothing may depend on the schedule. The
//    comparisons below are therefore tolerance-free (EXPECT_EQ).
//  * A thread's reused engine workspace carries nothing from one run into
//    the next: a sequence of runs of changing shape on one thread matches,
//    bit for bit, the same runs each made on a fresh thread.

#include "core/idca.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "cache/verdict_memo.h"
#include "queries/queries.h"
#include "workload/generators.h"

namespace updb {
namespace {

using workload::MakeQueryObject;
using workload::MakeSyntheticDatabase;
using workload::ObjectModel;
using workload::SyntheticConfig;

UncertainDatabase TestDatabase(size_t n, double extent, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_objects = n;
  cfg.max_extent = extent;
  cfg.seed = seed;
  return MakeSyntheticDatabase(cfg);
}

void ExpectIdenticalCounters(const IdcaCounters& a, const IdcaCounters& b) {
  EXPECT_EQ(a.pairs_evaluated, b.pairs_evaluated);
  EXPECT_EQ(a.pairs_frozen, b.pairs_frozen);
  EXPECT_EQ(a.domination_tests, b.domination_tests);
  EXPECT_EQ(a.verdict_cache_hits, b.verdict_cache_hits);
  EXPECT_EQ(a.verdict_cache_misses, b.verdict_cache_misses);
  EXPECT_EQ(a.ugf_multiplies, b.ugf_multiplies);
}

void ExpectIdenticalResults(const IdcaResult& a, const IdcaResult& b) {
  EXPECT_EQ(a.complete_domination_count, b.complete_domination_count);
  EXPECT_EQ(a.influence_count, b.influence_count);
  ASSERT_EQ(a.bounds.num_ranks(), b.bounds.num_ranks());
  for (size_t k = 0; k < a.bounds.num_ranks(); ++k) {
    EXPECT_EQ(a.bounds.lb(k), b.bounds.lb(k)) << "k=" << k;
    EXPECT_EQ(a.bounds.ub(k), b.bounds.ub(k)) << "k=" << k;
  }
  ASSERT_EQ(a.influence_pdom.size(), b.influence_pdom.size());
  for (size_t i = 0; i < a.influence_pdom.size(); ++i) {
    EXPECT_EQ(a.influence_pdom[i].lb, b.influence_pdom[i].lb) << "i=" << i;
    EXPECT_EQ(a.influence_pdom[i].ub, b.influence_pdom[i].ub) << "i=" << i;
  }
  EXPECT_EQ(a.predicate_prob.lb, b.predicate_prob.lb);
  EXPECT_EQ(a.predicate_prob.ub, b.predicate_prob.ub);
  EXPECT_EQ(a.decision, b.decision);
  EXPECT_EQ(a.iterations.size(), b.iterations.size());
  // The profiling counters are part of the determinism contract too: the
  // chunk partition depends only on the pair count, never on the thread
  // count, so summed per-chunk work is schedule-independent.
  ExpectIdenticalCounters(a.counters, b.counters);
}

TEST(IdcaParallelTest, ThreadCountDoesNotChangeBounds) {
  const UncertainDatabase db = TestDatabase(60, 0.08, 77);
  Rng rng(21);
  const auto r =
      MakeQueryObject(Point{0.5, 0.5}, 0.08, ObjectModel::kUniform, 0, rng);
  IdcaConfig serial;
  serial.max_iterations = 5;
  serial.num_threads = 1;
  const IdcaResult base = IdcaEngine(db, serial).ComputeDomCount(7, *r);
  for (int threads : {2, 4, 7}) {
    IdcaConfig parallel = serial;
    parallel.num_threads = threads;
    const IdcaResult got = IdcaEngine(db, parallel).ComputeDomCount(7, *r);
    SCOPED_TRACE(threads);
    ExpectIdenticalResults(base, got);
  }
}

TEST(IdcaParallelTest, ThreadCountDoesNotChangePredicateBounds) {
  const UncertainDatabase db = TestDatabase(80, 0.05, 79);
  Rng rng(22);
  const auto r =
      MakeQueryObject(Point{0.5, 0.5}, 0.05, ObjectModel::kUniform, 0, rng);
  IdcaConfig serial;
  serial.max_iterations = 4;
  serial.num_threads = 1;
  const IdcaResult base =
      IdcaEngine(db, serial).ComputeDomCount(11, *r, IdcaPredicate{6, 0.5});
  for (int threads : {3, 8}) {
    IdcaConfig parallel = serial;
    parallel.num_threads = threads;
    const IdcaResult got =
        IdcaEngine(db, parallel)
            .ComputeDomCount(11, *r, IdcaPredicate{6, 0.5});
    SCOPED_TRACE(threads);
    ExpectIdenticalResults(base, got);
  }
}

/// The engine's work counters are populated and self-consistent. That
/// inheritance saves tests against a from-scratch evaluation is checked
/// in idca_oracle_test.
TEST(IdcaParallelTest, CountersArePopulatedAndConsistent) {
  const UncertainDatabase db = TestDatabase(50, 0.08, 83);
  Rng rng(25);
  const auto r =
      MakeQueryObject(Point{0.45, 0.55}, 0.08, ObjectModel::kUniform, 0, rng);
  IdcaConfig config;
  config.max_iterations = 5;
  const IdcaResult result = IdcaEngine(db, config).ComputeDomCount(12, *r);
  EXPECT_GT(result.counters.pairs_evaluated, 0u);
  EXPECT_GT(result.counters.domination_tests, 0u);
  EXPECT_GT(result.counters.ugf_multiplies, 0u);
  // Every fresh test is a cache miss by definition.
  EXPECT_EQ(result.counters.verdict_cache_misses,
            result.counters.domination_tests);
  EXPECT_GT(result.counters.verdict_cache_hits, 0u);
}

/// One engine call of the stale-workspace sequence below.
struct SequenceRun {
  const UncertainDatabase* db = nullptr;
  const Pdf* query = nullptr;
  ObjectId object = 0;
  bool of_query = false;  // ComputeDomCountOfQuery instead of ComputeDomCount
  std::optional<IdcaPredicate> predicate;
  IdcaConfig config;
};

IdcaResult Execute(const SequenceRun& run) {
  const IdcaEngine engine(*run.db, run.config);
  return run.of_query
             ? engine.ComputeDomCountOfQuery(*run.query, run.object,
                                             run.predicate)
             : engine.ComputeDomCount(run.object, *run.query, run.predicate);
}

TEST(IdcaParallelTest, ReusedWorkspaceMatchesFreshThreadRuns) {
  // Large C -> small C -> large C on one thread, mixing predicate and
  // full-distribution runs, both criteria, and the cross-request verdict
  // memo attached and detached. Every run must match the same run made on
  // a thread whose workspace has never been used.
  const UncertainDatabase large_db = TestDatabase(60, 0.08, 77);
  const UncertainDatabase small_db = TestDatabase(40, 0.03, 101);
  Rng rng(21);
  const auto large_q =
      MakeQueryObject(Point{0.5, 0.5}, 0.08, ObjectModel::kUniform, 0, rng);
  const auto small_q =
      MakeQueryObject(Point{0.4, 0.6}, 0.03, ObjectModel::kUniform, 0, rng);
  cache::VerdictMemo memo(1 << 14);

  for (int threads : {1, 4}) {
    std::vector<SequenceRun> runs;
    // `with_predicate` puts k inside the run's candidate rank window, so
    // the predicate run refines instead of being settled by the filter.
    const auto add = [&](const UncertainDatabase& db, const Pdf& q,
                         ObjectId object, bool of_query, bool with_predicate,
                         DominationCriterion criterion, bool with_memo) {
      SequenceRun run;
      run.db = &db;
      run.query = &q;
      run.object = object;
      run.of_query = of_query;
      run.config.criterion = criterion;
      run.config.max_iterations = 6;
      run.config.num_threads = threads;
      if (with_predicate) {
        const IdcaResult window = Execute(run);
        run.predicate = IdcaPredicate{
            window.complete_domination_count + window.influence_count / 3 + 1,
            0.5};
      }
      if (with_memo) {
        run.config.verdict_memo = &memo;
        run.config.memo_context = cache::VerdictMemo::MixContext(
            static_cast<uint64_t>(db.size()), 7);
      }
      runs.push_back(run);
    };
    constexpr auto kOptimal = DominationCriterion::kOptimal;
    constexpr auto kMinMax = DominationCriterion::kMinMax;
    add(large_db, *large_q, 13, false, false, kMinMax, true);
    add(large_db, *large_q, 13, true, true, kMinMax, true);
    add(small_db, *small_q, 5, false, true, kOptimal, true);
    add(small_db, *small_q, 6, true, false, kMinMax, false);
    add(large_db, *large_q, 7, false, false, kOptimal, false);
    add(large_db, *large_q, 11, false, true, kOptimal, true);
    add(small_db, *small_q, 5, false, false, kMinMax, true);
    add(large_db, *large_q, 29, true, false, kOptimal, false);

    std::vector<IdcaResult> reused;
    std::thread([&] {
      for (const SequenceRun& run : runs) reused.push_back(Execute(run));
    }).join();
    uint64_t frozen = 0;
    for (size_t i = 0; i < runs.size(); ++i) {
      IdcaResult fresh;
      std::thread([&] { fresh = Execute(runs[i]); }).join();
      SCOPED_TRACE(testing::Message() << "threads=" << threads << " run=" << i);
      EXPECT_GT(fresh.iterations_run, 0u);
      ExpectIdenticalResults(fresh, reused[i]);
      frozen += fresh.counters.pairs_frozen;
    }
    // Frozen-pair accumulators are part of what must not go stale.
    EXPECT_GT(frozen, 0u);
  }
}

TEST(IdcaParallelTest, QueriesAreThreadCountInvariant) {
  const UncertainDatabase db = TestDatabase(70, 0.05, 89);
  const RTree index = BuildRTree(db.objects());
  Rng rng(24);
  const auto q =
      MakeQueryObject(Point{0.5, 0.5}, 0.05, ObjectModel::kUniform, 0, rng);
  IdcaConfig serial;
  serial.max_iterations = 4;
  serial.num_threads = 1;
  IdcaConfig parallel = serial;
  parallel.num_threads = 4;

  const auto knn_s = ProbabilisticThresholdKnn(db, index, *q, 5, 0.5, serial);
  const auto knn_p =
      ProbabilisticThresholdKnn(db, index, *q, 5, 0.5, parallel);
  ASSERT_EQ(knn_s.size(), knn_p.size());
  for (size_t i = 0; i < knn_s.size(); ++i) {
    EXPECT_EQ(knn_s[i].id, knn_p[i].id);
    EXPECT_EQ(knn_s[i].prob.lb, knn_p[i].prob.lb);
    EXPECT_EQ(knn_s[i].prob.ub, knn_p[i].prob.ub);
    EXPECT_EQ(knn_s[i].decision, knn_p[i].decision);
  }

  const auto er_s = ExpectedRankOrder(db, *q, serial);
  const auto er_p = ExpectedRankOrder(db, *q, parallel);
  ASSERT_EQ(er_s.size(), er_p.size());
  for (size_t i = 0; i < er_s.size(); ++i) {
    EXPECT_EQ(er_s[i].id, er_p[i].id);
    EXPECT_EQ(er_s[i].expected_rank.lb, er_p[i].expected_rank.lb);
    EXPECT_EQ(er_s[i].expected_rank.ub, er_p[i].expected_rank.ub);
  }
}

}  // namespace
}  // namespace updb
