#include "queries/queries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "mc/monte_carlo.h"
#include "rknn_oracle.h"
#include "workload/generators.h"

namespace updb {
namespace {

using test_util::BruteForceRknnCandidates;
using workload::MakeQueryObject;
using workload::MakeSyntheticDatabase;
using workload::ObjectModel;
using workload::SyntheticConfig;

std::shared_ptr<DiscreteSamplePdf> PointObject(double x, double y) {
  return std::make_shared<DiscreteSamplePdf>(std::vector<Point>{Point{x, y}});
}

struct Fixture {
  UncertainDatabase db;
  RTree index{std::vector<RTreeEntry>{}};

  explicit Fixture(const SyntheticConfig& cfg)
      : db(MakeSyntheticDatabase(cfg)), index(BuildRTree(db.objects())) {}
};

TEST(KnnQueryTest, CertainLineDatabase) {
  UncertainDatabase db;
  for (int i = 1; i <= 10; ++i) {
    db.Add(PointObject(static_cast<double>(i), 0.0));
  }
  RTree index = BuildRTree(db.objects());
  const auto q = PointObject(0.0, 0.0);
  const auto results =
      ProbabilisticThresholdKnn(db, index, *q, 3, 0.5);
  // Exactly objects at x=1,2,3 qualify with probability 1.
  std::vector<ObjectId> qualified;
  for (const auto& r : results) {
    if (r.decision == PredicateDecision::kTrue) qualified.push_back(r.id);
  }
  std::sort(qualified.begin(), qualified.end());
  EXPECT_EQ(qualified, (std::vector<ObjectId>{0, 1, 2}));
  for (const auto& r : results) {
    EXPECT_NE(r.decision, PredicateDecision::kUndecided);
  }
}

TEST(KnnQueryTest, OverflowingDistancesNeverDecideWrong) {
  // Finite coordinates whose squared distances overflow to +inf. The
  // optimal criterion's inf - inf terms used to fire in both directions,
  // so each object "dominated" the other and both came back kFalse with
  // P = [0, 0], although object 0 is the 1-NN in every world.
  UncertainDatabase db;
  db.Add(std::make_shared<UniformPdf>(Rect(Point{1.5e154}, Point{1.6e154})));
  db.Add(std::make_shared<UniformPdf>(Rect(Point{2.0e154}, Point{2.1e154})));
  RTree index = BuildRTree(db.objects());
  const UniformPdf q(Rect(Point{0.0}, Point{1.0}));
  // No NaN term ever decides, so level h keeps all 4^h pairs and 2^h nodes
  // per candidate open: seven levels cost an eighth of the default eight.
  // At three to six levels the summed pair weights round object 0's upper
  // bound to just below its true probability 1 (a rounding fault of the
  // weight sum, not of the NaN guard), so the budget stays above them.
  IdcaConfig config;
  config.max_iterations = 7;
  const auto results = ProbabilisticThresholdKnn(db, index, q, 1, 0.5, config);
  ASSERT_EQ(results.size(), 2u);
  for (const ThresholdQueryResult& r : results) {
    const double truth = r.id == 0 ? 1.0 : 0.0;  // P(object is the 1-NN)
    EXPECT_TRUE(r.prob.Contains(truth)) << "object " << r.id;
    EXPECT_NE(r.decision, r.id == 0 ? PredicateDecision::kFalse
                                    : PredicateDecision::kTrue)
        << "object " << r.id;
  }

  // Only R's upper endpoint overflows. "Object 0 dominates object 1" has
  // the term 1 - 4 = -3 at R's lower endpoint and inf - inf at its upper
  // one, where the exact term is positive. std::max(-3, NaN) is -3, so
  // only the NaN guard keeps the test from firing. Object 1 is the 1-NN
  // in all but a ~1e-200 share of worlds.
  UncertainDatabase near;
  near.Add(std::make_shared<UniformPdf>(Rect(Point{0.0}, Point{1.0})));
  near.Add(std::make_shared<UniformPdf>(Rect(Point{2.0}, Point{3.0})));
  RTree near_index = BuildRTree(near.objects());
  const UniformPdf wide(Rect(Point{0.0}, Point{1e200}));
  const auto near_results =
      ProbabilisticThresholdKnn(near, near_index, wide, 1, 0.5, config);
  ASSERT_EQ(near_results.size(), 2u);
  for (const ThresholdQueryResult& r : near_results) {
    EXPECT_NE(r.decision, r.id == 0 ? PredicateDecision::kTrue
                                    : PredicateDecision::kFalse)
        << "object " << r.id;
  }
}

TEST(KnnQueryTest, AgreesWithMonteCarloOnDiscreteData) {
  SyntheticConfig cfg;
  cfg.num_objects = 60;
  cfg.max_extent = 0.05;
  cfg.model = ObjectModel::kDiscrete;
  cfg.samples_per_object = 24;
  Fixture f(cfg);
  Rng rng(21);
  const auto q = MakeQueryObject(Point{0.5, 0.5}, 0.05, ObjectModel::kDiscrete,
                                 24, rng);
  const size_t k = 5;
  const double tau = 0.5;
  IdcaConfig config;
  config.max_iterations = 16;
  QueryStats stats;
  const auto results =
      ProbabilisticThresholdKnn(f.db, f.index, *q, k, tau, config, &stats);
  EXPECT_GT(stats.candidates, 0u);

  MonteCarloConfig mc_cfg;
  mc_cfg.samples_per_object = 24;
  MonteCarloEngine mc(f.db, mc_cfg);
  for (const auto& r : results) {
    const double truth = mc.ProbDomCountLessThan(r.id, *q, k);
    EXPECT_GE(truth, r.prob.lb - 1e-9) << "id=" << r.id;
    EXPECT_LE(truth, r.prob.ub + 1e-9) << "id=" << r.id;
    if (r.decision == PredicateDecision::kTrue) {
      EXPECT_GT(truth, tau) << "id=" << r.id;
    } else if (r.decision == PredicateDecision::kFalse) {
      EXPECT_LE(truth, tau + 1e-9) << "id=" << r.id;
    }
  }
}

TEST(KnnQueryTest, PrunedObjectsAreTrueNegatives) {
  SyntheticConfig cfg;
  cfg.num_objects = 100;
  cfg.max_extent = 0.02;
  cfg.model = ObjectModel::kDiscrete;
  cfg.samples_per_object = 16;
  Fixture f(cfg);
  Rng rng(22);
  const auto q = MakeQueryObject(Point{0.5, 0.5}, 0.02, ObjectModel::kDiscrete,
                                 16, rng);
  const size_t k = 3;
  const auto results = ProbabilisticThresholdKnn(f.db, f.index, *q, k, 0.25);
  std::vector<bool> reported(f.db.size(), false);
  for (const auto& r : results) reported[r.id] = true;
  MonteCarloConfig mc_cfg;
  mc_cfg.samples_per_object = 16;
  MonteCarloEngine mc(f.db, mc_cfg);
  // Every object the filter pruned must have zero probability.
  for (ObjectId id = 0; id < f.db.size(); ++id) {
    if (!reported[id]) {
      EXPECT_NEAR(mc.ProbDomCountLessThan(id, *q, k), 0.0, 1e-9)
          << "id=" << id;
    }
  }
}

TEST(KnnQueryTest, LargerKKeepsMoreCandidates) {
  SyntheticConfig cfg;
  cfg.num_objects = 200;
  cfg.max_extent = 0.02;
  Fixture f(cfg);
  Rng rng(23);
  const auto q =
      MakeQueryObject(Point{0.5, 0.5}, 0.02, ObjectModel::kUniform, 0, rng);
  // Candidate counts come from the spatial filter alone, so no refinement
  // iteration is run.
  IdcaConfig filter_only;
  filter_only.max_iterations = 0;
  QueryStats s1, s10;
  ProbabilisticThresholdKnn(f.db, f.index, *q, 1, 0.5, filter_only, &s1);
  ProbabilisticThresholdKnn(f.db, f.index, *q, 10, 0.5, filter_only, &s10);
  EXPECT_GE(s10.candidates, s1.candidates);
  EXPECT_GE(s1.candidates, 1u);
}

TEST(QueryStatsTest, IterationCountDoesNotDependOnCollectStats) {
  SyntheticConfig cfg;
  cfg.num_objects = 40;
  cfg.max_extent = 0.05;
  Fixture f(cfg);
  Rng rng(27);
  const auto q =
      MakeQueryObject(Point{0.5, 0.5}, 0.05, ObjectModel::kUniform, 0, rng);
  IdcaConfig on;
  on.max_iterations = 3;
  IdcaConfig off = on;
  off.collect_stats = false;

  QueryStats knn_on, knn_off;
  ProbabilisticThresholdKnn(f.db, f.index, *q, 3, 0.5, on, &knn_on);
  ProbabilisticThresholdKnn(f.db, f.index, *q, 3, 0.5, off, &knn_off);
  EXPECT_GT(knn_on.idca_iterations, 0u);
  EXPECT_EQ(knn_off.idca_iterations, knn_on.idca_iterations);

  QueryStats rank_on, rank_off;
  ExpectedRankOrder(f.db, *q, on, &rank_on);
  ExpectedRankOrder(f.db, *q, off, &rank_off);
  EXPECT_GT(rank_on.idca_iterations, 0u);
  EXPECT_EQ(rank_off.idca_iterations, rank_on.idca_iterations);
}

TEST(KnnQueryTest, CandidatesMatchBruteForceOracle) {
  // Under the L1 and L2 norms, on a database with uncertain objects: the
  // reported candidates, in ascending id order, equal a brute-force prune
  // distance over queries spread across the space (one with objects
  // exactly on its cutoff) with k in {1, 3, 10}, and every object once k
  // exceeds the certain objects.
  const UncertainDatabase db = test_util::KnnOracleDatabase(500, 37);
  const RTree index = BuildRTree(db.objects());
  const size_t all = test_util::CertainObjects(db) + 1;
  Rng rng(26);
  std::vector<std::shared_ptr<const Pdf>> queries = {
      test_util::FarRknnQuery(), test_util::KnnTieQuery()};
  for (const double x : {0.05, 0.95}) {
    for (const double y : {0.05, 0.95}) {
      queries.push_back(
          MakeQueryObject(Point{x, y}, 0.05, ObjectModel::kUniform, 0, rng));
    }
  }
  for (const int p : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    IdcaConfig filter_only;
    filter_only.max_iterations = 0;
    filter_only.norm = LpNorm(p);
    for (size_t i = 0; i < queries.size(); ++i) {
      SCOPED_TRACE(testing::Message() << "query=" << i);
      for (const size_t k : {size_t{1}, size_t{3}, size_t{10}, all}) {
        SCOPED_TRACE(testing::Message() << "k=" << k);
        QueryStats stats;
        const std::vector<ThresholdQueryResult> results =
            ProbabilisticThresholdKnn(db, index, *queries[i], k, 0.5,
                                      filter_only, &stats);
        std::vector<ObjectId> candidates;
        for (const ThresholdQueryResult& r : results) {
          candidates.push_back(r.id);
        }
        const std::vector<ObjectId> expected =
            test_util::BruteForceKnnCandidates(db, queries[i]->bounds(), k,
                                               filter_only.norm);
        EXPECT_EQ(candidates, expected);
        EXPECT_EQ(stats.candidates, candidates.size());
        if (k == all) {
          EXPECT_EQ(candidates.size(), db.size());
        }
      }
    }
  }
}

TEST(RknnQueryTest, CertainLineDatabase) {
  // Objects at x = 1, 2.5, 4, 5.5, 7, 8.5; query at 0. Neighbor spacing
  // is 1.5, so only the object at x=1 (distance 1 to Q, nearest other
  // object at distance 1.5) has Q as its strict 1NN.
  UncertainDatabase db;
  for (int i = 0; i < 6; ++i) {
    db.Add(PointObject(1.0 + 1.5 * i, 0.0));
  }
  RTree index = BuildRTree(db.objects());
  const auto q = PointObject(0.0, 0.0);
  const auto results = ProbabilisticThresholdRknn(db, index, *q, 1, 0.5);
  std::vector<ObjectId> qualified;
  for (const auto& r : results) {
    if (r.decision == PredicateDecision::kTrue) qualified.push_back(r.id);
  }
  EXPECT_EQ(qualified, (std::vector<ObjectId>{0}));
}

TEST(RknnQueryTest, AgreesWithBruteForceIdca) {
  // Under both domination criteria and the L1 and L2 norms: (1) the
  // candidate set equals an unindexed brute-force dominator count, over
  // near and far queries and k in {1, 3, 10}, on a database with
  // uncertain objects and objects touching a probe box's boundary; (2)
  // the qualifying objects equal a brute-force IDCA evaluation of every
  // object of a small database.
  const UncertainDatabase oracle_db = test_util::RknnOracleDatabase(500, 31);
  const RTree oracle_index = BuildRTree(oracle_db.objects());
  SyntheticConfig cfg;
  cfg.num_objects = 40;
  cfg.max_extent = 0.05;
  Fixture f(cfg);
  Rng rng(24);
  const auto q =
      MakeQueryObject(Point{0.5, 0.5}, 0.05, ObjectModel::kUniform, 0, rng);
  const std::shared_ptr<const Pdf> far = test_util::FarRknnQuery();
  const double tau = 0.5;
  for (const DominationCriterion criterion :
       {DominationCriterion::kOptimal, DominationCriterion::kMinMax}) {
    const int c = static_cast<int>(criterion);
    SCOPED_TRACE(testing::Message() << "criterion=" << c);
    for (const int p : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "p=" << p);
      IdcaConfig config;
      config.max_iterations = 6;
      config.criterion = criterion;
      config.norm = LpNorm(p);
      IdcaConfig filter_only = config;
      filter_only.max_iterations = 0;
      for (const Pdf* query : {q.get(), far.get()}) {
        SCOPED_TRACE(query == far.get() ? "far query" : "near query");
        for (const size_t k : {1, 3, 10}) {
          SCOPED_TRACE(testing::Message() << "k=" << k);
          const std::vector<ThresholdQueryResult> results =
              ProbabilisticThresholdRknn(oracle_db, oracle_index, *query, k,
                                         tau, filter_only);
          std::vector<ObjectId> candidates;
          for (const ThresholdQueryResult& r : results) {
            candidates.push_back(r.id);
          }
          const std::vector<ObjectId> expected = BruteForceRknnCandidates(
              oracle_db, query->bounds(), k, criterion, config.norm);
          EXPECT_EQ(candidates, expected);
        }
      }

      const size_t k = 2;
      const auto results =
          ProbabilisticThresholdRknn(f.db, f.index, *q, k, tau, config);
      // Brute force: evaluate the predicate for every object directly.
      IdcaEngine engine(f.db, config);
      std::vector<ObjectId> expected;
      for (ObjectId id = 0; id < f.db.size(); ++id) {
        const IdcaResult r =
            engine.ComputeDomCountOfQuery(*q, id, IdcaPredicate{k, tau});
        if (r.decision == PredicateDecision::kTrue) expected.push_back(id);
      }
      std::vector<ObjectId> actual;
      for (const auto& r : results) {
        if (r.decision == PredicateDecision::kTrue) actual.push_back(r.id);
      }
      std::sort(actual.begin(), actual.end());
      EXPECT_EQ(actual, expected);
    }
  }
}

/// `n` random boxes of extent up to 0.05 in the unit cube of `dim`
/// dimensions, every fifth only 0.6 likely to exist, so most groups of 16
/// mix certain and uncertain members. With `same_box`, every object has
/// the MBR [0.4, 0.45]^dim, so every STR sort ties.
UncertainDatabase GroupingDatabase(size_t n, size_t dim, bool same_box,
                                   uint64_t seed) {
  Rng rng(seed);
  UncertainDatabase db;
  for (size_t i = 0; i < n; ++i) {
    std::vector<Interval> sides;
    for (size_t d = 0; d < dim; ++d) {
      const double lo = same_box ? 0.4 : rng.NextDouble();
      sides.emplace_back(lo, lo + (same_box ? 0.05 : 0.05 * rng.NextDouble()));
    }
    db.Add(std::make_shared<UniformPdf>(Rect(std::move(sides))),
           i % 5 == 4 ? 0.6 : 1.0);
  }
  return db;
}

/// A query box of extent 0.02 with its low corner at `corner` in every
/// dimension.
Rect CubeQuery(size_t dim, double corner) {
  return Rect(std::vector<Interval>(dim, Interval(corner, corner + 0.02)));
}

TEST(RknnQueryTest, GroupedCountsMatchBruteForceAtGroupEdges) {
  // RknnCandidates scans once per STR group of 16 objects, in blocks of
  // 64 groups. Its candidate lists must equal the unindexed per-object
  // count at sizes around the group and block edges, with all MBRs equal
  // (STR ties), in 1-D and 3-D, under p = 1, 2, 3 and both criteria, for
  // one batch of mixed-k probes (k > N included), and with the objects
  // split over 2 and 7 R-trees (id % s) passed as separate scans.
  struct Case {
    size_t n;
    size_t dim;
    int p;
    bool same_box;
  };
  const Case cases[] = {
      {1, 2, 2, false},
      {15, 2, 2, false},
      {16, 2, 2, false},
      {17, 2, 1, false},
      {33, 2, 2, false},
      {1025, 2, 2, false},
      {40, 2, 2, true},
      {100, 1, 2, false},
      {100, 3, 3, false},
      {60, 3, 1, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " dim=" << c.dim);
    const UncertainDatabase db =
        GroupingDatabase(c.n, c.dim, c.same_box, 17 + c.n + c.dim);
    const LpNorm norm(c.p);
    // Inside the cloud, at its edge and far outside it. A k above N
    // makes the oracle count every object, so one probe carries it.
    const std::vector<Rect> queries = {CubeQuery(c.dim, 0.41),
                                       CubeQuery(c.dim, 0.0),
                                       CubeQuery(c.dim, 3.0)};
    std::vector<DominatorProbe> probes = {{&queries[0], c.n + 2}};
    for (const Rect& q : queries) {
      for (const size_t k : {1, 3}) probes.push_back(DominatorProbe{&q, k});
    }
    const DominationCriterion criteria[] = {DominationCriterion::kOptimal,
                                            DominationCriterion::kMinMax};
    std::vector<std::vector<ObjectId>> expected[2];
    for (size_t ci = 0; ci < 2; ++ci) {
      for (const DominatorProbe& probe : probes) {
        expected[ci].push_back(BruteForceRknnCandidates(
            db, *probe.query, probe.k, criteria[ci], norm));
      }
    }
    for (const size_t shards : {1, 2, 7}) {
      SCOPED_TRACE(testing::Message() << "shards=" << shards);
      std::vector<RTree> trees;
      for (size_t s = 0; s < shards; ++s) {
        std::vector<RTreeEntry> entries;
        for (ObjectId id = s; id < db.size(); id += shards) {
          entries.push_back(RTreeEntry{db.object(id).mbr(), id});
        }
        trees.emplace_back(std::move(entries));
      }
      std::vector<MinDistScan> scans;
      for (const RTree& tree : trees) {
        scans.push_back([&tree, &norm](const Rect& from,
                                       const MinDistEmit& emit) {
          tree.ScanByMinDist(from, emit, norm);
        });
      }
      for (size_t ci = 0; ci < 2; ++ci) {
        SCOPED_TRACE(testing::Message() << "criterion=" << ci);
        const std::vector<std::vector<ObjectId>> lists =
            RknnCandidates(db, probes, scans, criteria[ci], norm);
        ASSERT_EQ(lists.size(), probes.size());
        for (size_t r = 0; r < probes.size(); ++r) {
          SCOPED_TRACE(testing::Message() << "probe=" << r);
          EXPECT_EQ(lists[r], expected[ci][r]);
        }
      }
    }
  }
}

TEST(QueryDimensionDeathTest, QueryOfAnotherDimensionIsRejected) {
  // A 3-D query on a 2-D database used to read past the 2-D boxes (RkNN)
  // or answer from mismatched boxes (kNN); every entry point now stops
  // at a UPDB_CHECK. The threadsafe style re-runs the test in a fresh
  // process, so no shared-pool thread is lost to fork().
  testing::GTEST_FLAG(death_test_style) = "threadsafe";
  UncertainDatabase db;
  for (int i = 0; i < 5; ++i) db.Add(PointObject(i, 0.0));
  const RTree index = BuildRTree(db.objects());
  const UniformPdf q3(Rect(Point{0.0, 0.0, 0.0}, Point{0.1, 0.1, 0.1}));
  const char* const kDimCheck = "UPDB_CHECK failed.*dim";
  EXPECT_DEATH(ProbabilisticThresholdKnn(db, index, q3, 1, 0.5), kDimCheck);
  EXPECT_DEATH(ProbabilisticThresholdRknn(db, index, q3, 1, 0.5), kDimCheck);
  EXPECT_DEATH(ProbabilisticInverseRanking(db, 0, q3), kDimCheck);
  EXPECT_DEATH(ExpectedRankOrder(db, q3), kDimCheck);
}

TEST(InverseRankingTest, CertainChainHasDeterministicRank) {
  UncertainDatabase db;
  for (int i = 1; i <= 5; ++i) {
    db.Add(PointObject(static_cast<double>(i), 0.0));
  }
  const auto r = PointObject(0.0, 0.0);
  // Object 2 (x=3) has exactly 2 closer objects: rank 3 (0-based entry 2).
  const CountDistributionBounds dist = ProbabilisticInverseRanking(db, 2, *r);
  ASSERT_EQ(dist.num_ranks(), 5u);
  EXPECT_DOUBLE_EQ(dist.lb(2), 1.0);
  EXPECT_DOUBLE_EQ(dist.ub(2), 1.0);
  EXPECT_DOUBLE_EQ(dist.ub(0), 0.0);
}

TEST(InverseRankingTest, RankDistributionSumsToOneWhenConverged) {
  SyntheticConfig cfg;
  cfg.num_objects = 30;
  cfg.max_extent = 0.08;
  cfg.model = ObjectModel::kDiscrete;
  cfg.samples_per_object = 8;
  const UncertainDatabase db = MakeSyntheticDatabase(cfg);
  Rng rng(25);
  const auto r =
      MakeQueryObject(Point{0.5, 0.5}, 0.08, ObjectModel::kDiscrete, 8, rng);
  IdcaConfig config;
  config.max_iterations = 24;
  const CountDistributionBounds dist =
      ProbabilisticInverseRanking(db, 4, *r, config);
  double lb_total = 0.0, ub_total = 0.0;
  for (size_t k = 0; k < dist.num_ranks(); ++k) {
    lb_total += dist.lb(k);
    ub_total += dist.ub(k);
  }
  EXPECT_NEAR(lb_total, 1.0, 1e-6);
  EXPECT_NEAR(ub_total, 1.0, 1e-6);
}

TEST(ExpectedRankTest, CertainChainOrdersByDistance) {
  UncertainDatabase db;
  db.Add(PointObject(3.0, 0.0));
  db.Add(PointObject(1.0, 0.0));
  db.Add(PointObject(2.0, 0.0));
  const auto q = PointObject(0.0, 0.0);
  const auto order = ExpectedRankOrder(db, *q);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].id, 1u);  // x=1 -> rank 1
  EXPECT_EQ(order[1].id, 2u);  // x=2 -> rank 2
  EXPECT_EQ(order[2].id, 0u);  // x=3 -> rank 3
  EXPECT_NEAR(order[0].expected_rank.lb, 1.0, 1e-9);
  EXPECT_NEAR(order[2].expected_rank.ub, 3.0, 1e-9);
}

TEST(ExpectedRankTest, ExpectedRanksSumToTriangleNumber) {
  // Sum of expected ranks over all objects = N(N+1)/2 for any
  // distribution (ranks are a permutation in every world). With bounds,
  // the bracket must contain that invariant total.
  SyntheticConfig cfg;
  cfg.num_objects = 12;
  cfg.max_extent = 0.2;
  cfg.model = ObjectModel::kDiscrete;
  cfg.samples_per_object = 6;
  const UncertainDatabase db = MakeSyntheticDatabase(cfg);
  Rng rng(26);
  const auto q =
      MakeQueryObject(Point{0.5, 0.5}, 0.2, ObjectModel::kDiscrete, 6, rng);
  IdcaConfig config;
  config.max_iterations = 20;
  const auto order = ExpectedRankOrder(db, *q, config);
  double lo = 0.0, hi = 0.0;
  for (const auto& e : order) {
    lo += e.expected_rank.lb;
    hi += e.expected_rank.ub;
  }
  const double expect = 12.0 * 13.0 / 2.0;
  EXPECT_LE(lo, expect + 1e-6);
  EXPECT_GE(hi, expect - 1e-6);
}

}  // namespace
}  // namespace updb
