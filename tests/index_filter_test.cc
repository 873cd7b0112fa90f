// The R-tree-backed complete-domination filter (the paper's "integrate
// into index supported query algorithms" future work). Must be exactly
// equivalent to the linear scan — same complete counts, same influence
// sets, same final bounds — while touching fewer objects.

#include <gtest/gtest.h>

#include <algorithm>

#include "updb.h"

namespace updb {
namespace {

using workload::MakeQueryObject;
using workload::MakeSyntheticDatabase;
using workload::ObjectModel;
using workload::PickByMinDistRank;
using workload::SyntheticConfig;

TEST(RTreeTraverseTest, TakeAllEmitsEverySubtreeEntry) {
  Rng rng(61);
  std::vector<RTreeEntry> entries;
  for (ObjectId i = 0; i < 100; ++i) {
    entries.push_back(RTreeEntry{
        Rect::Centered(Point{rng.NextDouble(), rng.NextDouble()},
                       {0.01, 0.01}),
        i});
  }
  RTree tree(entries);
  size_t taken = 0;
  tree.Traverse(
      [](const Rect&) { return RTree::VisitDecision::kTakeAll; },
      [&taken](ObjectId, RTree::VisitDecision d) {
        EXPECT_EQ(d, RTree::VisitDecision::kTakeAll);
        ++taken;
      });
  EXPECT_EQ(taken, 100u);
}

TEST(RTreeTraverseTest, SkipPrunesEverything) {
  Rng rng(62);
  std::vector<RTreeEntry> entries;
  for (ObjectId i = 0; i < 50; ++i) {
    entries.push_back(RTreeEntry{
        Rect::Centered(Point{rng.NextDouble(), rng.NextDouble()},
                       {0.01, 0.01}),
        i});
  }
  RTree tree(entries);
  size_t taken = 0;
  tree.Traverse([](const Rect&) { return RTree::VisitDecision::kSkip; },
                [&taken](ObjectId, RTree::VisitDecision) { ++taken; });
  EXPECT_EQ(taken, 0u);
}

TEST(RTreeTraverseTest, DescendClassifiesEntriesIndividually) {
  // Classify by a half-plane on MBR centers: descend everywhere, accept
  // entries left of 0.5, skip the rest.
  Rng rng(63);
  std::vector<RTreeEntry> entries;
  size_t expected = 0;
  for (ObjectId i = 0; i < 200; ++i) {
    const Point c{rng.NextDouble(), rng.NextDouble()};
    entries.push_back(RTreeEntry{Rect::Centered(c, {0.001, 0.001}), i});
    expected += c[0] < 0.5;
  }
  RTree tree(entries);
  size_t taken = 0;
  tree.Traverse(
      [](const Rect& mbr) {
        if (mbr.side(0).hi() < 0.5) return RTree::VisitDecision::kTakeAll;
        if (mbr.side(0).lo() >= 0.5) return RTree::VisitDecision::kSkip;
        return RTree::VisitDecision::kDescend;
      },
      [&taken](ObjectId, RTree::VisitDecision) { ++taken; });
  EXPECT_EQ(taken, expected);
}

class IndexFilterEquivalenceTest : public ::testing::TestWithParam<double> {};

TEST_P(IndexFilterEquivalenceTest, SameBoundsAsLinearScan) {
  SyntheticConfig cfg;
  cfg.num_objects = 2000;
  cfg.max_extent = GetParam();
  const UncertainDatabase db = MakeSyntheticDatabase(cfg);
  const RTree index = BuildRTree(db.objects());

  IdcaConfig scan_cfg;
  scan_cfg.max_iterations = 2;
  IdcaConfig index_cfg = scan_cfg;
  index_cfg.use_index_filter = true;
  IdcaEngine scan(db, scan_cfg);
  IdcaEngine indexed(db, &index, index_cfg);

  Rng rng(64);
  for (int trial = 0; trial < 10; ++trial) {
    const Point center{rng.NextDouble(), rng.NextDouble()};
    const auto r = MakeQueryObject(center, cfg.max_extent,
                                   ObjectModel::kUniform, 0, rng);
    const ObjectId b = PickByMinDistRank(index, r->bounds(), 10);
    const IdcaResult a = scan.ComputeDomCount(b, *r);
    const IdcaResult c = indexed.ComputeDomCount(b, *r);
    EXPECT_EQ(a.complete_domination_count, c.complete_domination_count);
    EXPECT_EQ(a.influence_count, c.influence_count);
    ASSERT_EQ(a.bounds.num_ranks(), c.bounds.num_ranks());
    for (size_t k = 0; k < a.bounds.num_ranks(); ++k) {
      EXPECT_NEAR(a.bounds.lb(k), c.bounds.lb(k), 1e-9) << "k=" << k;
      EXPECT_NEAR(a.bounds.ub(k), c.bounds.ub(k), 1e-9) << "k=" << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Extents, IndexFilterEquivalenceTest,
                         ::testing::Values(0.002, 0.01, 0.05));

TEST(IndexFilterTest, WorksWithExistentialObjects) {
  UncertainDatabase db;
  Rng rng(65);
  for (int i = 0; i < 300; ++i) {
    db.Add(std::make_shared<UniformPdf>(Rect::Centered(
               Point{rng.NextDouble(), rng.NextDouble()}, {0.005, 0.005})),
           rng.Bernoulli(0.7) ? 1.0 : 0.5);
  }
  const RTree index = BuildRTree(db.objects());
  IdcaConfig scan_cfg;
  scan_cfg.max_iterations = 1;
  IdcaConfig index_cfg = scan_cfg;
  index_cfg.use_index_filter = true;
  const auto q = workload::MakeQueryObject(Point{0.5, 0.5}, 0.01,
                                           ObjectModel::kUniform, 0, rng);
  const IdcaResult a = IdcaEngine(db, scan_cfg).ComputeDomCount(7, *q);
  const IdcaResult b =
      IdcaEngine(db, &index, index_cfg).ComputeDomCount(7, *q);
  EXPECT_EQ(a.complete_domination_count, b.complete_domination_count);
  EXPECT_EQ(a.influence_count, b.influence_count);
}

TEST(IndexFilterTest, WorksForRknnRoleSwap) {
  SyntheticConfig cfg;
  cfg.num_objects = 500;
  cfg.max_extent = 0.01;
  const UncertainDatabase db = MakeSyntheticDatabase(cfg);
  const RTree index = BuildRTree(db.objects());
  IdcaConfig scan_cfg;
  scan_cfg.max_iterations = 2;
  IdcaConfig index_cfg = scan_cfg;
  index_cfg.use_index_filter = true;
  Rng rng(66);
  const auto q = workload::MakeQueryObject(Point{0.4, 0.6}, 0.01,
                                           ObjectModel::kUniform, 0, rng);
  for (ObjectId b_ref : {ObjectId{3}, ObjectId{99}}) {
    const IdcaResult a =
        IdcaEngine(db, scan_cfg).ComputeDomCountOfQuery(*q, b_ref);
    const IdcaResult b =
        IdcaEngine(db, &index, index_cfg).ComputeDomCountOfQuery(*q, b_ref);
    EXPECT_EQ(a.complete_domination_count, b.complete_domination_count);
    EXPECT_EQ(a.influence_count, b.influence_count);
    for (size_t k = 0; k < a.bounds.num_ranks(); ++k) {
      EXPECT_NEAR(a.bounds.lb(k), b.bounds.lb(k), 1e-9);
      EXPECT_NEAR(a.bounds.ub(k), b.bounds.ub(k), 1e-9);
    }
  }
}

TEST(IndexFilterTest, RequiresIndexWhenEnabled) {
  // The scan constructor rejects use_index_filter (programming error
  // guarded by UPDB_CHECK -> process death).
  UncertainDatabase db;
  db.Add(std::make_shared<UniformPdf>(
      Rect::Centered(Point{0.5, 0.5}, {0.1, 0.1})));
  IdcaConfig config;
  config.use_index_filter = true;
  EXPECT_DEATH(IdcaEngine(db, config), "UPDB_CHECK");
}

}  // namespace
}  // namespace updb
