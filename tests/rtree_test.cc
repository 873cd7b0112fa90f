#include "index/rtree.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "uncertain/database.h"

namespace updb {
namespace {

std::vector<RTreeEntry> RandomEntries(size_t n, Rng& rng,
                                      double max_extent = 0.05) {
  std::vector<RTreeEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point center{rng.NextDouble(), rng.NextDouble()};
    const double ex = rng.Uniform(0, max_extent);
    const double ey = rng.Uniform(0, max_extent);
    entries.push_back(RTreeEntry{
        Rect::Centered(center, {ex / 2, ey / 2}), static_cast<ObjectId>(i)});
  }
  return entries;
}

/// (MinDist, id) pairs of a nearest-first scan.
using ScanList = std::vector<std::pair<double, ObjectId>>;

/// Every entry paired with its MinDist to `query`, sorted by (distance,
/// id): what a full ScanByMinDist must emit, up to order among ties.
ScanList BruteForceByMinDist(const std::vector<RTreeEntry>& entries,
                             const Rect& query, const LpNorm& norm) {
  ScanList out;
  for (const RTreeEntry& e : entries) {
    out.emplace_back(norm.MinDist(e.mbr, query), e.id);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The full scan from `query` in emission order.
ScanList FullScan(const RTree& tree, const Rect& query, const LpNorm& norm) {
  ScanList out;
  tree.ScanByMinDist(
      query,
      [&out](ObjectId id, double dist) {
        out.emplace_back(dist, id);
        return true;
      },
      norm);
  return out;
}

/// The ids of the first k entries of the scan from `query`: the callback
/// stops it on the entry after them (on the first entry for k = 0).
std::vector<ObjectId> FirstK(const RTree& tree, const Rect& query, size_t k,
                             const LpNorm& norm = LpNorm::Euclidean()) {
  std::vector<ObjectId> out;
  tree.ScanByMinDist(
      query,
      [&out, k](ObjectId id, double /*dist*/) {
        if (out.size() == k) return false;
        out.push_back(id);
        return true;
      },
      norm);
  return out;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree({});
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.size(), 0u);
  const Rect query(Point{0.0, 0.0}, Point{1.0, 1.0});
  EXPECT_TRUE(FullScan(tree, query, LpNorm()).empty());
  EXPECT_TRUE(FirstK(tree, query, 3).empty());
  EXPECT_TRUE(FirstK(tree, query, 0).empty());
}

TEST(RTreeTest, SingleEntry) {
  RTree tree({RTreeEntry{Rect(Point{0.4, 0.4}, Point{0.6, 0.6}), 7}});
  EXPECT_EQ(tree.size(), 1u);
  const LpNorm norm;
  const ScanList near = FullScan(tree, Rect::FromPoint(Point{0.5, 0.5}), norm);
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0].second, 7u);
  EXPECT_EQ(near[0].first, 0.0);
  const ScanList far = FullScan(tree, Rect::FromPoint(Point{0.8, 0.8}), norm);
  ASSERT_EQ(far.size(), 1u);
  EXPECT_GT(far[0].first, 0.0);
}

TEST(RTreeTest, KnnMatchesBruteForce) {
  Rng rng(113);
  const auto entries = RandomEntries(400, rng);
  RTree tree(entries);
  const LpNorm norm;
  for (int trial = 0; trial < 30; ++trial) {
    const Rect query = Rect::Centered(
        Point{rng.NextDouble(), rng.NextDouble()}, {0.01, 0.01});
    std::vector<std::pair<double, ObjectId>> expected;
    for (const auto& e : entries) {
      expected.emplace_back(norm.MinDist(e.mbr, query), e.id);
    }
    std::sort(expected.begin(), expected.end());
    // k = 0 asks for nothing and must get nothing.
    EXPECT_TRUE(FirstK(tree, query, 0, norm).empty());
    const size_t k = 1 + rng.NextBounded(20);
    const auto actual = FirstK(tree, query, k, norm);
    ASSERT_EQ(actual.size(), k);
    for (size_t i = 0; i < k; ++i) {
      // Compare distances, not ids (ties can reorder equal-distance hits).
      EXPECT_NEAR(norm.MinDist(entries[actual[i]].mbr, query),
                  expected[i].first, 1e-12)
          << "trial=" << trial << " i=" << i;
    }
  }
}

TEST(RTreeTest, ScanByMinDistMatchesBruteForce) {
  Rng rng(111);
  const auto entries = RandomEntries(500, rng);
  RTree tree(entries);
  for (const LpNorm& norm : {LpNorm::Euclidean(), LpNorm::Manhattan()}) {
    for (int trial = 0; trial < 20; ++trial) {
      const Rect query = Rect::Centered(
          Point{rng.NextDouble(), rng.NextDouble()},
          {rng.Uniform(0, 0.2), rng.Uniform(0, 0.2)});
      ScanList scanned = FullScan(tree, query, norm);
      // Emission is ascending in distance; ties may come in any order.
      for (size_t i = 1; i < scanned.size(); ++i) {
        EXPECT_LE(scanned[i - 1].first, scanned[i].first) << "i=" << i;
      }
      std::sort(scanned.begin(), scanned.end());
      EXPECT_EQ(scanned, BruteForceByMinDist(entries, query, norm))
          << "trial=" << trial;
    }
  }
}

TEST(RTreeTest, ScanStopsOnFalse) {
  Rng rng(119);
  const auto entries = RandomEntries(100, rng);
  RTree tree(entries);
  size_t count = 0;
  tree.ScanByMinDist(Rect::Centered(Point{0.5, 0.5}, {0.0, 0.0}),
                     [&count](ObjectId, double) {
                       ++count;
                       return count < 5;
                     });
  EXPECT_EQ(count, 5u);
}

TEST(RTreeTest, HeightGrowsLogarithmically) {
  Rng rng(123);
  RTree small(RandomEntries(10, rng), 16);
  EXPECT_EQ(small.height(), 1u);
  RTree medium(RandomEntries(200, rng), 16);
  EXPECT_EQ(medium.height(), 2u);
  // 5000 entries -> 313 leaves -> 20 -> 2 -> 1: four levels.
  RTree large(RandomEntries(5000, rng), 16);
  EXPECT_EQ(large.height(), 4u);
}

TEST(RTreeTest, SmallLeafCapacity) {
  Rng rng(127);
  const auto entries = RandomEntries(64, rng);
  RTree tree(entries, 2);
  EXPECT_TRUE(tree.Validate());
  // All entries reachable, each exactly once.
  const LpNorm norm;
  const Rect query = Rect::FromPoint(Point{0.5, 0.5});
  ScanList scanned = FullScan(tree, query, norm);
  std::sort(scanned.begin(), scanned.end());
  EXPECT_EQ(scanned, BruteForceByMinDist(entries, query, norm));
}

TEST(RTreeTest, SizeAndValidate) {
  Rng rng(133);
  EXPECT_TRUE(RTree({}).Validate());
  for (size_t n : {1u, 7u, 64u, 500u}) {
    RTree tree(RandomEntries(n, rng), 4);
    EXPECT_EQ(tree.size(), n);
    EXPECT_TRUE(tree.Validate()) << "n=" << n;
  }
}

// Classification traversal over degenerate geometry: zero-area (point)
// MBRs and duplicate entries. Previously only exercised indirectly via the
// service filters; the store's overlay maintenance leans on this surface.

TEST(RTreeTest, TraverseZeroAreaMbrs) {
  // All entries are points; several coincide exactly.
  std::vector<RTreeEntry> entries;
  for (int i = 0; i < 40; ++i) {
    const double x = 0.1 * static_cast<double>(i % 5);
    const double y = 0.1 * static_cast<double>(i / 5);
    entries.push_back(
        RTreeEntry{Rect::FromPoint(Point{x, y}), static_cast<ObjectId>(i)});
  }
  RTree tree(entries, 4);
  EXPECT_TRUE(tree.Validate());

  // Classify by containment in [0, 0.25]^2: point MBRs are either fully
  // inside (kTakeAll) or fully outside (kSkip) — never undecided.
  const Rect region(Point{0.0, 0.0}, Point{0.25, 0.25});
  std::vector<ObjectId> taken;
  tree.Traverse(
      [&region](const Rect& mbr) {
        if (region.Contains(mbr)) return RTree::VisitDecision::kTakeAll;
        if (!region.Intersects(mbr)) return RTree::VisitDecision::kSkip;
        return RTree::VisitDecision::kDescend;
      },
      [&taken](ObjectId id, RTree::VisitDecision decision) {
        EXPECT_EQ(decision, RTree::VisitDecision::kTakeAll);
        taken.push_back(id);
      });
  std::sort(taken.begin(), taken.end());
  std::vector<ObjectId> expected;
  for (const RTreeEntry& e : entries) {
    if (region.Contains(e.mbr)) expected.push_back(e.id);
  }
  EXPECT_EQ(taken, expected);
  EXPECT_FALSE(taken.empty());
}

TEST(RTreeTest, TraverseDuplicateEntriesAllEmitted) {
  // The same zero-area rect indexed under many distinct ids, plus one
  // far-away entry that must be pruned as a subtree.
  std::vector<RTreeEntry> entries;
  const Rect dup = Rect::FromPoint(Point{0.5, 0.5});
  for (ObjectId id = 0; id < 9; ++id) entries.push_back(RTreeEntry{dup, id});
  entries.push_back(RTreeEntry{Rect::FromPoint(Point{10.0, 10.0}), 9});
  RTree tree(entries, 3);
  EXPECT_TRUE(tree.Validate());

  const Rect region(Point{0.4, 0.4}, Point{0.6, 0.6});
  size_t emitted = 0;
  size_t classified_nodes = 0;
  tree.Traverse(
      [&](const Rect& mbr) {
        ++classified_nodes;
        if (region.Contains(mbr)) return RTree::VisitDecision::kTakeAll;
        if (!region.Intersects(mbr)) return RTree::VisitDecision::kSkip;
        return RTree::VisitDecision::kDescend;
      },
      [&](ObjectId id, RTree::VisitDecision) {
        ASSERT_LT(id, entries.size());
        EXPECT_EQ(entries[id].mbr, Rect::FromPoint(Point{0.5, 0.5}));
        ++emitted;
      });
  // Every duplicate is reported individually; the far entry is pruned.
  EXPECT_EQ(emitted, 9u);
  EXPECT_GE(classified_nodes, 1u);

  // A scan query at the duplicate point sees all nine at distance zero.
  size_t zero_dist = 0;
  tree.ScanByMinDist(Rect::FromPoint(Point{0.5, 0.5}),
                     [&zero_dist](ObjectId, double dist) {
                       if (dist == 0.0) ++zero_dist;
                       return true;
                     });
  EXPECT_EQ(zero_dist, 9u);
}

TEST(RTreeTest, TraverseDescendOnUndecidedEntries) {
  // Mixed extents around a region boundary: entries straddling the region
  // must surface as individually-undecided (kDescend) emissions.
  Rng rng(137);
  const auto entries = RandomEntries(120, rng, 0.3);
  RTree tree(entries, 4);
  const Rect region(Point{0.25, 0.25}, Point{0.75, 0.75});
  size_t take_all = 0, undecided = 0;
  tree.Traverse(
      [&region](const Rect& mbr) {
        if (region.Contains(mbr)) return RTree::VisitDecision::kTakeAll;
        if (!region.Intersects(mbr)) return RTree::VisitDecision::kSkip;
        return RTree::VisitDecision::kDescend;
      },
      [&](ObjectId id, RTree::VisitDecision decision) {
        ASSERT_LT(id, entries.size());
        const Rect& mbr = entries[id].mbr;
        if (decision == RTree::VisitDecision::kTakeAll) {
          EXPECT_TRUE(region.Contains(mbr));
          ++take_all;
        } else {
          EXPECT_EQ(decision, RTree::VisitDecision::kDescend);
          EXPECT_TRUE(region.Intersects(mbr));
          EXPECT_FALSE(region.Contains(mbr));
          ++undecided;
        }
      });
  size_t expected_in_or_straddling = 0;
  for (const RTreeEntry& e : entries) {
    if (region.Intersects(e.mbr)) ++expected_in_or_straddling;
  }
  EXPECT_EQ(take_all + undecided, expected_in_or_straddling);
  EXPECT_GT(take_all, 0u);
  EXPECT_GT(undecided, 0u);
}

TEST(RTreeTest, BuildFromObjects) {
  UncertainDatabase db;
  Rng rng(131);
  for (int i = 0; i < 50; ++i) {
    db.Add(std::make_shared<UniformPdf>(Rect::Centered(
        Point{rng.NextDouble(), rng.NextDouble()}, {0.01, 0.01})));
  }
  RTree tree = BuildRTree(db.objects());
  EXPECT_EQ(tree.size(), 50u);
  const auto knn =
      FirstK(tree, Rect::Centered(Point{0.5, 0.5}, {0.0, 0.0}), 5);
  EXPECT_EQ(knn.size(), 5u);
}

}  // namespace
}  // namespace updb
