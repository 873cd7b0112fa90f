// Shared oracles of the threshold kNN and RkNN candidate filters
// (queries_test, service_test): unindexed brute-force scans over all
// objects in id order, and a database that exercises their edge cases.

#ifndef UPDB_TESTS_RKNN_ORACLE_H_
#define UPDB_TESTS_RKNN_ORACLE_H_

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "domination/criteria.h"
#include "uncertain/database.h"
#include "uncertain/pdf.h"
#include "workload/generators.h"

namespace updb {
namespace test_util {

/// Object B survives the kNN filter of (q, k) iff MinDist(B, q) is at most
/// the k-th smallest MaxDist(A, q) over the existentially certain objects
/// A; with fewer than k certain objects every object survives. Sorts all
/// those distances, no index; returns the survivors in ascending id order.
inline std::vector<ObjectId> BruteForceKnnCandidates(
    const UncertainDatabase& db, const Rect& q, size_t k,
    const LpNorm& norm) {
  std::vector<double> maxdists;
  for (const UncertainObject& o : db.objects()) {
    if (o.existentially_certain()) maxdists.push_back(norm.MaxDist(o.mbr(), q));
  }
  std::sort(maxdists.begin(), maxdists.end());
  std::vector<ObjectId> survivors;
  for (ObjectId b = 0; b < db.size(); ++b) {
    if (maxdists.size() < k ||
        norm.MinDist(db.object(b).mbr(), q) <= maxdists[k - 1]) {
      survivors.push_back(b);
    }
  }
  return survivors;
}

/// Number of existentially certain objects of `db`.
inline size_t CertainObjects(const UncertainDatabase& db) {
  size_t certain = 0;
  for (const UncertainObject& o : db.objects()) {
    if (o.existentially_certain()) ++certain;
  }
  return certain;
}

/// Object B survives the RkNN filter of (q, k) iff fewer than k
/// existentially certain objects A != B intersect B's MBR expanded by
/// MaxDist(q, B) and completely dominate q w.r.t. B. Scans every object
/// in id order, no index; returns the survivors in ascending id order.
inline std::vector<ObjectId> BruteForceRknnCandidates(
    const UncertainDatabase& db, const Rect& q, size_t k,
    DominationCriterion criterion, const LpNorm& norm) {
  std::vector<ObjectId> survivors;
  for (ObjectId b = 0; b < db.size(); ++b) {
    const Rect& b_mbr = db.object(b).mbr();
    const double reach = norm.MaxDist(q, b_mbr);
    std::vector<Interval> sides;
    for (size_t i = 0; i < b_mbr.dim(); ++i) {
      sides.emplace_back(b_mbr.side(i).lo() - reach,
                         b_mbr.side(i).hi() + reach);
    }
    const Rect box(std::move(sides));
    size_t dominators = 0;
    for (ObjectId a = 0; a < db.size() && dominators < k; ++a) {
      const UncertainObject& o = db.object(a);
      if (a != b && o.existentially_certain() && o.mbr().Intersects(box) &&
          Dominates(o.mbr(), q, b_mbr, criterion, norm)) {
        ++dominators;
      }
    }
    if (dominators < k) survivors.push_back(b);
  }
  return survivors;
}

/// Query object far outside the unit square, for RknnOracleDatabase's
/// hand-placed object B = [0, 0.25]^2: per dimension MaxDist(Q, B) is
/// 3 and 4, so its probe box is B expanded by exactly 5 under L2 and by
/// exactly 7 under L1 (every value here is a dyadic rational).
inline std::shared_ptr<const Pdf> FarRknnQuery() {
  return std::make_shared<UniformPdf>(Rect(Point{2.75, 3.75}, Point{3.0, 4.0}));
}

/// `n` synthetic objects in the unit square, every fifth of them only
/// 0.6 likely to exist, followed by hand-placed objects around
/// B = [0, 0.25]^2 (object n): a certain dominator touching B's corner,
/// an uncertain object next to it that must never count, and two
/// certain objects whose MBRs touch B's probe box for FarRknnQuery()
/// exactly on its boundary, one for L2 (x = 5.25) and one for L1
/// (x = 7.25). Those pass the closed box test, so Dominates decides
/// them, and they sit at distance exactly `reach` from B.
inline UncertainDatabase RknnOracleDatabase(size_t n, uint64_t seed) {
  workload::SyntheticConfig cfg;
  cfg.num_objects = n;
  cfg.max_extent = 0.05;
  cfg.seed = seed;
  const UncertainDatabase synthetic = workload::MakeSyntheticDatabase(cfg);
  UncertainDatabase db;
  for (const UncertainObject& o : synthetic.objects()) {
    db.Add(o.shared_pdf(), o.id() % 5 == 4 ? 0.6 : 1.0);
  }
  const auto box = [](double x0, double y0, double x1, double y1) {
    return std::make_shared<UniformPdf>(Rect(Point{x0, y0}, Point{x1, y1}));
  };
  // B, the dominator, the uncertain object, the L2 and L1 toucher.
  db.Add(box(0.0, 0.0, 0.25, 0.25));
  db.Add(box(0.25, 0.25, 0.375, 0.375));
  db.Add(box(0.25, 0.0, 0.3125, 0.0625), /*existence=*/0.5);
  db.Add(box(5.25, 0.0, 5.5, 0.25));
  db.Add(box(7.25, 0.125, 7.5, 0.25));
  return db;
}

/// Point query for KnnOracleDatabase, right of the unit square at (4, 2).
inline std::shared_ptr<const Pdf> KnnTieQuery() {
  return std::make_shared<DiscreteSamplePdf>(std::vector<Point>{Point{4, 2}});
}

/// RknnOracleDatabase(n, seed) plus four point objects at distance
/// exactly 1 (under L1 and L2) from KnnTieQuery(): three certain, one only
/// 0.5 likely to exist. For k <= 3 the kNN prune distance is exactly 1,
/// so all four lie on the cutoff and are candidates.
inline UncertainDatabase KnnOracleDatabase(size_t n, uint64_t seed) {
  UncertainDatabase db = RknnOracleDatabase(n, seed);
  const auto point = [](double x, double y) {
    return std::make_shared<DiscreteSamplePdf>(std::vector<Point>{Point{x, y}});
  };
  db.Add(point(5, 2));
  db.Add(point(4, 3));
  db.Add(point(3, 2), /*existence=*/0.5);
  db.Add(point(4, 1));
  return db;
}

}  // namespace test_util
}  // namespace updb

#endif  // UPDB_TESTS_RKNN_ORACLE_H_
