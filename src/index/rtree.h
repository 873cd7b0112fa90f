// Copyright 2026 The updb Authors.
// STR bulk-loaded R-tree over the rectangular uncertainty regions of the
// database objects. The paper lists index integration as the natural way
// to obtain candidates for its queries ("we will integrate our concepts
// into existing index supported kNN- and RkNN-query algorithms"); updb uses
// this tree to (a) pick the experiment object B by MinDist rank and (b)
// pre-filter query candidates before running IDCA. Its one query is the
// nearest-first scan, which emits ids and distances only: a caller that
// needs an object's box reads it from the database the tree was built
// over.

#ifndef UPDB_INDEX_RTREE_H_
#define UPDB_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "geom/distance.h"
#include "geom/rect.h"
#include "uncertain/object.h"

namespace updb {

/// One indexed entry: an object's MBR plus its id.
struct RTreeEntry {
  Rect mbr;
  ObjectId id;
};

/// Read-optimized R-tree built once with Sort-Tile-Recursive packing.
class RTree {
 public:
  /// Builds the tree over `entries`. `leaf_capacity` is the maximum number
  /// of entries per leaf and also the internal fanout; must be >= 2.
  explicit RTree(std::vector<RTreeEntry> entries, size_t leaf_capacity = 16);

  size_t size() const { return num_entries_; }
  bool empty() const { return num_entries_ == 0; }

  /// Incremental best-first scan in ascending MinDist(mbr, query) order
  /// (Hjaltason & Samet's distance browsing). `fn(id, min_dist)` is called
  /// per entry; returning false stops the scan, so the first k calls are
  /// the k nearest entries. This is the candidate stream for threshold
  /// kNN/RkNN processing.
  void ScanByMinDist(const Rect& query,
                     const std::function<bool(ObjectId, double)>& fn,
                     const LpNorm& norm = LpNorm::Euclidean()) const;

  /// Verdict of a classification traversal on a node MBR or entry MBR.
  enum class VisitDecision {
    /// Look inside (for an entry: report it as individually undecided).
    kDescend,
    /// The whole subtree (or the entry) satisfies the predicate; every
    /// entry below is emitted with kTakeAll without further tests.
    kTakeAll,
    /// The whole subtree (or the entry) fails the predicate; prune.
    kSkip,
  };

  /// Classification traversal: `classify` is invoked on node MBRs to prune
  /// or bulk-accept whole subtrees, and on individual entry MBRs at the
  /// leaves. Every surviving entry's id is passed to `emit` together with
  /// the decision that admitted it (kTakeAll for bulk/direct acceptance,
  /// kDescend for individually undecided entries). This is the hook the
  /// complete-domination filter of IDCA uses to avoid the linear database
  /// scan — valid because complete domination is monotone under shrinking
  /// rectangles, so a verdict on a node MBR holds for everything inside.
  void Traverse(
      const std::function<VisitDecision(const Rect&)>& classify,
      const std::function<void(ObjectId, VisitDecision)>& emit) const;

  /// Height of the tree (1 = a single leaf level); diagnostics.
  size_t height() const { return height_; }

  /// Debug validation: every node MBR contains its children (entry MBRs at
  /// the leaves, child-node MBRs internally) and the number of entries
  /// reachable from the root equals size(). O(N); used by the
  /// store/index tests.
  bool Validate() const;

 private:
  struct Node {
    Rect mbr;
    bool leaf = false;
    // Leaf: [entry_begin, entry_end) into entries_.
    // Internal: [child_begin, child_end) into nodes_.
    uint32_t begin = 0;
    uint32_t end = 0;
  };

  std::vector<RTreeEntry> entries_;
  std::vector<Node> nodes_;
  uint32_t root_ = 0;
  size_t leaf_capacity_;
  size_t num_entries_ = 0;
  size_t height_ = 0;
};

/// Builds an RTree over all objects of `db`.
RTree BuildRTree(const std::vector<UncertainObject>& objects,
                 size_t leaf_capacity = 16);

}  // namespace updb

#endif  // UPDB_INDEX_RTREE_H_
