// Copyright 2026 The updb Authors.
// kd-tree-style progressive decomposition of an uncertain object's
// uncertainty region into disjoint subregions with known probability mass
// (Section V of the paper). The tree is deepened one level per IDCA
// iteration; the current frontier is the disjunctive decomposition used by
// the probabilistic domination bounds (Lemmas 1-2).

#ifndef UPDB_UNCERTAIN_DECOMPOSITION_H_
#define UPDB_UNCERTAIN_DECOMPOSITION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "uncertain/pdf.h"

namespace updb {

/// One element of a disjunctive decomposition: a subregion and the
/// probability that the object realizes inside it. Masses of a frontier
/// sum to 1 (up to floating error). DecompositionTree stores its frontier
/// flat; Partitions() materializes this form for callers off the hot path.
struct Partition {
  Rect region;
  double mass;
};

/// Progressive median-split decomposition of one object.
///
/// Level 0 is the whole uncertainty region with mass 1. Deepen() splits
/// every frontier node at the conditional median along axis level % d —
/// the paper's kd-tree scheme, cycling through the dimensions by tree
/// level — and tries the following axes in turn when that one cannot
/// split (so for median splits each child carries half the parent's
/// mass, matching the 0.5^level property in Section V); nodes that cannot
/// make progress (degenerate regions, point masses) remain in the frontier
/// untouched. Children with zero mass are discarded.
///
/// The frontier is flat: one contiguous array of boxes, node i's d sides at
/// [i * d, (i + 1) * d), plus one mass per node. The domination kernel
/// (domination/kernel.h) reads boxes straight out of it, and the children
/// of one pre-Deepen node are adjacent.
///
/// A tree is reusable: Reset() starts it over on another object and keeps
/// every buffer's capacity, and Deepen() splits nodes in scratch regions
/// the tree owns. So a tree that has once reached a frontier size deepens
/// to that size again without touching the heap — IDCA keeps its trees in
/// a per-thread workspace across runs (core/idca.cc).
class DecompositionTree {
 public:
  /// An empty tree; Reset() gives it an object.
  DecompositionTree() = default;

  /// `pdf` must outlive the tree (or its next Reset()).
  explicit DecompositionTree(const Pdf* pdf);

  /// Starts over on `pdf`: level 0 again, one root node of mass 1. Keeps
  /// the capacity of every buffer. `pdf` must outlive the tree (or its
  /// next Reset()).
  void Reset(const Pdf* pdf);

  /// Splits the current frontier one level deeper. Returns the number of
  /// nodes that were actually split (0 means the decomposition is
  /// exhausted and further calls are no-ops).
  size_t Deepen();

  /// Deepens until the frontier is `level` levels deep (or exhausted).
  void DeepenTo(int level);

  /// Current depth (number of successful Deepen calls with progress).
  int depth() const { return depth_; }

  /// Number of nodes in the current frontier (the disjunctive
  /// decomposition).
  size_t size() const { return frontier_.masses.size(); }

  /// Dimensionality of every box.
  size_t dim() const { return dim_; }

  /// Box of frontier node i.
  std::span<const Interval> box(size_t i) const {
    UPDB_DCHECK(i < size());
    return {frontier_.boxes.data() + i * dim_, dim_};
  }

  /// Probability masses of the frontier nodes, in frontier order. They
  /// sum to 1.
  const std::vector<double>& masses() const { return frontier_.masses; }

  /// Frontier node i's box as a Rect (allocates).
  Rect region(size_t i) const;

  /// The frontier as Partitions (allocates one Rect per node).
  std::vector<Partition> Partitions() const;

  /// Parent-to-child frontier mapping of the most recent Deepen(): the
  /// pre-Deepen frontier node o expanded into the current frontier index
  /// range [child_offsets()[o], child_offsets()[o+1]) — itself when it was
  /// terminal or unsplittable, its two children otherwise. This is what
  /// lets IDCA's domination-verdict cache push per-node verdicts down the
  /// tree instead of re-testing whole frontiers. Empty before the first
  /// Deepen() call.
  const std::vector<uint32_t>& child_offsets() const { return child_offsets_; }

  /// Total number of nodes ever created (diagnostics).
  size_t node_count() const { return node_count_; }

 private:
  /// Structure-of-arrays frontier: node i's box, mass, level and whether
  /// no further split is possible.
  struct Frontier {
    std::vector<Interval> boxes;
    std::vector<double> masses;
    std::vector<int> levels;
    std::vector<char> terminal;

    void Clear();
    void Append(std::span<const Interval> box, double mass, int level,
                bool is_terminal);
    /// Grows both frontiers' buffers to the larger capacity of the two.
    void EqualizeCapacity(Frontier& o);
  };

  /// Attempts to split node_ (a level-`level` node) along `axis` at the
  /// conditional median or, failing that, the midpoint. Returns true and
  /// appends the children to next_ on success.
  bool TrySplitAxis(int level, size_t axis);

  const Pdf* pdf_ = nullptr;
  size_t dim_ = 0;
  int depth_ = 0;
  size_t node_count_ = 1;
  Frontier frontier_;
  Frontier next_;  // Deepen()'s build target, swapped in (keeps capacity)
  std::vector<uint32_t> child_offsets_;
  // Deepen()'s split scratch: the node being split and its two halves.
  Rect node_;
  Rect lower_;
  Rect upper_;
};

}  // namespace updb

#endif  // UPDB_UNCERTAIN_DECOMPOSITION_H_
