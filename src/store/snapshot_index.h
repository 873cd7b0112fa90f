// Copyright 2026 The updb Authors.
// Index layer of one published store snapshot: a bulk-built (STR) base
// R-tree plus a delta overlay of entries inserted/removed since the base
// was built. The overlay keeps Publish() O(delta) — mutating a handful of
// objects must not pay the O(N log N) bulk re-pack — while query results
// stay identical to a freshly rebuilt tree (the store's tests and the
// churn benchmark enforce this with a digest oracle). Once the overlay
// grows past a configurable fraction of the base, the store compacts it
// into a new bulk build (see StoreOptions::compact_delta_fraction).
//
// Sharding: the store partitions the stable-id space into `num_shards`
// shards (stable id i routes to shard i % num_shards), each with its own
// SnapshotIndex. One snapshot's query surface is the ShardedSnapshotIndex
// view below, whose one query is a per-shard nearest-first scan emitting
// global dense ids. Callers scan every shard and reduce in shard order;
// the candidate filters they feed are partition-invariant, so results do
// not depend on the shard count.
//
// Id spaces: the base tree and the overlay are keyed by *stable* store
// ids, which never change across versions — that is what keeps one base
// tree valid under arbitrary interleavings of inserts and removes. Query
// callers, however, see the *dense* ids of the snapshot's materialized
// UncertainDatabase (0..N-1 in ascending stable-id order). A scan maps
// each stable id it emits straight to that global dense id, with one
// binary search over the snapshot's ascending live stable-id list, and
// emits (dense id, MinDist) only: the filters read an object's box from
// the database, whose MBRs are the same pdf->bounds() the index holds.

#ifndef UPDB_STORE_SNAPSHOT_INDEX_H_
#define UPDB_STORE_SNAPSHOT_INDEX_H_

#include <memory>
#include <vector>

#include "index/rtree.h"

namespace updb {
namespace store {

/// Immutable index view of one snapshot shard, keyed by stable ids.
/// Thread-safe for concurrent reads (all state is const after
/// construction).
class SnapshotIndex {
 public:
  /// `base` is the bulk-built tree whose entries carry stable ids and
  /// `base_ids` the same ids as a sorted vector (the membership surface
  /// overlay composition needs); `added` are overlay entries (stable ids,
  /// current MBRs) sorted by id; and `removed` are stable ids masked out
  /// of the base, sorted. Invariant: the shard's live set equals (base
  /// entries \ removed) ∪ added, with an updated object appearing in both
  /// `removed` (old entry) and `added` (new entry).
  SnapshotIndex(std::shared_ptr<const RTree> base,
                std::shared_ptr<const std::vector<ObjectId>> base_ids,
                std::vector<RTreeEntry> added, std::vector<ObjectId> removed);

  /// Live entries served by this index (== shard live-set size).
  size_t entry_count() const {
    return base_->size() - removed_.size() + added_.size();
  }

  /// Overlay size: inserted entries + removed base ids. 0 right after a
  /// compaction (bulk rebuild).
  size_t delta_entries() const { return added_.size() + removed_.size(); }
  bool compacted() const { return delta_entries() == 0; }

  /// Incremental best-first scan over the live entries in ascending
  /// MinDist(mbr, query) order: the base tree's scan with the
  /// distance-sorted overlay merged in. `fn(id, min_dist)` receives each
  /// entry's position in `live` — the snapshot's ascending live stable-id
  /// list, which holds every live entry of this shard — i.e. its dense id
  /// in the snapshot database. Returning false from `fn` stops the scan.
  /// At equal distance, overlay entries are emitted before base entries
  /// and among themselves by stable id — callers that need a canonical
  /// order must impose their own tie-break (the candidate filters sort
  /// their output by id).
  void ScanByMinDist(const Rect& query, const std::vector<ObjectId>& live,
                     const std::function<bool(ObjectId, double)>& fn,
                     const LpNorm& norm = LpNorm::Euclidean()) const;

  /// Debug validation: the base tree validates, overlay vectors are sorted
  /// and duplicate-free, every added id is live in `live` and masks any
  /// base entry it shares an id with, every non-removed base id is live,
  /// and the live count reconciles with base/overlay sizes.
  bool Validate(const std::vector<ObjectId>& live) const;

  // Accessors the store uses to compose the next snapshot's overlay from
  // this one; not part of the query surface.
  const std::shared_ptr<const RTree>& base_shared() const { return base_; }
  const std::shared_ptr<const std::vector<ObjectId>>& base_ids_shared() const {
    return base_ids_;
  }
  const std::vector<RTreeEntry>& added() const { return added_; }
  const std::vector<ObjectId>& removed() const { return removed_; }

 private:
  bool IsRemoved(ObjectId stable) const;

  std::shared_ptr<const RTree> base_;
  std::shared_ptr<const std::vector<ObjectId>> base_ids_;  // sorted
  std::vector<RTreeEntry> added_;    // sorted by stable id
  std::vector<ObjectId> removed_;    // sorted stable ids
};

/// The query surface of one published snapshot: per-shard SnapshotIndexes
/// scanned one shard at a time, emitting global dense ids. Immutable and
/// thread-safe for concurrent reads; `num_shards = 1` behaves exactly
/// like the unsharded store.
class ShardedSnapshotIndex {
 public:
  /// `shards[s]` indexes the live objects routed to shard s;
  /// `stable_by_dense` is the snapshot's global ascending live stable-id
  /// list (dense id i names stable id stable_by_dense[i]).
  ShardedSnapshotIndex(
      std::vector<SnapshotIndex> shards,
      std::shared_ptr<const std::vector<ObjectId>> stable_by_dense);

  size_t num_shards() const { return shards_.size(); }
  const SnapshotIndex& shard(size_t s) const { return shards_[s]; }

  /// Live entries served across all shards (== snapshot database size).
  size_t entry_count() const { return stable_by_dense_->size(); }
  /// Total overlay size over all shards; 0 when every shard is compacted.
  size_t delta_entries() const;
  bool compacted() const { return delta_entries() == 0; }

  /// Shard s's SnapshotIndex::ScanByMinDist over this snapshot's live
  /// list, so `fn` receives global dense ids — the fan-out surface the
  /// service's per-shard candidate generation uses (reduce in ascending
  /// shard order for determinism).
  void ShardScanByMinDist(size_t s, const Rect& query,
                          const std::function<bool(ObjectId, double)>& fn,
                          const LpNorm& norm = LpNorm::Euclidean()) const;

  /// Debug validation: every shard validates against the global live
  /// list, every base and overlay id of shard s routes to s, and the
  /// shard live counts add up to the global live count — so the shards'
  /// scans together emit every global dense id exactly once.
  bool Validate() const;

 private:
  std::vector<SnapshotIndex> shards_;
  std::shared_ptr<const std::vector<ObjectId>> stable_by_dense_;
};

}  // namespace store
}  // namespace updb

#endif  // UPDB_STORE_SNAPSHOT_INDEX_H_
