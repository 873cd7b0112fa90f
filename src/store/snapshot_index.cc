#include "store/snapshot_index.h"

#include <algorithm>
#include <limits>

namespace updb {
namespace store {

SnapshotIndex::SnapshotIndex(
    std::shared_ptr<const RTree> base,
    std::shared_ptr<const std::vector<ObjectId>> base_ids,
    std::vector<RTreeEntry> added, std::vector<ObjectId> removed,
    std::shared_ptr<const std::vector<ObjectId>> stable_by_dense)
    : base_(std::move(base)),
      base_ids_(std::move(base_ids)),
      added_(std::move(added)),
      removed_(std::move(removed)),
      stable_by_dense_(std::move(stable_by_dense)) {
  UPDB_CHECK(base_ != nullptr);
  UPDB_CHECK(base_ids_ != nullptr && base_ids_->size() == base_->size());
  UPDB_CHECK(stable_by_dense_ != nullptr);
}

ObjectId SnapshotIndex::DenseOf(ObjectId stable) const {
  const std::vector<ObjectId>& ids = *stable_by_dense_;
  const auto it = std::lower_bound(ids.begin(), ids.end(), stable);
  UPDB_DCHECK(it != ids.end() && *it == stable);
  return static_cast<ObjectId>(it - ids.begin());
}

bool SnapshotIndex::IsRemoved(ObjectId stable) const {
  return std::binary_search(removed_.begin(), removed_.end(), stable);
}

void SnapshotIndex::ScanByMinDist(
    const Rect& query,
    const std::function<bool(const RTreeEntry&, double)>& fn,
    const LpNorm& norm) const {
  // Distance-sort the overlay up front (it is bounded by the compaction
  // threshold), then merge it into the base tree's best-first stream. At
  // equal distance, overlay entries win; among themselves they order by
  // (distance, stable id).
  std::vector<std::pair<double, size_t>> added_order;
  added_order.reserve(added_.size());
  for (size_t i = 0; i < added_.size(); ++i) {
    added_order.emplace_back(norm.MinDist(added_[i].mbr, query), i);
  }
  std::sort(added_order.begin(), added_order.end(),
            [this](const std::pair<double, size_t>& a,
                   const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return added_[a.second].id < added_[b.second].id;
            });
  size_t next_added = 0;
  // Emits the overlay entries at distance <= `limit`; false once `fn`
  // stopped the scan.
  const auto emit_added = [&](double limit) {
    while (next_added < added_order.size() &&
           added_order[next_added].first <= limit) {
      const auto& [d, idx] = added_order[next_added++];
      if (!fn(RTreeEntry{added_[idx].mbr, DenseOf(added_[idx].id)}, d)) {
        return false;
      }
    }
    return true;
  };
  bool live = true;
  base_->ScanByMinDist(
      query,
      [&](const RTreeEntry& e, double d) {
        if (IsRemoved(e.id)) return true;
        live = emit_added(d) && fn(RTreeEntry{e.mbr, DenseOf(e.id)}, d);
        return live;
      },
      norm);
  if (live) emit_added(std::numeric_limits<double>::infinity());
}

bool SnapshotIndex::Validate() const {
  if (!base_->Validate()) return false;
  const std::vector<ObjectId>& live = *stable_by_dense_;
  const std::vector<ObjectId>& base_ids = *base_ids_;
  const auto sorted_unique = [](const std::vector<ObjectId>& v) {
    return std::is_sorted(v.begin(), v.end()) &&
           std::adjacent_find(v.begin(), v.end()) == v.end();
  };
  if (!sorted_unique(live) || !sorted_unique(removed_) ||
      !sorted_unique(base_ids)) {
    return false;
  }
  const auto is_live = [&live](ObjectId id) {
    return std::binary_search(live.begin(), live.end(), id);
  };
  ObjectId prev_added = 0;
  for (size_t i = 0; i < added_.size(); ++i) {
    if (i > 0 && added_[i].id <= prev_added) return false;  // sorted, unique
    prev_added = added_[i].id;
    if (!is_live(added_[i].id)) return false;
  }
  // Removed ids must mask real base entries; every surviving base entry
  // must be live; and the live count reconciles with base/overlay sizes.
  for (ObjectId id : removed_) {
    if (!std::binary_search(base_ids.begin(), base_ids.end(), id)) {
      return false;
    }
  }
  size_t base_live = 0;
  for (ObjectId id : base_ids) {
    if (IsRemoved(id)) continue;
    ++base_live;
    if (!is_live(id)) return false;
  }
  return base_live + added_.size() == live.size();
}

ShardedSnapshotIndex::ShardedSnapshotIndex(
    std::vector<SnapshotIndex> shards,
    std::vector<std::shared_ptr<const std::vector<ObjectId>>> global_by_local,
    std::shared_ptr<const std::vector<ObjectId>> stable_by_dense)
    : shards_(std::move(shards)),
      global_by_local_(std::move(global_by_local)),
      stable_by_dense_(std::move(stable_by_dense)) {
  UPDB_CHECK(!shards_.empty());
  UPDB_CHECK(global_by_local_.size() == shards_.size());
  UPDB_CHECK(stable_by_dense_ != nullptr);
  for (size_t s = 0; s < shards_.size(); ++s) {
    UPDB_CHECK(global_by_local_[s] != nullptr &&
               global_by_local_[s]->size() == shards_[s].entry_count());
  }
}

size_t ShardedSnapshotIndex::delta_entries() const {
  size_t total = 0;
  for (const SnapshotIndex& shard : shards_) total += shard.delta_entries();
  return total;
}

void ShardedSnapshotIndex::ShardScanByMinDist(
    size_t s, const Rect& query,
    const std::function<bool(const RTreeEntry&, double)>& fn,
    const LpNorm& norm) const {
  const std::vector<ObjectId>& translate = *global_by_local_[s];
  shards_[s].ScanByMinDist(
      query,
      [&](const RTreeEntry& e, double dist) {
        return fn(RTreeEntry{e.mbr, translate[e.id]}, dist);
      },
      norm);
}

bool ShardedSnapshotIndex::Validate() const {
  const std::vector<ObjectId>& global = *stable_by_dense_;
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s].Validate()) return false;
    const std::vector<ObjectId>& locals = *shards_[s].stable_by_dense_shared();
    const std::vector<ObjectId>& translate = *global_by_local_[s];
    if (translate.size() != locals.size()) return false;
    for (size_t l = 0; l < locals.size(); ++l) {
      // Shard routing and translation must agree with the global list.
      if (locals[l] % shards_.size() != s) return false;
      if (translate[l] >= global.size() ||
          global[translate[l]] != locals[l]) {
        return false;
      }
    }
    total += locals.size();
  }
  return total == global.size();
}

}  // namespace store
}  // namespace updb
