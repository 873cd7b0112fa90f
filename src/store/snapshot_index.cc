#include "store/snapshot_index.h"

#include <algorithm>
#include <limits>

namespace updb {
namespace store {

namespace {

/// Dense id of a live stable id: its position in the ascending live list
/// (binary search; the id must be live).
ObjectId DenseOf(const std::vector<ObjectId>& live, ObjectId stable) {
  const auto it = std::lower_bound(live.begin(), live.end(), stable);
  UPDB_DCHECK(it != live.end() && *it == stable);
  return static_cast<ObjectId>(it - live.begin());
}

}  // namespace

SnapshotIndex::SnapshotIndex(
    std::shared_ptr<const RTree> base,
    std::shared_ptr<const std::vector<ObjectId>> base_ids,
    std::vector<RTreeEntry> added, std::vector<ObjectId> removed)
    : base_(std::move(base)),
      base_ids_(std::move(base_ids)),
      added_(std::move(added)),
      removed_(std::move(removed)) {
  UPDB_CHECK(base_ != nullptr);
  UPDB_CHECK(base_ids_ != nullptr && base_ids_->size() == base_->size());
  UPDB_CHECK(removed_.size() <= base_->size());
}

bool SnapshotIndex::IsRemoved(ObjectId stable) const {
  return std::binary_search(removed_.begin(), removed_.end(), stable);
}

void SnapshotIndex::ScanByMinDist(
    const Rect& query, const std::vector<ObjectId>& live,
    const std::function<bool(ObjectId, double)>& fn,
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
      if (!fn(DenseOf(live, added_[idx].id), d)) return false;
    }
    return true;
  };
  bool more = true;
  base_->ScanByMinDist(
      query,
      [&](ObjectId stable, double d) {
        if (IsRemoved(stable)) return true;
        more = emit_added(d) && fn(DenseOf(live, stable), d);
        return more;
      },
      norm);
  if (more) emit_added(std::numeric_limits<double>::infinity());
}

bool SnapshotIndex::Validate(const std::vector<ObjectId>& live) const {
  if (!base_->Validate()) return false;
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
  const auto in_base = [&base_ids](ObjectId id) {
    return std::binary_search(base_ids.begin(), base_ids.end(), id);
  };
  ObjectId prev_added = 0;
  for (size_t i = 0; i < added_.size(); ++i) {
    const ObjectId id = added_[i].id;
    if (i > 0 && id <= prev_added) return false;  // sorted, unique
    prev_added = id;
    if (!is_live(id)) return false;
    // An updated object's base entry must be masked, or the scan would
    // emit it twice.
    if (in_base(id) && !IsRemoved(id)) return false;
  }
  // Removed ids must mask real base entries; every surviving base entry
  // must be live; and the live count reconciles with base/overlay sizes.
  for (ObjectId id : removed_) {
    if (!in_base(id)) return false;
  }
  size_t base_live = 0;
  for (ObjectId id : base_ids) {
    if (IsRemoved(id)) continue;
    ++base_live;
    if (!is_live(id)) return false;
  }
  return base_live + added_.size() == entry_count();
}

ShardedSnapshotIndex::ShardedSnapshotIndex(
    std::vector<SnapshotIndex> shards,
    std::shared_ptr<const std::vector<ObjectId>> stable_by_dense)
    : shards_(std::move(shards)), stable_by_dense_(std::move(stable_by_dense)) {
  UPDB_CHECK(!shards_.empty());
  UPDB_CHECK(stable_by_dense_ != nullptr);
}

size_t ShardedSnapshotIndex::delta_entries() const {
  size_t total = 0;
  for (const SnapshotIndex& shard : shards_) total += shard.delta_entries();
  return total;
}

void ShardedSnapshotIndex::ShardScanByMinDist(
    size_t s, const Rect& query,
    const std::function<bool(ObjectId, double)>& fn,
    const LpNorm& norm) const {
  shards_[s].ScanByMinDist(query, *stable_by_dense_, fn, norm);
}

bool ShardedSnapshotIndex::Validate() const {
  const std::vector<ObjectId>& global = *stable_by_dense_;
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    const SnapshotIndex& shard = shards_[s];
    if (!shard.Validate(global)) return false;
    // Shard routing must agree with the stable ids the shard holds.
    for (ObjectId id : *shard.base_ids_shared()) {
      if (id % shards_.size() != s) return false;
    }
    for (const RTreeEntry& e : shard.added()) {
      if (e.id % shards_.size() != s) return false;
    }
    total += shard.entry_count();
  }
  return total == global.size();
}

}  // namespace store
}  // namespace updb
