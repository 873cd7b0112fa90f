#include "store/snapshot_index.h"

#include <algorithm>
#include <limits>
#include <queue>

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
  if (!added_.empty()) {
    added_hull_ = added_[0].mbr;
    for (size_t i = 1; i < added_.size(); ++i) {
      added_hull_ = Rect::Hull(added_hull_, added_[i].mbr);
    }
  }
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

void SnapshotIndex::ForEachIntersecting(
    const Rect& query, const std::function<bool(const RTreeEntry&)>& fn)
    const {
  bool live = true;
  base_->ForEachIntersecting(query, [&](const RTreeEntry& e) {
    if (IsRemoved(e.id)) return true;
    live = fn(RTreeEntry{e.mbr, DenseOf(e.id)});
    return live;
  });
  if (!live) return;
  if (added_.empty() || !added_hull_.Intersects(query)) return;
  for (const RTreeEntry& a : added_) {
    if (!a.mbr.Intersects(query)) continue;
    if (!fn(RTreeEntry{a.mbr, DenseOf(a.id)})) return;
  }
}

void SnapshotIndex::ScanByMinDist(
    const Rect& query,
    const std::function<bool(const RTreeEntry&, double)>& fn,
    const LpNorm& norm) const {
  MinDistCursor cursor(*this, query, norm);
  const RTreeEntry* entry = nullptr;
  double dist = 0.0;
  while (cursor.Next(&entry, &dist)) {
    if (!fn(*entry, dist)) return;
  }
}

SnapshotIndex::MinDistCursor::MinDistCursor(const SnapshotIndex& index,
                                            const Rect& query,
                                            const LpNorm& norm)
    : index_(index), base_(*index.base_, query, norm) {
  // Distance-sort the overlay up front (it is bounded by the compaction
  // threshold), then merge it into the base tree's best-first stream. At
  // equal distance, overlay entries win; among themselves they order by
  // (distance, stable id).
  added_order_.reserve(index_.added_.size());
  for (size_t i = 0; i < index_.added_.size(); ++i) {
    added_order_.emplace_back(norm.MinDist(index_.added_[i].mbr, query), i);
  }
  std::sort(added_order_.begin(), added_order_.end(),
            [&index](const std::pair<double, size_t>& a,
                     const std::pair<double, size_t>& b) {
              if (a.first != b.first) return a.first < b.first;
              return index.added_[a.second].id < index.added_[b.second].id;
            });
  AdvanceBase();
}

void SnapshotIndex::MinDistCursor::AdvanceBase() {
  base_entry_ = nullptr;
  const RTreeEntry* e = nullptr;
  double d = 0.0;
  while (base_.Next(&e, &d)) {
    if (index_.IsRemoved(e->id)) continue;
    base_entry_ = e;
    base_dist_ = d;
    return;
  }
}

bool SnapshotIndex::MinDistCursor::Next(const RTreeEntry** entry,
                                        double* dist) {
  if (next_added_ < added_order_.size() &&
      (base_entry_ == nullptr ||
       added_order_[next_added_].first <= base_dist_)) {
    const auto& [d, idx] = added_order_[next_added_++];
    const RTreeEntry& a = index_.added_[idx];
    scratch_ = RTreeEntry{a.mbr, index_.DenseOf(a.id)};
    *entry = &scratch_;
    *dist = d;
    return true;
  }
  if (base_entry_ == nullptr) return false;
  scratch_ = RTreeEntry{base_entry_->mbr, index_.DenseOf(base_entry_->id)};
  *dist = base_dist_;
  *entry = &scratch_;
  AdvanceBase();
  return true;
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

void ShardedSnapshotIndex::ForEachIntersecting(
    const Rect& query, const std::function<bool(const RTreeEntry&)>& fn)
    const {
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::vector<ObjectId>& translate = *global_by_local_[s];
    bool live = true;
    shards_[s].ForEachIntersecting(query, [&](const RTreeEntry& e) {
      live = fn(RTreeEntry{e.mbr, translate[e.id]});
      return live;
    });
    if (!live) return;
  }
}

void ShardedSnapshotIndex::ScanByMinDist(
    const Rect& query,
    const std::function<bool(const RTreeEntry&, double)>& fn,
    const LpNorm& norm) const {
  if (shards_.size() == 1) {
    ShardScanByMinDist(0, query, fn, norm);
    return;
  }
  // K-way best-first merge of the shard cursors; ties break toward the
  // lower shard index so the emission order is deterministic.
  struct Head {
    double dist;
    size_t shard;
  };
  const auto later = [](const Head& a, const Head& b) {
    if (a.dist != b.dist) return a.dist > b.dist;
    return a.shard > b.shard;
  };
  std::vector<std::unique_ptr<SnapshotIndex::MinDistCursor>> cursors;
  std::vector<const RTreeEntry*> head_entry(shards_.size(), nullptr);
  std::vector<double> head_dist(shards_.size(), 0.0);
  std::priority_queue<Head, std::vector<Head>, decltype(later)> heads(later);
  cursors.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    cursors.push_back(std::make_unique<SnapshotIndex::MinDistCursor>(
        shards_[s], query, norm));
    if (cursors[s]->Next(&head_entry[s], &head_dist[s])) {
      heads.push(Head{head_dist[s], s});
    }
  }
  while (!heads.empty()) {
    const Head head = heads.top();
    heads.pop();
    const size_t s = head.shard;
    const RTreeEntry out{head_entry[s]->mbr,
                         (*global_by_local_[s])[head_entry[s]->id]};
    if (!fn(out, head.dist)) return;
    if (cursors[s]->Next(&head_entry[s], &head_dist[s])) {
      heads.push(Head{head_dist[s], s});
    }
  }
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
