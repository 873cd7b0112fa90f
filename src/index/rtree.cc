#include "index/rtree.h"

#include <algorithm>
#include <queue>

#include "index/str_tiling.h"

namespace updb {

namespace {

Rect HullOfEntries(const std::vector<RTreeEntry>& entries, size_t begin,
                   size_t end) {
  Rect mbr = entries[begin].mbr;
  for (size_t i = begin + 1; i < end; ++i) {
    mbr = Rect::Hull(mbr, entries[i].mbr);
  }
  return mbr;
}

}  // namespace

RTree::RTree(std::vector<RTreeEntry> entries, size_t leaf_capacity)
    : entries_(std::move(entries)), leaf_capacity_(leaf_capacity) {
  UPDB_CHECK(leaf_capacity_ >= 2);
  num_entries_ = entries_.size();
  if (entries_.empty()) return;

  const size_t dim = entries_[0].mbr.dim();
  StrTileSort(entries_.begin(), entries_.end(), 0, dim, leaf_capacity_,
              [](const RTreeEntry& e, size_t axis) {
                return e.mbr.side(axis).mid();
              });

  // Pack leaves over consecutive chunks.
  std::vector<uint32_t> level;
  for (size_t b = 0; b < entries_.size(); b += leaf_capacity_) {
    const size_t e = std::min(b + leaf_capacity_, entries_.size());
    nodes_.push_back(Node{HullOfEntries(entries_, b, e), /*leaf=*/true,
                          static_cast<uint32_t>(b), static_cast<uint32_t>(e)});
    level.push_back(static_cast<uint32_t>(nodes_.size() - 1));
  }
  height_ = 1;

  // Pack internal levels bottom-up; each level's nodes are contiguous in
  // nodes_, so a parent's children form an index range.
  while (level.size() > 1) {
    std::vector<uint32_t> parents;
    for (size_t b = 0; b < level.size(); b += leaf_capacity_) {
      const size_t e = std::min(b + leaf_capacity_, level.size());
      Rect mbr = nodes_[level[b]].mbr;
      for (size_t i = b + 1; i < e; ++i) {
        mbr = Rect::Hull(mbr, nodes_[level[i]].mbr);
      }
      nodes_.push_back(Node{std::move(mbr), /*leaf=*/false, level[b],
                            static_cast<uint32_t>(level[e - 1] + 1)});
      parents.push_back(static_cast<uint32_t>(nodes_.size() - 1));
    }
    level = std::move(parents);
    ++height_;
  }
  root_ = level[0];
}

void RTree::ScanByMinDist(
    const Rect& query,
    const std::function<bool(ObjectId, double)>& fn,
    const LpNorm& norm) const {
  if (empty()) return;
  // One queue over nodes and entries keyed by MinDist. A node's MinDist
  // lower-bounds its contents', so a popped entry is no farther than any
  // entry not yet emitted.
  struct Item {
    double dist;
    bool is_entry;
    uint32_t idx;
    bool operator>(const Item& other) const { return dist > other.dist; }
  };
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> pq;
  pq.push(Item{norm.MinDist(nodes_[root_].mbr, query), false, root_});
  while (!pq.empty()) {
    const Item item = pq.top();
    pq.pop();
    if (item.is_entry) {
      if (!fn(entries_[item.idx].id, item.dist)) return;
      continue;
    }
    const Node& node = nodes_[item.idx];
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        pq.push(Item{norm.MinDist(entries_[i].mbr, query), true, i});
      }
    } else {
      for (uint32_t c = node.begin; c < node.end; ++c) {
        pq.push(Item{norm.MinDist(nodes_[c].mbr, query), false, c});
      }
    }
  }
}

void RTree::Traverse(
    const std::function<VisitDecision(const Rect&)>& classify,
    const std::function<void(ObjectId, VisitDecision)>& emit) const {
  if (empty()) return;
  // Stack entries: (node index, already accepted as a whole?).
  std::vector<std::pair<uint32_t, bool>> stack = {{root_, false}};
  while (!stack.empty()) {
    const auto [idx, accepted] = stack.back();
    stack.pop_back();
    const Node& node = nodes_[idx];
    VisitDecision decision = VisitDecision::kTakeAll;
    if (!accepted) {
      decision = classify(node.mbr);
      if (decision == VisitDecision::kSkip) continue;
    }
    const bool take_all = accepted || decision == VisitDecision::kTakeAll;
    if (node.leaf) {
      for (uint32_t i = node.begin; i < node.end; ++i) {
        if (take_all) {
          emit(entries_[i].id, VisitDecision::kTakeAll);
          continue;
        }
        const VisitDecision ed = classify(entries_[i].mbr);
        if (ed == VisitDecision::kSkip) continue;
        emit(entries_[i].id, ed);
      }
    } else {
      for (uint32_t c = node.begin; c < node.end; ++c) {
        stack.push_back({c, take_all});
      }
    }
  }
}

bool RTree::Validate() const {
  if (empty()) return entries_.empty();
  size_t reachable = 0;
  std::vector<uint32_t> stack = {root_};
  while (!stack.empty()) {
    const Node& node = nodes_[stack.back()];
    stack.pop_back();
    if (node.begin >= node.end) return false;
    if (node.leaf) {
      if (node.end > entries_.size()) return false;
      for (uint32_t i = node.begin; i < node.end; ++i) {
        if (!node.mbr.Contains(entries_[i].mbr)) return false;
      }
      reachable += node.end - node.begin;
    } else {
      if (node.end > nodes_.size()) return false;
      for (uint32_t c = node.begin; c < node.end; ++c) {
        if (!node.mbr.Contains(nodes_[c].mbr)) return false;
        stack.push_back(c);
      }
    }
  }
  return reachable == num_entries_;
}

RTree BuildRTree(const std::vector<UncertainObject>& objects,
                 size_t leaf_capacity) {
  std::vector<RTreeEntry> entries;
  entries.reserve(objects.size());
  for (const UncertainObject& o : objects) {
    entries.push_back(RTreeEntry{o.mbr(), o.id()});
  }
  return RTree(std::move(entries), leaf_capacity);
}

}  // namespace updb
