#include "uncertain/decomposition.h"

#include <algorithm>

#include "common/capacity.h"

namespace updb {

namespace {

// Masses below this are treated as zero: such subregions cannot influence
// domination bounds beyond floating noise and would otherwise clutter the
// frontier (e.g. empty halves of discrete objects).
constexpr double kMassEpsilon = 1e-15;

}  // namespace

void DecompositionTree::Frontier::Clear() {
  boxes.clear();
  masses.clear();
  levels.clear();
  terminal.clear();
}

void DecompositionTree::Frontier::Append(std::span<const Interval> box,
                                         double mass, int level,
                                         bool is_terminal) {
  boxes.insert(boxes.end(), box.begin(), box.end());
  masses.push_back(mass);
  levels.push_back(level);
  terminal.push_back(is_terminal);
}

void DecompositionTree::Frontier::EqualizeCapacity(Frontier& o) {
  updb::EqualizeCapacity(boxes, o.boxes);
  updb::EqualizeCapacity(masses, o.masses);
  updb::EqualizeCapacity(levels, o.levels);
  updb::EqualizeCapacity(terminal, o.terminal);
}

DecompositionTree::DecompositionTree(const Pdf* pdf) { Reset(pdf); }

void DecompositionTree::Reset(const Pdf* pdf) {
  UPDB_CHECK(pdf != nullptr);
  pdf_ = pdf;
  dim_ = pdf_->bounds().dim();
  depth_ = 0;
  node_count_ = 1;
  child_offsets_.clear();
  frontier_.Clear();
  next_.Clear();
  frontier_.Append(pdf_->bounds().sides(), 1.0, /*level=*/0,
                   /*is_terminal=*/false);
}

bool DecompositionTree::TrySplitAxis(int level, size_t axis) {
  const Interval& side = node_.side(axis);
  if (side.degenerate()) return false;

  // Candidate split coordinates: conditional median first (keeps child
  // masses balanced, the paper's scheme), then the geometric midpoint as a
  // fallback for skewed discrete distributions whose median coincides with
  // a region boundary.
  const double median = pdf_->ConditionalMedian(node_, axis);
  const double mid = side.mid();
  for (double at : {median, mid}) {
    if (at <= side.lo() || at >= side.hi()) continue;
    // Rect::Split's halves, built in the tree's scratch rects.
    const auto [lo, hi] = side.SplitAt(at);
    lower_ = node_;
    upper_ = node_;
    lower_.side(axis) = lo;
    upper_.side(axis) = hi;
    const double lower_mass = pdf_->Mass(lower_);
    const double upper_mass = pdf_->Mass(upper_);
    // Both children must carry mass for the split to make progress;
    // otherwise the node would reappear unchanged one level deeper.
    if (lower_mass <= kMassEpsilon || upper_mass <= kMassEpsilon) continue;
    // Shrink to the support: tightens every subsequent domination test and
    // lets discrete objects converge to exact (point) partitions.
    pdf_->ShrinkToSupport(lower_);
    pdf_->ShrinkToSupport(upper_);
    next_.Append(lower_.sides(), lower_mass, level + 1, /*is_terminal=*/false);
    next_.Append(upper_.sides(), upper_mass, level + 1, /*is_terminal=*/false);
    return true;
  }
  return false;
}

size_t DecompositionTree::Deepen() {
  next_.Clear();
  child_offsets_.clear();
  child_offsets_.reserve(size() + 1);
  child_offsets_.push_back(0);
  size_t splits = 0;
  for (size_t n = 0; n < size(); ++n) {
    const double mass = frontier_.masses[n];
    const int level = frontier_.levels[n];
    bool split_done = false;
    if (!frontier_.terminal[n]) {
      node_.Assign(box(n));
      const size_t first_axis = static_cast<size_t>(level) % dim_;
      for (size_t k = 0; k < dim_ && !split_done; ++k) {
        split_done = TrySplitAxis(level, (first_axis + k) % dim_);
      }
    }
    if (split_done) {
      ++splits;
      node_count_ += 2;
    } else {
      next_.Append(box(n), mass, level, /*is_terminal=*/true);
    }
    child_offsets_.push_back(static_cast<uint32_t>(next_.masses.size()));
  }
  std::swap(frontier_, next_);
  // The two frontiers alternate roles, so which one a later level lands in
  // depends on the depth's parity; equal capacities make a replay to any
  // depth reached before allocation-free after a Reset().
  frontier_.EqualizeCapacity(next_);
  if (splits > 0) ++depth_;
  return splits;
}

void DecompositionTree::DeepenTo(int level) {
  while (depth_ < level) {
    if (Deepen() == 0) break;
  }
}

Rect DecompositionTree::region(size_t i) const {
  const std::span<const Interval> sides = box(i);
  return Rect(std::vector<Interval>(sides.begin(), sides.end()));
}

std::vector<Partition> DecompositionTree::Partitions() const {
  std::vector<Partition> out;
  out.reserve(size());
  for (size_t i = 0; i < size(); ++i) {
    out.push_back(Partition{region(i), frontier_.masses[i]});
  }
  return out;
}

}  // namespace updb
