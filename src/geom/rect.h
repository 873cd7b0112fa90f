// Copyright 2026 The updb Authors.

#ifndef UPDB_GEOM_RECT_H_
#define UPDB_GEOM_RECT_H_

#include <span>
#include <string>
#include <vector>

#include "geom/interval.h"
#include "geom/point.h"

namespace updb {

/// An axis-parallel d-dimensional hyper-rectangle (MBR). Rects model the
/// bounded uncertainty regions of objects as well as R-tree node boxes.
class Rect {
 public:
  Rect() = default;

  /// Rect from per-dimension intervals.
  explicit Rect(std::vector<Interval> sides) : sides_(std::move(sides)) {}

  /// Rect spanned by two corner points (per-dimension min/max is taken).
  Rect(const Point& a, const Point& b);

  /// Degenerate rect covering exactly `p`.
  static Rect FromPoint(const Point& p);

  /// Rect centered at `center` with per-dimension half-extent `half`.
  static Rect Centered(const Point& center, const std::vector<double>& half);

  size_t dim() const { return sides_.size(); }

  /// All sides, dimension i at index i.
  std::span<const Interval> sides() const { return sides_; }

  /// Replaces the sides with `sides`, keeping capacity: a scratch Rect
  /// reassigned boxes of one dimensionality allocates only the first time.
  void Assign(std::span<const Interval> sides) {
    sides_.assign(sides.begin(), sides.end());
  }

  const Interval& side(size_t i) const {
    UPDB_DCHECK(i < sides_.size());
    return sides_[i];
  }
  Interval& side(size_t i) {
    UPDB_DCHECK(i < sides_.size());
    return sides_[i];
  }

  Point Center() const;
  Point LowerCorner() const;
  Point UpperCorner() const;

  /// Product of side lengths (0 for degenerate rects).
  double Volume() const;

  bool Contains(const Point& p) const;
  bool Contains(const Rect& other) const;
  bool Intersects(const Rect& other) const;

  /// Splits perpendicular to dimension `axis` at coordinate `at`
  /// (must be inside the side interval). Returns {lower, upper} halves.
  std::pair<Rect, Rect> Split(size_t axis, double at) const;

  /// Smallest rect containing both operands (dimensions must agree).
  static Rect Hull(const Rect& a, const Rect& b);

  /// Enumerates all 2^d corner points (d <= 30 enforced).
  std::vector<Point> Corners() const;

  bool operator==(const Rect& other) const = default;

  /// "[lo,hi] x [lo,hi] x ...".
  std::string ToString() const;

 private:
  std::vector<Interval> sides_;
};

}  // namespace updb

#endif  // UPDB_GEOM_RECT_H_
