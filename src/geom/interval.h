// Copyright 2026 The updb Authors.

#ifndef UPDB_GEOM_INTERVAL_H_
#define UPDB_GEOM_INTERVAL_H_

#include <algorithm>
#include <string>

#include "common/check.h"

namespace updb {

/// A closed one-dimensional interval [lo, hi] with lo <= hi.
///
/// Intervals are the per-dimension building block of Rect and of the
/// optimal domination criterion (Corollary 1 of the paper), which works on
/// projection intervals of uncertainty regions.
class Interval {
 public:
  /// Degenerate interval [0, 0].
  Interval() : lo_(0.0), hi_(0.0) {}

  /// Requires lo <= hi.
  Interval(double lo, double hi) : lo_(lo), hi_(hi) { UPDB_DCHECK(lo <= hi); }

  /// Degenerate interval [v, v].
  static Interval FromPoint(double v) { return Interval(v, v); }

  double lo() const { return lo_; }
  double hi() const { return hi_; }
  double length() const { return hi_ - lo_; }
  double mid() const { return 0.5 * (lo_ + hi_); }
  bool degenerate() const { return lo_ == hi_; }

  bool Contains(double v) const { return lo_ <= v && v <= hi_; }
  bool Contains(const Interval& other) const {
    return lo_ <= other.lo_ && other.hi_ <= hi_;
  }
  bool Intersects(const Interval& other) const {
    return lo_ <= other.hi_ && other.lo_ <= hi_;
  }

  /// Minimal distance from any point of this interval to the scalar r;
  /// zero when r lies inside. Branch-free: at most one of the two gaps is
  /// positive, and +0.0 wins every tie, so the value is exactly
  /// "r < lo ? lo - r : r > hi ? r - hi : 0.0".
  double MinDist(double r) const {
    return std::max(0.0, std::max(lo_ - r, r - hi_));
  }

  /// Maximal distance from any point of this interval to the scalar r.
  double MaxDist(double r) const {
    return std::max(std::abs(r - lo_), std::abs(hi_ - r));
  }

  /// Minimal distance between the two intervals (0 when they intersect).
  /// Branch-free like MinDist(double): the value is exactly "intersecting
  /// ? 0.0 : the positive gap".
  double MinDist(const Interval& other) const {
    return std::max(0.0, std::max(other.lo_ - hi_, lo_ - other.hi_));
  }

  /// Maximal distance between the two intervals.
  double MaxDist(const Interval& other) const {
    return std::max(std::abs(other.hi_ - lo_), std::abs(hi_ - other.lo_));
  }

  /// Clamps v into [lo, hi].
  double Clamp(double v) const { return std::clamp(v, lo_, hi_); }

  /// Splits at `at` (must lie inside) into [lo, at] and [at, hi].
  std::pair<Interval, Interval> SplitAt(double at) const {
    UPDB_DCHECK(Contains(at));
    return {Interval(lo_, at), Interval(at, hi_)};
  }

  /// Smallest interval containing both operands.
  static Interval Hull(const Interval& a, const Interval& b) {
    return Interval(std::min(a.lo_, b.lo_), std::max(a.hi_, b.hi_));
  }

  bool operator==(const Interval& other) const = default;

  /// "[lo, hi]".
  std::string ToString() const;

 private:
  double lo_;
  double hi_;
};

}  // namespace updb

#endif  // UPDB_GEOM_INTERVAL_H_
