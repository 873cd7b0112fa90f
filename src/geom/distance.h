// Copyright 2026 The updb Authors.
// Lp-norm distances between points and rectangles. The paper's techniques
// apply to any Lp norm (footnote 1); Euclidean (p = 2) is the default used
// by all experiments.

#ifndef UPDB_GEOM_DISTANCE_H_
#define UPDB_GEOM_DISTANCE_H_

#include <cmath>

#include "geom/point.h"
#include "geom/rect.h"

namespace updb {

/// |v|^p and its inverse for an Lp norm whose order is fixed at compile
/// time: P = 1 and P = 2 are inline arithmetic, P = 0 stands for any other
/// order and goes through std::pow. LpNorm and the domination kernel
/// (domination/kernel.h) both compute powers through it.
template <int P>
struct LpPower {
  double p;

  double Pow(double v) const {
    v = std::abs(v);
    if constexpr (P == 1) {
      return v;
    } else if constexpr (P == 2) {
      return v * v;
    } else {
      return std::pow(v, p);
    }
  }

  double Root(double sum_of_powers) const {
    if constexpr (P == 1) {
      return sum_of_powers;
    } else if constexpr (P == 2) {
      return std::sqrt(sum_of_powers);
    } else {
      return std::pow(sum_of_powers, 1.0 / p);
    }
  }
};

/// An Lp norm with finite integer order p >= 1. Finite p is required by the
/// per-dimension decomposition of the optimal domination criterion
/// (Corollary 1 sums per-dimension p-th powers of coordinate distances).
class LpNorm {
 public:
  /// Constructs the norm; requires p >= 1.
  explicit LpNorm(int p = 2) : p_(p) { UPDB_CHECK(p >= 1); }

  static LpNorm Euclidean() { return LpNorm(2); }
  static LpNorm Manhattan() { return LpNorm(1); }

  int p() const { return p_; }

  /// |v|^p for a single coordinate difference.
  double Pow(double v) const {
    switch (p_) {
      case 1:
        return LpPower<1>{1.0}.Pow(v);
      case 2:
        return LpPower<2>{2.0}.Pow(v);
      default:
        return LpPower<0>{static_cast<double>(p_)}.Pow(v);
    }
  }

  /// Recovers the distance from an accumulated sum of per-dimension powers.
  double Root(double sum_of_powers) const {
    UPDB_DCHECK(sum_of_powers >= 0.0);
    switch (p_) {
      case 1:
        return LpPower<1>{1.0}.Root(sum_of_powers);
      case 2:
        return LpPower<2>{2.0}.Root(sum_of_powers);
      default:
        return LpPower<0>{static_cast<double>(p_)}.Root(sum_of_powers);
    }
  }

  /// Distance between two points.
  double Dist(const Point& a, const Point& b) const;

  /// Minimal distance between a rect and a point (0 when inside).
  double MinDist(const Rect& r, const Point& q) const;

  /// Maximal distance between a rect and a point.
  double MaxDist(const Rect& r, const Point& q) const;

  /// Minimal distance between two rects (0 when intersecting).
  double MinDist(const Rect& a, const Rect& b) const;

  /// Maximal distance between two rects.
  double MaxDist(const Rect& a, const Rect& b) const;

  bool operator==(const LpNorm& other) const = default;

 private:
  int p_;
};

}  // namespace updb

#endif  // UPDB_GEOM_DISTANCE_H_
