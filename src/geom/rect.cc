#include "geom/rect.h"

#include <algorithm>
#include <cmath>

namespace updb {

std::string Point::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < coords_.size(); ++i) {
    if (i > 0) out += ", ";
    out += std::to_string(coords_[i]);
  }
  out += ")";
  return out;
}

std::string Interval::ToString() const {
  return "[" + std::to_string(lo_) + ", " + std::to_string(hi_) + "]";
}

Rect::Rect(const Point& a, const Point& b) {
  UPDB_DCHECK(a.dim() == b.dim());
  sides_.reserve(a.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    sides_.emplace_back(std::min(a[i], b[i]), std::max(a[i], b[i]));
  }
}

Rect Rect::FromPoint(const Point& p) {
  std::vector<Interval> sides;
  sides.reserve(p.dim());
  for (size_t i = 0; i < p.dim(); ++i) sides.push_back(Interval::FromPoint(p[i]));
  return Rect(std::move(sides));
}

Rect Rect::Centered(const Point& center, const std::vector<double>& half) {
  UPDB_CHECK(center.dim() == half.size());
  std::vector<Interval> sides;
  sides.reserve(center.dim());
  for (size_t i = 0; i < center.dim(); ++i) {
    UPDB_CHECK(half[i] >= 0.0);
    sides.emplace_back(center[i] - half[i], center[i] + half[i]);
  }
  return Rect(std::move(sides));
}

Point Rect::Center() const {
  Point p(dim());
  for (size_t i = 0; i < dim(); ++i) p[i] = sides_[i].mid();
  return p;
}

Point Rect::LowerCorner() const {
  Point p(dim());
  for (size_t i = 0; i < dim(); ++i) p[i] = sides_[i].lo();
  return p;
}

Point Rect::UpperCorner() const {
  Point p(dim());
  for (size_t i = 0; i < dim(); ++i) p[i] = sides_[i].hi();
  return p;
}

double Rect::Volume() const {
  double v = 1.0;
  for (const Interval& s : sides_) v *= s.length();
  return v;
}

bool Rect::Contains(const Point& p) const {
  UPDB_DCHECK(p.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (!sides_[i].Contains(p[i])) return false;
  }
  return true;
}

bool Rect::Contains(const Rect& other) const {
  UPDB_DCHECK(other.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (!sides_[i].Contains(other.sides_[i])) return false;
  }
  return true;
}

bool Rect::Intersects(const Rect& other) const {
  UPDB_DCHECK(other.dim() == dim());
  for (size_t i = 0; i < dim(); ++i) {
    if (!sides_[i].Intersects(other.sides_[i])) return false;
  }
  return true;
}

std::pair<Rect, Rect> Rect::Split(size_t axis, double at) const {
  UPDB_DCHECK(axis < dim());
  auto [lo, hi] = sides_[axis].SplitAt(at);
  Rect lower = *this;
  Rect upper = *this;
  lower.sides_[axis] = lo;
  upper.sides_[axis] = hi;
  return {std::move(lower), std::move(upper)};
}

Rect Rect::Hull(const Rect& a, const Rect& b) {
  UPDB_DCHECK(a.dim() == b.dim());
  std::vector<Interval> sides;
  sides.reserve(a.dim());
  for (size_t i = 0; i < a.dim(); ++i) {
    sides.push_back(Interval::Hull(a.sides_[i], b.sides_[i]));
  }
  return Rect(std::move(sides));
}

std::vector<Point> Rect::Corners() const {
  UPDB_CHECK(dim() <= 30);
  const size_t n = size_t{1} << dim();
  std::vector<Point> corners;
  corners.reserve(n);
  for (size_t mask = 0; mask < n; ++mask) {
    Point p(dim());
    for (size_t i = 0; i < dim(); ++i) {
      p[i] = (mask >> i) & 1 ? sides_[i].hi() : sides_[i].lo();
    }
    corners.push_back(std::move(p));
  }
  return corners;
}

std::string Rect::ToString() const {
  std::string out;
  for (size_t i = 0; i < sides_.size(); ++i) {
    if (i > 0) out += " x ";
    out += sides_[i].ToString();
  }
  return out;
}

}  // namespace updb
