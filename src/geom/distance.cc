#include "geom/distance.h"

namespace updb {

double LpNorm::Dist(const Point& a, const Point& b) const {
  UPDB_DCHECK(a.dim() == b.dim());
  double sum = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) sum += Pow(a[i] - b[i]);
  return Root(sum);
}

double LpNorm::MinDist(const Rect& r, const Point& q) const {
  UPDB_DCHECK(r.dim() == q.dim());
  double sum = 0.0;
  for (size_t i = 0; i < r.dim(); ++i) sum += Pow(r.side(i).MinDist(q[i]));
  return Root(sum);
}

double LpNorm::MaxDist(const Rect& r, const Point& q) const {
  UPDB_DCHECK(r.dim() == q.dim());
  double sum = 0.0;
  for (size_t i = 0; i < r.dim(); ++i) sum += Pow(r.side(i).MaxDist(q[i]));
  return Root(sum);
}

double LpNorm::MinDist(const Rect& a, const Rect& b) const {
  UPDB_DCHECK(a.dim() == b.dim());
  double sum = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) sum += Pow(a.side(i).MinDist(b.side(i)));
  return Root(sum);
}

double LpNorm::MaxDist(const Rect& a, const Rect& b) const {
  UPDB_DCHECK(a.dim() == b.dim());
  double sum = 0.0;
  for (size_t i = 0; i < a.dim(); ++i) sum += Pow(a.side(i).MaxDist(b.side(i)));
  return Root(sum);
}

}  // namespace updb
