#include <gtest/gtest.h>

#include "geom/interval.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace updb {
namespace {

TEST(PointTest, ConstructionAndAccess) {
  Point p{1.0, 2.0, 3.0};
  EXPECT_EQ(p.dim(), 3u);
  EXPECT_DOUBLE_EQ(p[0], 1.0);
  EXPECT_DOUBLE_EQ(p[2], 3.0);
  p[1] = 5.0;
  EXPECT_DOUBLE_EQ(p[1], 5.0);
}

TEST(PointTest, ZeroConstruction) {
  Point p(4);
  EXPECT_EQ(p.dim(), 4u);
  for (size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(p[i], 0.0);
}

TEST(PointTest, Equality) {
  EXPECT_EQ((Point{1.0, 2.0}), (Point{1.0, 2.0}));
  EXPECT_NE((Point{1.0, 2.0}), (Point{1.0, 2.1}));
}

TEST(IntervalTest, BasicProperties) {
  Interval i(1.0, 3.0);
  EXPECT_DOUBLE_EQ(i.lo(), 1.0);
  EXPECT_DOUBLE_EQ(i.hi(), 3.0);
  EXPECT_DOUBLE_EQ(i.length(), 2.0);
  EXPECT_DOUBLE_EQ(i.mid(), 2.0);
  EXPECT_FALSE(i.degenerate());
  EXPECT_TRUE(Interval::FromPoint(2.0).degenerate());
}

TEST(IntervalTest, Contains) {
  Interval i(0.0, 1.0);
  EXPECT_TRUE(i.Contains(0.0));
  EXPECT_TRUE(i.Contains(0.5));
  EXPECT_TRUE(i.Contains(1.0));
  EXPECT_FALSE(i.Contains(-0.1));
  EXPECT_FALSE(i.Contains(1.1));
  EXPECT_TRUE(i.Contains(Interval(0.2, 0.8)));
  EXPECT_FALSE(i.Contains(Interval(0.2, 1.2)));
}

TEST(IntervalTest, Intersects) {
  EXPECT_TRUE(Interval(0, 1).Intersects(Interval(1, 2)));  // touching counts
  EXPECT_TRUE(Interval(0, 2).Intersects(Interval(1, 3)));
  EXPECT_FALSE(Interval(0, 1).Intersects(Interval(1.5, 2)));
}

TEST(IntervalTest, MinMaxDistToScalar) {
  Interval i(2.0, 5.0);
  EXPECT_DOUBLE_EQ(i.MinDist(1.0), 1.0);
  EXPECT_DOUBLE_EQ(i.MinDist(3.0), 0.0);
  EXPECT_DOUBLE_EQ(i.MinDist(7.0), 2.0);
  EXPECT_DOUBLE_EQ(i.MaxDist(1.0), 4.0);
  EXPECT_DOUBLE_EQ(i.MaxDist(3.0), 2.0);
  EXPECT_DOUBLE_EQ(i.MaxDist(7.0), 5.0);
  EXPECT_DOUBLE_EQ(i.MaxDist(3.5), 1.5);
}

TEST(IntervalTest, MinMaxDistToInterval) {
  Interval a(0.0, 1.0);
  Interval b(3.0, 5.0);
  EXPECT_DOUBLE_EQ(a.MinDist(b), 2.0);
  EXPECT_DOUBLE_EQ(b.MinDist(a), 2.0);
  EXPECT_DOUBLE_EQ(a.MaxDist(b), 5.0);
  EXPECT_DOUBLE_EQ(a.MinDist(Interval(0.5, 2.0)), 0.0);
}

TEST(IntervalTest, SplitAt) {
  auto [lo, hi] = Interval(0.0, 4.0).SplitAt(1.0);
  EXPECT_EQ(lo, Interval(0.0, 1.0));
  EXPECT_EQ(hi, Interval(1.0, 4.0));
}

TEST(IntervalTest, HullAndClamp) {
  EXPECT_EQ(Interval::Hull(Interval(0, 1), Interval(3, 4)), Interval(0, 4));
  EXPECT_EQ(Interval::Hull(Interval(0, 5), Interval(1, 2)), Interval(0, 5));
  EXPECT_DOUBLE_EQ(Interval(0, 1).Clamp(2.0), 1.0);
  EXPECT_DOUBLE_EQ(Interval(0, 1).Clamp(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(Interval(0, 1).Clamp(0.4), 0.4);
}

TEST(RectTest, CornerConstruction) {
  Rect r(Point{1.0, 5.0}, Point{3.0, 2.0});
  EXPECT_EQ(r.side(0), Interval(1.0, 3.0));
  EXPECT_EQ(r.side(1), Interval(2.0, 5.0));  // min/max swapped per dim
}

TEST(RectTest, CenteredConstruction) {
  Rect r = Rect::Centered(Point{1.0, 2.0}, {0.5, 1.0});
  EXPECT_EQ(r.side(0), Interval(0.5, 1.5));
  EXPECT_EQ(r.side(1), Interval(1.0, 3.0));
  EXPECT_EQ(r.Center(), (Point{1.0, 2.0}));
}

TEST(RectTest, FromPointIsDegenerate) {
  Rect r = Rect::FromPoint(Point{1.0, 2.0});
  EXPECT_DOUBLE_EQ(r.Volume(), 0.0);
  EXPECT_TRUE(r.Contains(Point{1.0, 2.0}));
  EXPECT_FALSE(r.Contains(Point{1.0, 2.1}));
}

TEST(RectTest, Volume) {
  Rect r(Point{0.0, 0.0, 0.0}, Point{2.0, 3.0, 1.0});
  EXPECT_DOUBLE_EQ(r.Volume(), 6.0);
}

TEST(RectTest, ContainsAndIntersects) {
  Rect a(Point{0.0, 0.0}, Point{2.0, 2.0});
  Rect b(Point{0.5, 0.5}, Point{1.5, 1.5});
  Rect c(Point{3.0, 3.0}, Point{4.0, 4.0});
  EXPECT_TRUE(a.Contains(b));
  EXPECT_FALSE(b.Contains(a));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(a.Intersects(c));
  // Touching boundary intersects.
  Rect d(Point{2.0, 0.0}, Point{3.0, 2.0});
  EXPECT_TRUE(a.Intersects(d));
}

TEST(RectTest, SplitProducesHalves) {
  Rect r(Point{0.0, 0.0}, Point{2.0, 2.0});
  auto [lo, hi] = r.Split(0, 0.5);
  EXPECT_EQ(lo.side(0), Interval(0.0, 0.5));
  EXPECT_EQ(hi.side(0), Interval(0.5, 2.0));
  EXPECT_EQ(lo.side(1), r.side(1));
  EXPECT_EQ(hi.side(1), r.side(1));
  EXPECT_DOUBLE_EQ(lo.Volume() + hi.Volume(), r.Volume());
}

TEST(RectTest, Hull) {
  Rect a(Point{0.0, 0.0}, Point{1.0, 1.0});
  Rect b(Point{2.0, -1.0}, Point{3.0, 0.5});
  Rect h = Rect::Hull(a, b);
  EXPECT_EQ(h.side(0), Interval(0.0, 3.0));
  EXPECT_EQ(h.side(1), Interval(-1.0, 1.0));
  EXPECT_TRUE(h.Contains(a));
  EXPECT_TRUE(h.Contains(b));
}

TEST(RectTest, CornersEnumerateAll) {
  Rect r(Point{0.0, 0.0}, Point{1.0, 2.0});
  std::vector<Point> corners = r.Corners();
  ASSERT_EQ(corners.size(), 4u);
  for (const Point& c : corners) EXPECT_TRUE(r.Contains(c));
  // All corners distinct.
  for (size_t i = 0; i < corners.size(); ++i) {
    for (size_t j = i + 1; j < corners.size(); ++j) {
      EXPECT_NE(corners[i], corners[j]);
    }
  }
}

TEST(RectTest, CenterLowerUpper) {
  Rect r(Point{0.0, 2.0}, Point{4.0, 6.0});
  EXPECT_EQ(r.Center(), (Point{2.0, 4.0}));
  EXPECT_EQ(r.LowerCorner(), (Point{0.0, 2.0}));
  EXPECT_EQ(r.UpperCorner(), (Point{4.0, 6.0}));
}

TEST(RectTest, ToStringIsReadable) {
  Rect r(Point{0.0}, Point{1.0});
  EXPECT_NE(r.ToString().find("["), std::string::npos);
  EXPECT_NE(Point({1.0, 2.0}).ToString().find("("), std::string::npos);
}

}  // namespace
}  // namespace updb
