#include "domination/criteria.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "domination/kernel.h"
#include "domination_oracle.h"
#include "gf/kernels.h"

namespace updb {
namespace {

Rect MakeRect(double x0, double y0, double x1, double y1) {
  return Rect(Point{x0, y0}, Point{x1, y1});
}

/// Independent oracle for complete domination on rectangles: A dominates B
/// w.r.t. R iff for every corner r of R the farthest point of A from r is
/// still strictly closer than the closest point of B to r. (Derived
/// directly from Definition 2; implemented without the per-dimension
/// decomposition used by OptimalDominates.)
bool OracleDominates(const Rect& a, const Rect& b, const Rect& r,
                     const LpNorm& norm) {
  for (const Point& corner : r.Corners()) {
    if (norm.MaxDist(a, corner) >= norm.MinDist(b, corner)) return false;
  }
  return true;
}

TEST(MinMaxDominatesTest, ClearSeparation) {
  // A close to R, B far away.
  Rect r = MakeRect(0.0, 0.0, 1.0, 1.0);
  Rect a = MakeRect(1.5, 0.0, 2.0, 1.0);
  Rect b = MakeRect(8.0, 0.0, 9.0, 1.0);
  EXPECT_TRUE(MinMaxDominates(a, b, r));
  EXPECT_FALSE(MinMaxDominates(b, a, r));
}

TEST(MinMaxDominatesTest, OverlappingNeverDominates) {
  Rect r = MakeRect(0.0, 0.0, 1.0, 1.0);
  Rect a = MakeRect(1.0, 0.0, 3.0, 1.0);
  Rect b = MakeRect(2.0, 0.0, 4.0, 1.0);
  EXPECT_FALSE(MinMaxDominates(a, b, r));
  EXPECT_FALSE(MinMaxDominates(b, a, r));
}

TEST(OptimalDominatesTest, DetectsCasesMinMaxMisses) {
  // The classic configuration from Emrich et al.: A and B on opposite
  // sides of a *small* R. MinMax fails because MaxDist(A,R) >
  // MinDist(B,R) when measured against the whole of R, but for every
  // individual position of r, A is closer.
  Rect r = MakeRect(0.0, 0.0, 0.2, 2.0);    // tall thin reference
  Rect a = MakeRect(0.5, 0.9, 0.7, 1.1);    // hugging R's right side
  Rect b = MakeRect(3.0, 0.0, 3.2, 2.0);    // far right
  ASSERT_TRUE(OracleDominates(a, b, r, LpNorm::Euclidean()));
  EXPECT_TRUE(OptimalDominates(a, b, r));
}

TEST(OptimalDominatesTest, MatchesPaperFigure1Shape) {
  // Figure 1: A near R, B further out; A dominates B with high
  // probability but regions are arranged so complete domination holds.
  Rect r = MakeRect(0.0, 0.0, 1.0, 1.0);
  Rect a = MakeRect(1.2, 0.2, 1.8, 0.8);
  Rect b = MakeRect(5.0, 3.0, 6.0, 4.0);
  EXPECT_TRUE(OptimalDominates(a, b, r));
  EXPECT_FALSE(OptimalDominates(b, a, r));
}

TEST(OptimalDominatesTest, PointObjects) {
  // Certain (point) objects: domination is a plain distance comparison.
  Rect r = Rect::FromPoint(Point{0.0, 0.0});
  Rect a = Rect::FromPoint(Point{1.0, 0.0});
  Rect b = Rect::FromPoint(Point{2.0, 0.0});
  EXPECT_TRUE(OptimalDominates(a, b, r));
  EXPECT_FALSE(OptimalDominates(b, a, r));
  // Equal distance: strictly-closer fails both ways.
  Rect c = Rect::FromPoint(Point{0.0, 1.0});
  EXPECT_FALSE(OptimalDominates(a, c, r));
  EXPECT_FALSE(OptimalDominates(c, a, r));
}

TEST(OptimalDominatesTest, SelfDominationNeverHolds) {
  Rect r = MakeRect(0.0, 0.0, 1.0, 1.0);
  Rect a = MakeRect(2.0, 2.0, 3.0, 3.0);
  EXPECT_FALSE(OptimalDominates(a, a, r));
}

TEST(ClassifyDominationTest, ThreeWayOutcomes) {
  Rect r = MakeRect(0.0, 0.0, 1.0, 1.0);
  Rect near = MakeRect(1.5, 0.0, 2.0, 1.0);
  Rect far = MakeRect(9.0, 0.0, 10.0, 1.0);
  Rect overlap = MakeRect(1.8, 0.0, 9.5, 1.0);
  EXPECT_EQ(ClassifyDomination(near, far, r, DominationCriterion::kOptimal),
            DominationClass::kDominates);
  EXPECT_EQ(ClassifyDomination(far, near, r, DominationCriterion::kOptimal),
            DominationClass::kDominated);
  EXPECT_EQ(
      ClassifyDomination(near, overlap, r, DominationCriterion::kOptimal),
      DominationClass::kUndecided);
}

TEST(DominatesDispatchTest, MatchesUnderlyingCriteria) {
  Rng rng(71);
  for (int trial = 0; trial < 100; ++trial) {
    Rect r = MakeRect(rng.Uniform(0, 1), rng.Uniform(0, 1),
                      rng.Uniform(1, 2), rng.Uniform(1, 2));
    Rect a = MakeRect(rng.Uniform(0, 4), rng.Uniform(0, 4),
                      rng.Uniform(4, 6), rng.Uniform(4, 6));
    Rect b = MakeRect(rng.Uniform(0, 4), rng.Uniform(0, 4),
                      rng.Uniform(4, 6), rng.Uniform(4, 6));
    EXPECT_EQ(Dominates(a, b, r, DominationCriterion::kMinMax),
              MinMaxDominates(a, b, r));
    EXPECT_EQ(Dominates(a, b, r, DominationCriterion::kOptimal),
              OptimalDominates(a, b, r));
  }
}

// Property sweeps over random rectangle configurations and norms.
class DominationPropertyTest : public ::testing::TestWithParam<int> {
 protected:
  LpNorm norm() const { return LpNorm(GetParam()); }

  Rect RandomRect(Rng& rng, double span) {
    const double x0 = rng.Uniform(0, span);
    const double y0 = rng.Uniform(0, span);
    return MakeRect(x0, y0, x0 + rng.Uniform(0, 1.0), y0 + rng.Uniform(0, 1.0));
  }
};

TEST_P(DominationPropertyTest, OptimalAgreesWithCornerOracle) {
  Rng rng(300 + GetParam());
  int dominated = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Rect r = RandomRect(rng, 3.0);
    Rect a = RandomRect(rng, 3.0);
    Rect b = RandomRect(rng, 3.0);
    const bool expect = OracleDominates(a, b, r, norm());
    EXPECT_EQ(OptimalDominates(a, b, r, norm()), expect)
        << "A=" << a.ToString() << " B=" << b.ToString()
        << " R=" << r.ToString();
    dominated += expect;
  }
  EXPECT_GT(dominated, 0);  // the sweep must exercise both outcomes
}

TEST_P(DominationPropertyTest, MinMaxImpliesOptimal) {
  Rng rng(400 + GetParam());
  int minmax_hits = 0, optimal_hits = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    Rect r = RandomRect(rng, 2.0);
    Rect a = RandomRect(rng, 4.0);
    Rect b = RandomRect(rng, 4.0);
    const bool mm = MinMaxDominates(a, b, r, norm());
    const bool opt = OptimalDominates(a, b, r, norm());
    if (mm) {
      EXPECT_TRUE(opt) << "MinMax fired but Optimal did not";
    }
    minmax_hits += mm;
    optimal_hits += opt;
  }
  // Optimal must be strictly more powerful on this sweep (the ~20% gain
  // of Figure 6(a) comes from such cases).
  EXPECT_GT(optimal_hits, minmax_hits);
}

TEST_P(DominationPropertyTest, DominationIsSoundOnSampledWorlds) {
  Rng rng(500 + GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    Rect r = RandomRect(rng, 2.0);
    Rect a = RandomRect(rng, 4.0);
    Rect b = RandomRect(rng, 4.0);
    if (!OptimalDominates(a, b, r, norm())) continue;
    for (int s = 0; s < 50; ++s) {
      Point pa(2), pb(2), pr(2);
      for (size_t i = 0; i < 2; ++i) {
        pa[i] = rng.Uniform(a.side(i).lo(), a.side(i).hi());
        pb[i] = rng.Uniform(b.side(i).lo(), b.side(i).hi());
        pr[i] = rng.Uniform(r.side(i).lo(), r.side(i).hi());
      }
      EXPECT_LT(norm().Dist(pa, pr), norm().Dist(pb, pr));
    }
  }
}

TEST_P(DominationPropertyTest, Corollary2Duality) {
  // PDom(A,B,R)=1 implies PDom(B,A,R)=0: if A completely dominates B then
  // B cannot dominate A (not even partially, so certainly not completely).
  Rng rng(600 + GetParam());
  for (int trial = 0; trial < 2000; ++trial) {
    Rect r = RandomRect(rng, 2.0);
    Rect a = RandomRect(rng, 4.0);
    Rect b = RandomRect(rng, 4.0);
    if (OptimalDominates(a, b, r, norm())) {
      EXPECT_FALSE(OptimalDominates(b, a, r, norm()));
    }
    if (MinMaxDominates(a, b, r, norm())) {
      EXPECT_FALSE(MinMaxDominates(b, a, r, norm()));
    }
  }
}

TEST_P(DominationPropertyTest, ShrinkingPreservesDomination) {
  // Domination is monotone: sub-rectangles of A, B, R preserve a complete
  // domination verdict (the refinement loop depends on this).
  Rng rng(700 + GetParam());
  for (int trial = 0; trial < 1000; ++trial) {
    Rect r = RandomRect(rng, 2.0);
    Rect a = RandomRect(rng, 3.0);
    Rect b = RandomRect(rng, 3.0);
    if (!OptimalDominates(a, b, r, norm())) continue;
    auto shrink = [&rng](const Rect& x) {
      std::vector<Interval> sides;
      for (size_t i = 0; i < x.dim(); ++i) {
        const double lo = rng.Uniform(x.side(i).lo(), x.side(i).mid());
        const double hi = rng.Uniform(x.side(i).mid(), x.side(i).hi());
        sides.emplace_back(lo, hi);
      }
      return Rect(sides);
    };
    EXPECT_TRUE(OptimalDominates(shrink(a), shrink(b), shrink(r), norm()));
  }
}

INSTANTIATE_TEST_SUITE_P(Norms, DominationPropertyTest,
                         ::testing::Values(1, 2, 3));

// ------------------------------------------------------------------
// Overflow: finite coordinates whose powered distances overflow.

Rect Box1(double lo, double hi) { return Rect({Interval(lo, hi)}); }

TEST(DominationOverflowTest, InfMinusInfNeverFires) {
  // Both powers of every term are +inf, so every term is inf - inf = NaN;
  // the test used to fire in both directions. B is in fact the closer one
  // (kDominated), but the arithmetic cannot show it.
  const Rect r = Box1(0.0, 0.0);
  const Rect a = Box1(2e154, 2e154);
  const Rect b = Box1(1.5e154, 1.5e154);
  const LpNorm l2 = LpNorm::Euclidean();
  EXPECT_FALSE(OptimalDominates(a, b, r, l2));
  EXPECT_FALSE(OptimalDominates(b, a, r, l2));
  EXPECT_EQ(ClassifyDomination(a, b, r, DominationCriterion::kOptimal, l2),
            DominationClass::kUndecided);
  const LpNorm l3(3);
  const Rect a3 = Box1(7e102, 7e102);
  const Rect b3 = Box1(6e102, 6e102);
  EXPECT_FALSE(OptimalDominates(a3, b3, r, l3));
  EXPECT_FALSE(OptimalDominates(b3, a3, r, l3));
  EXPECT_EQ(ClassifyDomination(a3, b3, r, DominationCriterion::kOptimal, l3),
            DominationClass::kUndecided);
  // MinMax compares two +inf distances, which never fires either.
  EXPECT_EQ(ClassifyDomination(a, b, r, DominationCriterion::kMinMax, l2),
            DominationClass::kUndecided);
}

TEST(DominationOverflowTest, OneSidedOverflowStillDecides) {
  // Only the far box's powers overflow: every term is finite - inf = -inf
  // for "near dominates far", which is the true class.
  const Rect r = Box1(0.0, 0.0);
  const Rect near = Box1(1.0, 2.0);
  const Rect far = Box1(2e154, 2.1e154);
  EXPECT_EQ(ClassifyDomination(near, far, r, DominationCriterion::kOptimal),
            DominationClass::kDominates);
  EXPECT_EQ(ClassifyDomination(far, near, r, DominationCriterion::kOptimal),
            DominationClass::kDominated);
}

// ------------------------------------------------------------------
// Kernel == oracle, bit for bit: PairTerms' Classify/Dominates/ClassifyRun
// and the Rect wrappers against the per-call Rect loops of
// domination_oracle.h.

/// Where a sweep draws its box coordinates from.
enum class BoxPool {
  kRandom,  // uniform doubles: generic positions
  kGrid,    // a half-integer grid with +-0.0: touching boxes, point boxes
            // and exact ties (equal powered distances)
  kHuge,    // multiples of DBL_MAX^(1/p) (sqrt(DBL_MAX) for L2): some
            // powers overflow to +inf
};

class KernelOracleTest
    : public ::testing::TestWithParam<
          std::tuple<size_t, int, DominationCriterion, BoxPool>> {
 protected:
  double Coordinate(Rng& rng, BoxPool pool, int p) const {
    static constexpr double kGrid[] = {-0.0, 0.0, 0.5, 1.0, 1.5,
                                       2.0,  -1.0, -0.5, 3.0};
    const double root = std::pow(std::numeric_limits<double>::max(), 1.0 / p);
    const double kHuge[] = {-0.0,          0.0,
                            1.0,           0.25 * root,
                            0.5 * root,    std::sqrt(0.5) * root,
                            0.75 * root,   root,
                            -0.5 * root,   -root};
    switch (pool) {
      case BoxPool::kRandom:
        return rng.Uniform(-1.0, 3.0);
      case BoxPool::kGrid:
        return kGrid[rng.NextBounded(std::size(kGrid))];
      case BoxPool::kHuge:
        return kHuge[rng.NextBounded(std::size(kHuge))];
    }
    return 0.0;
  }

  /// A box of `dim` sides; one in four is a point box.
  Rect RandomBox(Rng& rng, size_t dim, BoxPool pool, int p) const {
    const bool point = rng.NextBounded(4) == 0;
    std::vector<Interval> sides;
    for (size_t i = 0; i < dim; ++i) {
      const double x = Coordinate(rng, pool, p);
      const double y = point ? x : Coordinate(rng, pool, p);
      sides.emplace_back(std::min(x, y), std::max(x, y));
    }
    return Rect(std::move(sides));
  }
};

TEST_P(KernelOracleTest, ClassifyAndDominatesMatchOracle) {
  const auto [dim, p, criterion, pool] = GetParam();
  const LpNorm norm(p);
  Rng rng(9000 + 100 * dim + 10 * p + static_cast<int>(pool));
  size_t seen[3] = {0, 0, 0};
  WithPairTerms(criterion, norm, [&](auto terms) {
    for (int pair = 0; pair < 300; ++pair) {
      const Rect b = RandomBox(rng, dim, pool, p);
      const Rect r = RandomBox(rng, dim, pool, p);
      // One PairTerms serves many A boxes, as in the engine's loops.
      terms.Reset(b.sides(), r.sides());
      for (int trial = 0; trial < 8; ++trial) {
        const Rect a = RandomBox(rng, dim, pool, p);
        const DominationClass expect =
            test_util::OracleClassify(a, b, r, criterion, norm);
        ++seen[static_cast<int>(expect)];
        // Streamed into a failure message only when a check fails.
        const auto where = [&] {
          return "A=" + a.ToString() + " B=" + b.ToString() +
                 " R=" + r.ToString();
        };
        EXPECT_EQ(Classify(terms, a.sides()), expect) << where();
        EXPECT_EQ(Dominates(terms, a.sides()),
                  test_util::OracleDominates(a, b, r, criterion, norm))
            << where();
        EXPECT_EQ(ClassifyDomination(a, b, r, criterion, norm), expect)
            << where();
        EXPECT_EQ(Dominates(a, b, r, criterion, norm),
                  expect == DominationClass::kDominates)
            << where();
      }
    }
  });
  // Every sweep must reach decided verdicts, not only kUndecided.
  EXPECT_GT(seen[static_cast<int>(DominationClass::kDominates)] +
                seen[static_cast<int>(DominationClass::kDominated)],
            0u);
  EXPECT_GT(seen[static_cast<int>(DominationClass::kUndecided)], 0u);
}

TEST_P(KernelOracleTest, ClassifyRunMatchesOracleUnderBothTables) {
  // The run entry point classifies four boxes per step and pads the last
  // step with the run's last box: run lengths 1..9 reach every padding
  // shape (0-3 repeated lanes) after zero, one and two full steps. Each
  // dispatch table's copy of the lane body must return, box by box, the
  // oracle's verdict and per-box Classify's.
  const auto [dim, p, criterion, pool] = GetParam();
  const LpNorm norm(p);
  constexpr size_t kMaxRun = 9;
  std::vector<bool> scalar_modes = {true};
  if (gf::VectorKernelsAvailable()) scalar_modes.push_back(false);
  const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();
  for (const bool scalar : scalar_modes) {
    gf::ForceScalarKernels(scalar);
    Rng rng(9500 + 100 * dim + 10 * p + static_cast<int>(pool));
    size_t seen[3] = {0, 0, 0};
    WithPairTerms(criterion, norm, [&](auto terms) {
      for (int pair = 0; pair < 60; ++pair) {
        const Rect b = RandomBox(rng, dim, pool, p);
        const Rect r = RandomBox(rng, dim, pool, p);
        terms.Reset(b.sides(), r.sides());
        std::vector<Rect> a;
        std::vector<const Interval*> boxes;
        for (size_t j = 0; j < kMaxRun; ++j) {
          a.push_back(RandomBox(rng, dim, pool, p));
        }
        for (const Rect& box : a) boxes.push_back(box.sides().data());
        for (size_t n = 1; n <= kMaxRun; ++n) {
          DominationClass out[kMaxRun];
          ClassifyRun(terms, std::span<const Interval* const>(boxes.data(), n),
                      out);
          for (size_t j = 0; j < n; ++j) {
            const DominationClass expect =
                test_util::OracleClassify(a[j], b, r, criterion, norm);
            ++seen[static_cast<int>(expect)];
            const auto where = [&] {
              return std::string(scalar ? "scalar" : "vector") +
                     " run=" + std::to_string(n) + " j=" + std::to_string(j) +
                     " A=" + a[j].ToString() + " B=" + b.ToString() +
                     " R=" + r.ToString();
            };
            EXPECT_EQ(out[j], expect) << where();
            EXPECT_EQ(out[j], Classify(terms, a[j].sides())) << where();
          }
        }
      }
    });
    EXPECT_GT(seen[static_cast<int>(DominationClass::kDominates)] +
                  seen[static_cast<int>(DominationClass::kDominated)],
              0u);
    EXPECT_GT(seen[static_cast<int>(DominationClass::kUndecided)], 0u);
  }
  gf::ForceScalarKernels(was_scalar);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KernelOracleTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{5}),
                       ::testing::Values(1, 2, 3),
                       ::testing::Values(DominationCriterion::kMinMax,
                                         DominationCriterion::kOptimal),
                       ::testing::Values(BoxPool::kRandom, BoxPool::kGrid,
                                         BoxPool::kHuge)));

}  // namespace
}  // namespace updb
