#include "domination/pdom.h"

#include <gtest/gtest.h>

#include <memory>

#include "common/random.h"
#include "mc/monte_carlo.h"

namespace updb {
namespace {

std::unique_ptr<UniformPdf> MakeUniform(double x0, double y0, double x1,
                                        double y1) {
  return std::make_unique<UniformPdf>(Rect(Point{x0, y0}, Point{x1, y1}));
}

std::vector<Partition> Whole(const Pdf& pdf) {
  return {Partition{pdf.bounds(), 1.0}};
}

std::vector<Partition> DecomposeTo(const Pdf& pdf, int depth) {
  DecompositionTree tree(&pdf);
  tree.DeepenTo(depth);
  return tree.Partitions();
}

TEST(ProbabilityBoundsTest, NormalizeClampsAndRepairs) {
  ProbabilityBounds b{-0.1, 1.3};
  b.Normalize();
  EXPECT_DOUBLE_EQ(b.lb, 0.0);
  EXPECT_DOUBLE_EQ(b.ub, 1.0);
  ProbabilityBounds crossed{0.6, 0.5999999};
  crossed.Normalize();
  EXPECT_LE(crossed.lb, crossed.ub);
  EXPECT_NEAR(crossed.lb, 0.6, 1e-6);
}

TEST(ProbabilityBoundsTest, WidthAndContains) {
  ProbabilityBounds b{0.2, 0.7};
  EXPECT_DOUBLE_EQ(b.width(), 0.5);
  EXPECT_TRUE(b.Contains(0.2));
  EXPECT_TRUE(b.Contains(0.7));
  EXPECT_FALSE(b.Contains(0.1));
}

TEST(PDomWholeObjectsTest, CompleteCasesAreExact) {
  auto r = MakeUniform(0, 0, 1, 1);
  auto a = MakeUniform(1.5, 0, 2, 1);
  auto b = MakeUniform(9, 0, 10, 1);
  const ProbabilityBounds dom =
      PDomWholeObjects(a->bounds(), b->bounds(), r->bounds());
  EXPECT_DOUBLE_EQ(dom.lb, 1.0);
  EXPECT_DOUBLE_EQ(dom.ub, 1.0);
  const ProbabilityBounds dominated =
      PDomWholeObjects(b->bounds(), a->bounds(), r->bounds());
  EXPECT_DOUBLE_EQ(dominated.lb, 0.0);
  EXPECT_DOUBLE_EQ(dominated.ub, 0.0);
}

TEST(PDomWholeObjectsTest, UndecidedIsVacuous) {
  auto r = MakeUniform(0, 0, 1, 1);
  auto a = MakeUniform(1, 0, 3, 1);
  auto b = MakeUniform(2, 0, 4, 1);
  const ProbabilityBounds p =
      PDomWholeObjects(a->bounds(), b->bounds(), r->bounds());
  EXPECT_DOUBLE_EQ(p.lb, 0.0);
  EXPECT_DOUBLE_EQ(p.ub, 1.0);
}

TEST(ComputePDomBoundsTest, Lemma2DualityHoldsByConstruction) {
  auto r = MakeUniform(0, 0, 1, 1);
  auto a = MakeUniform(0.5, 0, 2.5, 1);
  auto b = MakeUniform(1.5, 0, 3.5, 1);
  const auto da = DecomposeTo(*a, 3);
  const auto db = DecomposeTo(*b, 3);
  const auto dr = DecomposeTo(*r, 3);
  const ProbabilityBounds ab = ComputePDomBounds(da, db, dr);
  const ProbabilityBounds ba = ComputePDomBounds(db, da, dr);
  EXPECT_NEAR(ab.ub, 1.0 - ba.lb, 1e-9);
  EXPECT_NEAR(ba.ub, 1.0 - ab.lb, 1e-9);
}

TEST(ComputePDomBoundsTest, PaperFigure3Example) {
  // Certain A1 = A2 and certain B; uncertain R spanning the bisector so
  // that PDom(A, B, R) = 50% exactly. With R decomposed finely the bounds
  // must close onto 0.5.
  auto a = std::make_unique<DiscreteSamplePdf>(
      std::vector<Point>{Point{2.0, 0.5}});
  auto b = std::make_unique<DiscreteSamplePdf>(
      std::vector<Point>{Point{0.0, 0.5}});
  // R uniform on [0,2] x [0.5, 0.5]: dist to A wins iff r_x > 1.
  auto r = std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.5}, Point{2.0, 0.5}));
  const auto da = Whole(*a);
  const auto db = Whole(*b);
  const auto dr = DecomposeTo(*r, 8);
  const ProbabilityBounds p = ComputePDomBounds(da, db, dr);
  EXPECT_NEAR(p.lb, 0.5, 0.01);
  EXPECT_NEAR(p.ub, 0.5, 0.01);
}

TEST(ComputePDomBoundsTest, BoundsTightenMonotonicallyWithDepth) {
  auto r = MakeUniform(0, 0, 1, 1);
  auto a = MakeUniform(0.5, 0.2, 2.0, 1.2);
  auto b = MakeUniform(1.0, 0.0, 2.8, 1.0);
  ProbabilityBounds prev{0.0, 1.0};
  for (int depth = 0; depth <= 5; ++depth) {
    const ProbabilityBounds p = ComputePDomBounds(
        DecomposeTo(*a, depth), DecomposeTo(*b, depth), DecomposeTo(*r, depth));
    EXPECT_GE(p.lb, prev.lb - 1e-9) << "depth=" << depth;
    EXPECT_LE(p.ub, prev.ub + 1e-9) << "depth=" << depth;
    prev = p;
  }
  EXPECT_LT(prev.width(), 0.5);  // must have made real progress
}

TEST(PDomGivenPairTest, MatchesComputePDomBoundsOnSingletonPair) {
  auto r = MakeUniform(0, 0, 1, 1);
  auto a = MakeUniform(0.5, 0.2, 2.0, 1.2);
  auto b = MakeUniform(1.0, 0.0, 2.8, 1.0);
  const auto da = DecomposeTo(*a, 4);
  const ProbabilityBounds via_pair =
      PDomGivenPair(da, b->bounds(), r->bounds());
  const ProbabilityBounds via_full =
      ComputePDomBounds(da, Whole(*b), Whole(*r));
  EXPECT_NEAR(via_pair.lb, via_full.lb, 1e-12);
  EXPECT_NEAR(via_pair.ub, via_full.ub, 1e-12);
}

// Property: PDom bounds bracket a Monte-Carlo estimate for random
// configurations across object models.
class PDomBracketsTruthTest : public ::testing::TestWithParam<int> {};

TEST_P(PDomBracketsTruthTest, BoundsBracketSampledTruth) {
  const int depth = GetParam();
  Rng rng(800 + depth);
  for (int trial = 0; trial < 30; ++trial) {
    auto make = [&rng]() {
      const double x = rng.Uniform(0, 2);
      const double y = rng.Uniform(0, 2);
      return std::make_unique<UniformPdf>(Rect(
          Point{x, y}, Point{x + rng.Uniform(0.1, 1.5),
                             y + rng.Uniform(0.1, 1.5)}));
    };
    auto a = make();
    auto b = make();
    auto r = make();
    const ProbabilityBounds p = ComputePDomBounds(
        DecomposeTo(*a, depth), DecomposeTo(*b, depth), DecomposeTo(*r, depth));
    Rng mc_rng(trial * 31 + depth);
    const double truth = EstimatePDom(*a, *b, *r, 20000, mc_rng);
    // 20k trials: ~0.01 standard error; allow 4 sigma.
    EXPECT_GE(truth, p.lb - 0.02) << "trial=" << trial;
    EXPECT_LE(truth, p.ub + 0.02) << "trial=" << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PDomBracketsTruthTest,
                         ::testing::Values(0, 2, 4));

TEST(PDomDiscreteTest, FullDecompositionReachesExactness) {
  // Small discrete objects decompose down to points, so the bounds must
  // collapse to the exact probability.
  auto a = std::make_unique<DiscreteSamplePdf>(
      std::vector<Point>{Point{1.0, 0.0}, Point{3.0, 0.0}});
  auto b = std::make_unique<DiscreteSamplePdf>(
      std::vector<Point>{Point{2.0, 0.0}, Point{4.0, 0.0}});
  auto r = std::make_unique<DiscreteSamplePdf>(
      std::vector<Point>{Point{0.0, 0.0}});
  // Exact: P(a < b) over the 4 equally likely worlds w.r.t. r = 0:
  // (1,2):yes (1,4):yes (3,2):no (3,4):yes -> 0.75.
  const ProbabilityBounds p = ComputePDomBounds(
      DecomposeTo(*a, 8), DecomposeTo(*b, 8), DecomposeTo(*r, 8));
  EXPECT_NEAR(p.lb, 0.75, 1e-9);
  EXPECT_NEAR(p.ub, 0.75, 1e-9);
}

}  // namespace
}  // namespace updb
