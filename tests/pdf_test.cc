#include "uncertain/pdf.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/random.h"

namespace updb {
namespace {

Rect UnitSquare() { return Rect(Point{0.0, 0.0}, Point{1.0, 1.0}); }

// ------------------------------------------------------------- Uniform

TEST(UniformPdfTest, TotalMassIsOne) {
  UniformPdf pdf(UnitSquare());
  EXPECT_DOUBLE_EQ(pdf.Mass(UnitSquare()), 1.0);
}

TEST(UniformPdfTest, MassIsVolumeFraction) {
  UniformPdf pdf(UnitSquare());
  Rect half(Point{0.0, 0.0}, Point{0.5, 1.0});
  EXPECT_DOUBLE_EQ(pdf.Mass(half), 0.5);
  Rect quarter(Point{0.0, 0.0}, Point{0.5, 0.5});
  EXPECT_DOUBLE_EQ(pdf.Mass(quarter), 0.25);
}

TEST(UniformPdfTest, MassOutsideIsZero) {
  UniformPdf pdf(UnitSquare());
  Rect outside(Point{2.0, 2.0}, Point{3.0, 3.0});
  EXPECT_DOUBLE_EQ(pdf.Mass(outside), 0.0);
}

TEST(UniformPdfTest, MassClipsToSupport) {
  UniformPdf pdf(UnitSquare());
  Rect big(Point{-1.0, -1.0}, Point{0.5, 2.0});
  EXPECT_DOUBLE_EQ(pdf.Mass(big), 0.5);
}

TEST(UniformPdfTest, DegenerateDimensionCarriesMass) {
  // A "slab" object: zero extent in dimension 1.
  Rect slab(Point{0.0, 0.5}, Point{1.0, 0.5});
  UniformPdf pdf(slab);
  EXPECT_DOUBLE_EQ(pdf.Mass(slab), 1.0);
  Rect covering(Point{0.0, 0.0}, Point{1.0, 1.0});
  EXPECT_DOUBLE_EQ(pdf.Mass(covering), 1.0);
  Rect missing(Point{0.0, 0.6}, Point{1.0, 1.0});
  EXPECT_DOUBLE_EQ(pdf.Mass(missing), 0.0);
}

TEST(UniformPdfTest, SamplesStayInBounds) {
  UniformPdf pdf(UnitSquare());
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(pdf.bounds().Contains(pdf.Sample(rng)));
  }
}

TEST(UniformPdfTest, SampleFrequencyMatchesMass) {
  UniformPdf pdf(UnitSquare());
  Rng rng(2);
  Rect region(Point{0.2, 0.3}, Point{0.7, 0.9});
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += region.Contains(pdf.Sample(rng));
  EXPECT_NEAR(static_cast<double>(hits) / n, pdf.Mass(region), 0.01);
}

TEST(UniformPdfTest, DensityIsInverseVolume) {
  UniformPdf pdf(UnitSquare());
  EXPECT_DOUBLE_EQ(pdf.Density(Point{0.5, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(pdf.Density(Point{2.0, 2.0}), 0.0);
  UniformPdf pdf2(Rect(Point{0.0, 0.0}, Point{2.0, 2.0}));
  EXPECT_DOUBLE_EQ(pdf2.Density(Point{1.0, 1.0}), 0.25);
}

TEST(UniformPdfTest, ConditionalMedianIsRegionMidpoint) {
  UniformPdf pdf(UnitSquare());
  EXPECT_DOUBLE_EQ(pdf.ConditionalMedian(UnitSquare(), 0), 0.5);
  Rect region(Point{0.0, 0.0}, Point{0.5, 1.0});
  EXPECT_DOUBLE_EQ(pdf.ConditionalMedian(region, 0), 0.25);
}

TEST(UniformPdfTest, CloneIsIndependentCopy) {
  UniformPdf pdf(UnitSquare());
  auto clone = pdf.Clone();
  EXPECT_EQ(clone->bounds(), pdf.bounds());
  EXPECT_DOUBLE_EQ(clone->Mass(UnitSquare()), 1.0);
}

// --------------------------------------------------- TruncatedGaussian

TEST(TruncatedGaussianTest, TotalMassIsOne) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.5, 0.5}, {0.2, 0.2});
  EXPECT_NEAR(pdf.Mass(UnitSquare()), 1.0, 1e-12);
}

TEST(TruncatedGaussianTest, MassConcentratesNearMean) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.5, 0.5}, {0.1, 0.1});
  Rect center(Point{0.4, 0.4}, Point{0.6, 0.6});
  Rect corner(Point{0.0, 0.0}, Point{0.2, 0.2});
  EXPECT_GT(pdf.Mass(center), 0.4);
  EXPECT_LT(pdf.Mass(corner), 0.01);
}

TEST(TruncatedGaussianTest, SymmetricHalvesSplitEvenly) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.5, 0.5}, {0.15, 0.15});
  Rect left(Point{0.0, 0.0}, Point{0.5, 1.0});
  EXPECT_NEAR(pdf.Mass(left), 0.5, 1e-9);
}

TEST(TruncatedGaussianTest, SamplesInsideBoundsAndCentered) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.5, 0.5}, {0.15, 0.15});
  Rng rng(3);
  double sx = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const Point p = pdf.Sample(rng);
    EXPECT_TRUE(pdf.bounds().Contains(p));
    sx += p[0];
  }
  EXPECT_NEAR(sx / n, 0.5, 0.01);
}

TEST(TruncatedGaussianTest, SampleFrequencyMatchesMass) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.4, 0.6}, {0.2, 0.1});
  Rng rng(4);
  Rect region(Point{0.3, 0.5}, Point{0.8, 0.8});
  const double mass = pdf.Mass(region);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += region.Contains(pdf.Sample(rng));
  EXPECT_NEAR(static_cast<double>(hits) / n, mass, 0.01);
}

TEST(TruncatedGaussianTest, ConditionalMedianSplitsMassInHalf) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.3, 0.5}, {0.2, 0.2});
  const double med = pdf.ConditionalMedian(UnitSquare(), 0);
  Rect lower(Point{0.0, 0.0}, Point{med, 1.0});
  EXPECT_NEAR(pdf.Mass(lower), 0.5, 1e-6);
}

TEST(TruncatedGaussianTest, DegenerateSigmaIsPointMass) {
  TruncatedGaussianPdf pdf(Rect(Point{0.0, 0.5}, Point{1.0, 0.5}),
                           {0.5, 0.5}, {0.2, 0.0});
  EXPECT_NEAR(pdf.Mass(pdf.bounds()), 1.0, 1e-12);
  Rng rng(5);
  const Point p = pdf.Sample(rng);
  EXPECT_DOUBLE_EQ(p[1], 0.5);
}

TEST(TruncatedGaussianTest, DensityIntegratesRoughlyToMass) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.5, 0.5}, {0.2, 0.2});
  // Riemann sum over a sub-rectangle.
  Rect region(Point{0.3, 0.3}, Point{0.7, 0.7});
  const int g = 64;
  double sum = 0.0;
  for (int i = 0; i < g; ++i) {
    for (int j = 0; j < g; ++j) {
      Point p{0.3 + 0.4 * (i + 0.5) / g, 0.3 + 0.4 * (j + 0.5) / g};
      sum += pdf.Density(p);
    }
  }
  sum *= (0.4 / g) * (0.4 / g);
  EXPECT_NEAR(sum, pdf.Mass(region), 1e-3);
}

TEST(NormalCdfTest, KnownValues) {
  EXPECT_NEAR(NormalCdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(NormalCdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(NormalCdf(-1.96), 0.025, 1e-3);
}

// ------------------------------------------------------------- Mixture

TEST(MixturePdfTest, BoundsAreHullAndMassIsWeighted) {
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.0}, Point{1.0, 1.0})));
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{2.0, 0.0}, Point{3.0, 1.0})));
  MixturePdf mix(std::move(comps), {1.0, 3.0});
  EXPECT_EQ(mix.bounds(), Rect(Point{0.0, 0.0}, Point{3.0, 1.0}));
  EXPECT_NEAR(mix.Mass(Rect(Point{0.0, 0.0}, Point{1.0, 1.0})), 0.25, 1e-12);
  EXPECT_NEAR(mix.Mass(Rect(Point{2.0, 0.0}, Point{3.0, 1.0})), 0.75, 1e-12);
  EXPECT_NEAR(mix.Mass(mix.bounds()), 1.0, 1e-12);
}

TEST(MixturePdfTest, SampleFrequencyMatchesWeights) {
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.0}, Point{1.0, 1.0})));
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{2.0, 0.0}, Point{3.0, 1.0})));
  MixturePdf mix(std::move(comps), {1.0, 1.0});
  Rng rng(6);
  int left = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) left += mix.Sample(rng)[0] <= 1.0;
  EXPECT_NEAR(static_cast<double>(left) / n, 0.5, 0.02);
}

TEST(MixturePdfTest, ConditionalMedianViaGenericBisection) {
  // Two spatially separated uniform components with weights 1:3 — the
  // median along x must fall in the right-hand component.
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.0}, Point{1.0, 1.0})));
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{2.0, 0.0}, Point{3.0, 1.0})));
  MixturePdf mix(std::move(comps), {1.0, 3.0});
  const double med = mix.ConditionalMedian(mix.bounds(), 0);
  Rect lower(Point{0.0, 0.0}, Point{med, 1.0});
  EXPECT_NEAR(mix.Mass(lower), 0.5, 1e-6);
  EXPECT_GT(med, 2.0);
}

TEST(MixturePdfTest, CloneDeepCopies) {
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.push_back(std::make_unique<UniformPdf>(UnitSquare()));
  MixturePdf mix(std::move(comps), {2.0});
  auto clone = mix.Clone();
  EXPECT_NEAR(clone->Mass(UnitSquare()), 1.0, 1e-12);
}

// ------------------------------------------------------------ Discrete

TEST(DiscreteSamplePdfTest, UniformWeightsByDefault) {
  DiscreteSamplePdf pdf({Point{0.0, 0.0}, Point{1.0, 1.0}});
  EXPECT_DOUBLE_EQ(pdf.weights()[0], 0.5);
  EXPECT_DOUBLE_EQ(pdf.weights()[1], 0.5);
  EXPECT_EQ(pdf.bounds(), UnitSquare());
}

TEST(DiscreteSamplePdfTest, WeightsAreNormalized) {
  DiscreteSamplePdf pdf({Point{0.0, 0.0}, Point{1.0, 1.0}}, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(pdf.weights()[0], 0.25);
  EXPECT_DOUBLE_EQ(pdf.weights()[1], 0.75);
}

TEST(DiscreteSamplePdfTest, MassCountsWeightedSamples) {
  DiscreteSamplePdf pdf(
      {Point{0.1, 0.1}, Point{0.9, 0.9}, Point{0.5, 0.5}});
  Rect left(Point{0.0, 0.0}, Point{0.5, 1.0});
  // Closed regions: the sample at x=0.5 on the boundary is inside.
  EXPECT_NEAR(pdf.Mass(left), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pdf.Mass(pdf.bounds()), 1.0, 1e-12);
}

TEST(DiscreteSamplePdfTest, SplitMassesPartitionExactly) {
  Rng rng(7);
  std::vector<Point> samples;
  for (int i = 0; i < 101; ++i) {
    samples.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  DiscreteSamplePdf pdf(std::move(samples));
  for (double at : {0.25, 0.5, 0.75}) {
    auto [lo, hi] = pdf.bounds().Split(0, at);
    EXPECT_NEAR(pdf.Mass(lo) + pdf.Mass(hi), 1.0, 1e-12) << "at=" << at;
  }
}

TEST(DiscreteSamplePdfTest, ConditionalMedianAvoidsSampleCoordinates) {
  // Splitting at the returned coordinate must never cut through a sample,
  // so the two parts always partition the mass exactly.
  DiscreteSamplePdf pdf({Point{0.0}, Point{0.5}, Point{1.0}});
  const double at = pdf.ConditionalMedian(pdf.bounds(), 0);
  EXPECT_DOUBLE_EQ(at, 0.75);  // between median (0.5) and next (1.0)
  auto [lo, hi] = pdf.bounds().Split(0, at);
  EXPECT_NEAR(pdf.Mass(lo), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pdf.Mass(hi), 1.0 / 3.0, 1e-12);
}

TEST(DiscreteSamplePdfTest, ShrinkToSupportClipsToSamples) {
  DiscreteSamplePdf pdf({Point{0.2, 0.3}, Point{0.4, 0.8}, Point{0.9, 0.5}});
  Rect left(Point{0.0, 0.0}, Point{0.5, 1.0});
  pdf.ShrinkToSupport(left);
  EXPECT_EQ(left, Rect(Point{0.2, 0.3}, Point{0.4, 0.8}));
  // Empty region: stays as it is.
  const Rect empty(Point{0.6, 0.0}, Point{0.7, 0.1});
  Rect shrunk = empty;
  pdf.ShrinkToSupport(shrunk);
  EXPECT_EQ(shrunk, empty);
  // A single sample inside shrinks to its point.
  Rect right(Point{0.5, 0.0}, Point{1.0, 1.0});
  pdf.ShrinkToSupport(right);
  EXPECT_EQ(right, Rect::FromPoint(Point{0.9, 0.5}));
}

TEST(UniformPdfTest, ShrinkToSupportKeepsRegion) {
  UniformPdf pdf(Rect(Point{0.0, 0.0}, Point{1.0, 1.0}));
  const Rect part(Point{0.25, 0.0}, Point{2.0, 0.5});
  Rect shrunk = part;
  pdf.ShrinkToSupport(shrunk);
  EXPECT_EQ(shrunk, part);
}

TEST(DiscreteSamplePdfTest, SampleDrawsFromTheCloud) {
  DiscreteSamplePdf pdf({Point{0.0, 0.0}, Point{1.0, 1.0}}, {1.0, 9.0});
  Rng rng(8);
  int heavy = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) heavy += pdf.Sample(rng)[0] == 1.0;
  EXPECT_NEAR(static_cast<double>(heavy) / n, 0.9, 0.01);
}

TEST(DiscreteSamplePdfTest, ConditionalMedianIsBetweenMedianAndNext) {
  DiscreteSamplePdf pdf({Point{0.0}, Point{0.2}, Point{0.8}},
                        {1.0, 1.0, 2.0});
  // Cumulative weights: 0.25, 0.5, 1.0 -> median coordinate 0.2, next
  // distinct coordinate 0.8 -> split point 0.5.
  EXPECT_DOUBLE_EQ(pdf.ConditionalMedian(pdf.bounds(), 0), 0.5);
}

TEST(DiscreteSamplePdfTest, DensityIsZero) {
  DiscreteSamplePdf pdf({Point{0.0}});
  EXPECT_DOUBLE_EQ(pdf.Density(Point{0.0}), 0.0);
}

TEST(DiscreteSamplePdfTest, SinglePointObject) {
  DiscreteSamplePdf pdf({Point{0.3, 0.7}});
  EXPECT_TRUE(pdf.bounds().Volume() == 0.0);
  EXPECT_NEAR(pdf.Mass(pdf.bounds()), 1.0, 1e-12);
  Rng rng(9);
  EXPECT_EQ(pdf.Sample(rng), (Point{0.3, 0.7}));
}

// Property sweep: for every PDF model, Mass of a random split partition
// sums to the parent mass.
class PdfMassAdditivityTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Pdf> MakePdf(Rng& rng) {
    switch (GetParam()) {
      case 0:
        return std::make_unique<UniformPdf>(UnitSquare());
      case 1:
        return std::make_unique<TruncatedGaussianPdf>(
            UnitSquare(), std::vector<double>{0.4, 0.6},
            std::vector<double>{0.2, 0.3});
      case 2: {
        std::vector<Point> samples;
        for (int i = 0; i < 37; ++i) {
          samples.push_back(Point{rng.NextDouble(), rng.NextDouble()});
        }
        return std::make_unique<DiscreteSamplePdf>(std::move(samples));
      }
      default: {
        std::vector<std::unique_ptr<Pdf>> comps;
        comps.push_back(std::make_unique<UniformPdf>(
            Rect(Point{0.0, 0.0}, Point{0.5, 1.0})));
        comps.push_back(std::make_unique<TruncatedGaussianPdf>(
            Rect(Point{0.5, 0.0}, Point{1.0, 1.0}),
            std::vector<double>{0.75, 0.5}, std::vector<double>{0.1, 0.2}));
        return std::make_unique<MixturePdf>(std::move(comps),
                                            std::vector<double>{1.0, 2.0});
      }
    }
  }
};

TEST_P(PdfMassAdditivityTest, NestedSplitsPartitionMass) {
  Rng rng(100 + GetParam());
  auto pdf = MakePdf(rng);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t axis = rng.NextBounded(2);
    const Interval side = pdf->bounds().side(axis);
    if (side.degenerate()) continue;
    const double at = rng.Uniform(side.lo(), side.hi());
    if (at <= side.lo() || at >= side.hi()) continue;
    auto [lo, hi] = pdf->bounds().Split(axis, at);
    EXPECT_NEAR(pdf->Mass(lo) + pdf->Mass(hi), pdf->Mass(pdf->bounds()),
                1e-9);
    // Second-level split of the lower part.
    const size_t axis2 = 1 - axis;
    const Interval side2 = lo.side(axis2);
    if (!side2.degenerate()) {
      const double at2 = rng.Uniform(side2.lo(), side2.hi());
      if (at2 > side2.lo() && at2 < side2.hi()) {
        auto [a, b] = lo.Split(axis2, at2);
        EXPECT_NEAR(pdf->Mass(a) + pdf->Mass(b), pdf->Mass(lo), 1e-9);
      }
    }
  }
}

TEST_P(PdfMassAdditivityTest, MedianSplitsMassInHalfForContinuous) {
  if (GetParam() == 2) GTEST_SKIP() << "discrete medians land on samples";
  Rng rng(200 + GetParam());
  auto pdf = MakePdf(rng);
  for (size_t axis = 0; axis < 2; ++axis) {
    const double med = pdf->ConditionalMedian(pdf->bounds(), axis);
    auto [lo, hi] = pdf->bounds().Split(axis, med);
    EXPECT_NEAR(pdf->Mass(lo), 0.5, 1e-6) << "axis=" << axis;
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, PdfMassAdditivityTest,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace updb
