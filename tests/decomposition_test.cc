#include "uncertain/decomposition.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/random.h"

namespace updb {
namespace {

Rect UnitSquare() { return Rect(Point{0.0, 0.0}, Point{1.0, 1.0}); }

double FrontierMass(const DecompositionTree& tree) {
  double m = 0.0;
  for (double mass : tree.masses()) m += mass;
  return m;
}

TEST(DecompositionTest, RootIsWholeObject) {
  UniformPdf pdf(UnitSquare());
  DecompositionTree tree(&pdf);
  ASSERT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.region(0), pdf.bounds());
  EXPECT_DOUBLE_EQ(tree.masses()[0], 1.0);
  EXPECT_EQ(tree.depth(), 0);
}

TEST(DecompositionTest, UniformMedianSplitHalvesMass) {
  UniformPdf pdf(UnitSquare());
  DecompositionTree tree(&pdf);
  EXPECT_EQ(tree.Deepen(), 1u);
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_DOUBLE_EQ(tree.masses()[0], 0.5);
  EXPECT_DOUBLE_EQ(tree.masses()[1], 0.5);
  EXPECT_EQ(tree.depth(), 1);
}

TEST(DecompositionTest, MassPerLevelIsTwoToMinusLevel) {
  // The Section V property: with median splits each level-h node carries
  // mass 0.5^h.
  UniformPdf pdf(UnitSquare());
  DecompositionTree tree(&pdf);
  for (int h = 1; h <= 5; ++h) {
    tree.Deepen();
    ASSERT_EQ(tree.size(), size_t{1} << h);
    for (double mass : tree.masses()) {
      EXPECT_NEAR(mass, std::pow(0.5, h), 1e-12);
    }
  }
}

TEST(DecompositionTest, RoundRobinAlternatesAxes) {
  UniformPdf pdf(UnitSquare());
  DecompositionTree tree(&pdf);
  tree.Deepen();  // splits axis 0
  for (size_t i = 0; i < tree.size(); ++i) {
    EXPECT_DOUBLE_EQ(tree.box(i)[0].length(), 0.5);
    EXPECT_DOUBLE_EQ(tree.box(i)[1].length(), 1.0);
  }
  tree.Deepen();  // splits axis 1
  for (size_t i = 0; i < tree.size(); ++i) {
    EXPECT_DOUBLE_EQ(tree.box(i)[0].length(), 0.5);
    EXPECT_DOUBLE_EQ(tree.box(i)[1].length(), 0.5);
  }
}

TEST(DecompositionTest, SplitAxisFollowsLevelNotSideLength) {
  // The axis is level % d, whichever side is longest.
  UniformPdf pdf(Rect(Point{0.0, 0.0}, Point{1.0, 4.0}));
  DecompositionTree tree(&pdf);
  tree.Deepen();
  for (size_t i = 0; i < tree.size(); ++i) {
    EXPECT_DOUBLE_EQ(tree.box(i)[0].length(), 0.5);
    EXPECT_DOUBLE_EQ(tree.box(i)[1].length(), 4.0);
  }
}

TEST(DecompositionTest, FrontierRegionsAreDisjointAndCover) {
  UniformPdf pdf(UnitSquare());
  DecompositionTree tree(&pdf);
  tree.DeepenTo(4);
  double volume = 0.0;
  for (size_t i = 0; i < tree.size(); ++i) {
    volume += tree.region(i).Volume();
    for (size_t j = i + 1; j < tree.size(); ++j) {
      // Regions may touch at boundaries but not overlap with volume.
      Rect a = tree.region(i);
      Rect b = tree.region(j);
      if (a.Intersects(b)) {
        double overlap = 1.0;
        for (size_t d = 0; d < 2; ++d) {
          overlap *= std::max(
              0.0, std::min(a.side(d).hi(), b.side(d).hi()) -
                       std::max(a.side(d).lo(), b.side(d).lo()));
        }
        EXPECT_NEAR(overlap, 0.0, 1e-12);
      }
    }
  }
  EXPECT_NEAR(volume, 1.0, 1e-12);
}

TEST(DecompositionTest, MassesAlwaysSumToOne) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.4, 0.6}, {0.25, 0.15});
  DecompositionTree tree(&pdf);
  for (int h = 0; h < 6; ++h) {
    EXPECT_NEAR(FrontierMass(tree), 1.0, 1e-9) << "depth=" << h;
    tree.Deepen();
  }
}

TEST(DecompositionTest, GaussianMedianSplitsHalveMass) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.3, 0.7}, {0.2, 0.2});
  DecompositionTree tree(&pdf);
  tree.Deepen();
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_NEAR(tree.masses()[0], 0.5, 1e-6);
  EXPECT_NEAR(tree.masses()[1], 0.5, 1e-6);
}

TEST(DecompositionTest, PointObjectIsTerminal) {
  DiscreteSamplePdf pdf({Point{0.5, 0.5}});
  DecompositionTree tree(&pdf);
  EXPECT_EQ(tree.Deepen(), 0u);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.depth(), 0);
  // Further calls remain no-ops.
  EXPECT_EQ(tree.Deepen(), 0u);
}

TEST(DecompositionTest, DiscreteMassesPartitionSamples) {
  Rng rng(55);
  std::vector<Point> samples;
  for (int i = 0; i < 64; ++i) {
    samples.push_back(Point{rng.NextDouble(), rng.NextDouble()});
  }
  DiscreteSamplePdf pdf(std::move(samples));
  DecompositionTree tree(&pdf);
  for (int h = 1; h <= 5; ++h) {
    tree.Deepen();
    EXPECT_NEAR(FrontierMass(tree), 1.0, 1e-9) << "depth=" << h;
    for (double mass : tree.masses()) EXPECT_GT(mass, 0.0);
  }
}

TEST(DecompositionTest, DiscreteDuplicateSamplesTerminate) {
  // All samples identical: no split can make progress.
  std::vector<Point> samples(10, Point{0.25, 0.75});
  DiscreteSamplePdf pdf(std::move(samples));
  DecompositionTree tree(&pdf);
  EXPECT_EQ(tree.Deepen(), 0u);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_DOUBLE_EQ(tree.masses()[0], 1.0);
}

TEST(DecompositionTest, DiscreteSkewedDuplicatesStillSplit) {
  // Median coincides with the minimum; the midpoint fallback must split.
  std::vector<Point> samples;
  for (int i = 0; i < 8; ++i) samples.push_back(Point{0.0});
  samples.push_back(Point{1.0});
  DiscreteSamplePdf pdf(std::move(samples));
  DecompositionTree tree(&pdf);
  EXPECT_EQ(tree.Deepen(), 1u);
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_NEAR(tree.masses()[0] + tree.masses()[1], 1.0, 1e-12);
  EXPECT_NEAR(tree.masses()[0], 8.0 / 9.0, 1e-12);
}

TEST(DecompositionTest, DeepenToStopsWhenExhausted) {
  DiscreteSamplePdf pdf({Point{0.0}, Point{1.0}});
  DecompositionTree tree(&pdf);
  tree.DeepenTo(10);
  // Two distinct points: after one split both children are single points.
  EXPECT_EQ(tree.size(), 2u);
  EXPECT_LE(tree.depth(), 2);
}

TEST(DecompositionTest, DegenerateUniformSlabSplitsOtherAxis) {
  // Zero extent on axis 0; round-robin must skip to axis 1.
  UniformPdf pdf(Rect(Point{0.5, 0.0}, Point{0.5, 1.0}));
  DecompositionTree tree(&pdf);
  EXPECT_EQ(tree.Deepen(), 1u);
  ASSERT_EQ(tree.size(), 2u);
  EXPECT_DOUBLE_EQ(tree.box(0)[1].length(), 0.5);
}

TEST(DecompositionTest, FlatFrontierLaysChildrenOutAfterTheirParent) {
  TruncatedGaussianPdf pdf(UnitSquare(), {0.4, 0.6}, {0.25, 0.15});
  DecompositionTree tree(&pdf);
  for (int h = 1; h <= 4; ++h) {
    const std::vector<Partition> before = tree.Partitions();
    tree.Deepen();
    const std::vector<uint32_t>& off = tree.child_offsets();
    ASSERT_EQ(off.size(), before.size() + 1);
    ASSERT_EQ(off.back(), tree.size());
    for (size_t o = 0; o < before.size(); ++o) {
      for (uint32_t c = off[o]; c < off[o + 1]; ++c) {
        EXPECT_TRUE(before[o].region.Contains(tree.region(c)));
      }
    }
    const std::vector<Partition> after = tree.Partitions();
    for (size_t i = 0; i < tree.size(); ++i) {
      // One contiguous array: node i's sides start i * dim() in.
      EXPECT_EQ(tree.box(i).data(), tree.box(0).data() + i * tree.dim());
      EXPECT_EQ(after[i].region, tree.region(i));
      EXPECT_EQ(after[i].mass, tree.masses()[i]);
    }
  }
}

TEST(DecompositionTest, NodeCountGrows) {
  UniformPdf pdf(UnitSquare());
  DecompositionTree tree(&pdf);
  EXPECT_EQ(tree.node_count(), 1u);
  tree.Deepen();
  EXPECT_EQ(tree.node_count(), 3u);
  tree.Deepen();
  EXPECT_EQ(tree.node_count(), 7u);
}

TEST(DecompositionTest, MixtureDecomposesWithMassConservation) {
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.0}, Point{0.3, 1.0})));
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.7, 0.0}, Point{1.0, 1.0})));
  MixturePdf mix(std::move(comps), {1.0, 1.0});
  DecompositionTree tree(&mix);
  tree.DeepenTo(4);
  EXPECT_NEAR(FrontierMass(tree), 1.0, 1e-9);
  EXPECT_GT(tree.size(), 8u);
}

}  // namespace
}  // namespace updb
