// Stress and algebraic-property tests for the generating-function layer:
// order invariance, numerical stability at large factor counts, and
// consistency between all three bound constructions.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/random.h"
#include "gf/poisson_binomial.h"
#include "gf/ugf_batch.h"
#include "single_lane_ugf.h"

namespace updb {
namespace {

using test_util::Multiply;
using test_util::ProbLessThan;
using test_util::SingleLaneUgf;

struct Bracket {
  double lb, ub;
};

std::vector<Bracket> RandomBrackets(size_t n, Rng& rng) {
  std::vector<Bracket> out(n);
  for (auto& b : out) {
    b.lb = rng.NextDouble();
    b.ub = b.lb + (1.0 - b.lb) * rng.NextDouble();
  }
  return out;
}

TEST(UgfStressTest, FactorOrderDoesNotMatter) {
  Rng rng(211);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + rng.NextBounded(10);
    auto brackets = RandomBrackets(n, rng);
    UgfBatch forward = SingleLaneUgf();
    for (const auto& b : brackets) Multiply(forward, b.lb, b.ub);
    rng.Shuffle(brackets);
    UgfBatch shuffled = SingleLaneUgf();
    for (const auto& b : brackets) Multiply(shuffled, b.lb, b.ub);
    const CountDistributionBounds a = forward.Bounds(0);
    const CountDistributionBounds c = shuffled.Bounds(0);
    for (size_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(a.lb(k), c.lb(k), 1e-12);
      EXPECT_NEAR(a.ub(k), c.ub(k), 1e-12);
    }
  }
}

TEST(UgfStressTest, ManyFactorsRemainNormalized) {
  Rng rng(223);
  UgfBatch ugf = SingleLaneUgf();
  const size_t n = 300;
  for (size_t i = 0; i < n; ++i) {
    const double lb = rng.NextDouble() * 0.3;
    Multiply(ugf, lb, lb + 0.1);
  }
  double total = 0.0;
  for (size_t i = 0; i <= n; ++i) {
    for (size_t j = 0; i + j <= n; ++j) total += ugf.Coefficient(0, i, j);
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
  const CountDistributionBounds b = ugf.Bounds(0);
  double lb_sum = 0.0;
  for (size_t k = 0; k <= n; ++k) lb_sum += b.lb(k);
  EXPECT_LE(lb_sum, 1.0 + 1e-6);
}

TEST(UgfStressTest, TruncatedOrderInvariance) {
  Rng rng(227);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 5 + rng.NextBounded(20);
    const size_t k = 1 + rng.NextBounded(6);
    auto brackets = RandomBrackets(n, rng);
    UgfBatch a = SingleLaneUgf(k);
    for (const auto& b : brackets) Multiply(a, b.lb, b.ub);
    rng.Shuffle(brackets);
    UgfBatch c = SingleLaneUgf(k);
    for (const auto& b : brackets) Multiply(c, b.lb, b.ub);
    const ProbabilityBounds pa = ProbLessThan(a, k);
    const ProbabilityBounds pc = ProbLessThan(c, k);
    EXPECT_NEAR(pa.lb, pc.lb, 1e-12);
    EXPECT_NEAR(pa.ub, pc.ub, 1e-12);
    EXPECT_NEAR(a.OverflowMass(0), c.OverflowMass(0), 1e-12);
  }
}

TEST(UgfStressTest, MonotoneInK) {
  // P(Count < k) bounds are monotonically non-decreasing in k.
  Rng rng(229);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 3 + rng.NextBounded(12);
    const auto brackets = RandomBrackets(n, rng);
    UgfBatch ugf = SingleLaneUgf();
    for (const auto& b : brackets) Multiply(ugf, b.lb, b.ub);
    ProbabilityBounds prev{0.0, 0.0};
    for (size_t m = 0; m <= n + 1; ++m) {
      const ProbabilityBounds p = ProbLessThan(ugf, m);
      EXPECT_GE(p.lb, prev.lb - 1e-12) << "m=" << m;
      EXPECT_GE(p.ub, prev.ub - 1e-12) << "m=" << m;
      prev = p;
    }
    EXPECT_NEAR(prev.lb, 1.0, 1e-9);
  }
}

TEST(UgfStressTest, AllThreeConstructionsNest) {
  // For any instance: UGF bounds ⊆ regular-GF-pair bounds, and both
  // bracket any consistent exact Poisson binomial.
  Rng rng(233);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.NextBounded(12);
    const auto brackets = RandomBrackets(n, rng);
    std::vector<double> lbs(n), ubs(n), truth(n);
    UgfBatch ugf = SingleLaneUgf();
    for (size_t i = 0; i < n; ++i) {
      lbs[i] = brackets[i].lb;
      ubs[i] = brackets[i].ub;
      truth[i] = lbs[i] + (ubs[i] - lbs[i]) * rng.NextDouble();
      Multiply(ugf, lbs[i], ubs[i]);
    }
    const CountDistributionBounds u = ugf.Bounds(0);
    const CountDistributionBounds pair = RegularGfPairBounds(lbs, ubs);
    const std::vector<double> pdf = PoissonBinomialPdf(truth);
    EXPECT_TRUE(u.Brackets(pdf, 1e-9));
    EXPECT_TRUE(pair.Brackets(pdf, 1e-9));
    for (size_t k = 0; k <= n; ++k) {
      EXPECT_GE(u.lb(k), pair.lb(k) - 1e-9);
      EXPECT_LE(u.ub(k), pair.ub(k) + 1e-9);
    }
  }
}

TEST(PoissonBinomialStressTest, LargeInputStaysNormalized) {
  Rng rng(239);
  std::vector<double> probs(2000);
  for (double& p : probs) p = rng.NextDouble();
  const std::vector<double> pdf = PoissonBinomialPdf(probs);
  double total = 0.0;
  for (double v : pdf) {
    EXPECT_GE(v, -1e-12);
    total += v;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST(PoissonBinomialStressTest, PrefixConsistentAcrossK) {
  Rng rng(241);
  std::vector<double> probs(64);
  for (double& p : probs) p = rng.NextDouble();
  const std::vector<double> full = PoissonBinomialPdf(probs);
  for (size_t k = 1; k <= 64; k += 7) {
    const std::vector<double> prefix = PoissonBinomialPrefix(probs, k);
    double tail = 0.0;
    for (size_t x = 0; x < full.size(); ++x) {
      if (x < k) {
        EXPECT_NEAR(prefix[x], full[x], 1e-12);
      } else {
        tail += full[x];
      }
    }
    EXPECT_NEAR(prefix[k], tail, 1e-12);
  }
}

TEST(UgfEdgeTest, ZeroWidthAtBoundaries) {
  // Brackets exactly at {0,0} and {1,1} interleaved with unknowns.
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 0.0, 0.0);
  Multiply(ugf, 1.0, 1.0);
  Multiply(ugf, 0.0, 1.0);
  Multiply(ugf, 1.0, 1.0);
  const CountDistributionBounds b = ugf.Bounds(0);
  // Two definite + one unknown: count in {2, 3}.
  EXPECT_DOUBLE_EQ(b.ub(0), 0.0);
  EXPECT_DOUBLE_EQ(b.ub(1), 0.0);
  EXPECT_DOUBLE_EQ(b.lb(2), 0.0);
  EXPECT_DOUBLE_EQ(b.ub(2), 1.0);
  EXPECT_DOUBLE_EQ(b.ub(3), 1.0);
  EXPECT_DOUBLE_EQ(b.ub(4), 0.0);
  const ProbabilityBounds lt3 = ProbLessThan(ugf, 3);
  EXPECT_DOUBLE_EQ(lt3.lb, 0.0);
  EXPECT_DOUBLE_EQ(lt3.ub, 1.0);
  const ProbabilityBounds lt2 = ProbLessThan(ugf, 2);
  EXPECT_DOUBLE_EQ(lt2.ub, 0.0);
}

TEST(CountBoundsEdgeTest, SingleRankDistribution) {
  CountDistributionBounds b = CountDistributionBounds::Exact({1.0});
  EXPECT_DOUBLE_EQ(b.ProbLessThan(1).lb, 1.0);
  EXPECT_DOUBLE_EQ(b.ProbLessThan(0).ub, 0.0);
  const ProbabilityBounds er = b.ExpectedRank();
  EXPECT_DOUBLE_EQ(er.lb, 1.0);
  EXPECT_DOUBLE_EQ(er.ub, 1.0);
}

}  // namespace
}  // namespace updb
