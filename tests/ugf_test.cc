// Algebra of the uncertain generating function (Section IV-C) on one
// UgfBatch lane: the paper's worked example, brackets around consistent
// truths, tightness against the regular-GF pair, the truncated mode
// (Section VI) and the degenerate-factor fast paths.

#include <gtest/gtest.h>

#include "common/random.h"
#include "gf/poisson_binomial.h"
#include "gf/ugf_batch.h"
#include "single_lane_ugf.h"

namespace updb {
namespace {

using test_util::Multiply;
using test_util::ProbLessThan;
using test_util::SingleLaneUgf;

TEST(UgfTest, EmptyFunctionIsUnit) {
  UgfBatch ugf = SingleLaneUgf();
  EXPECT_EQ(ugf.num_factors(), 0u);
  EXPECT_DOUBLE_EQ(ugf.Coefficient(0, 0, 0), 1.0);
  const CountDistributionBounds b = ugf.Bounds(0);
  ASSERT_EQ(b.num_ranks(), 1u);
  EXPECT_DOUBLE_EQ(b.lb(0), 1.0);
  EXPECT_DOUBLE_EQ(b.ub(0), 1.0);
}

TEST(UgfTest, PaperExample3Coefficients) {
  // Example 3: PLB = (0.2, 0.6), PUB = (0.5, 0.8).
  // F2 = 0.12 x^2 + 0.34 x + 0.1 + 0.22 xy + 0.16 y + 0.06 y^2.
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 0.2, 0.5);
  Multiply(ugf, 0.6, 0.8);
  EXPECT_NEAR(ugf.Coefficient(0, 2, 0), 0.12, 1e-12);
  EXPECT_NEAR(ugf.Coefficient(0, 1, 0), 0.34, 1e-12);
  EXPECT_NEAR(ugf.Coefficient(0, 0, 0), 0.10, 1e-12);
  EXPECT_NEAR(ugf.Coefficient(0, 1, 1), 0.22, 1e-12);
  EXPECT_NEAR(ugf.Coefficient(0, 0, 1), 0.16, 1e-12);
  EXPECT_NEAR(ugf.Coefficient(0, 0, 2), 0.06, 1e-12);
}

TEST(UgfTest, PaperExample3Bounds) {
  // The bounds the paper derives: P(=2) in [12%, 40%], P(=1) in
  // [34%, 78%], P(=0) in [10%, 32%].
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 0.2, 0.5);
  Multiply(ugf, 0.6, 0.8);
  const CountDistributionBounds b = ugf.Bounds(0);
  ASSERT_EQ(b.num_ranks(), 3u);
  EXPECT_NEAR(b.lb(2), 0.12, 1e-12);
  EXPECT_NEAR(b.ub(2), 0.40, 1e-12);
  EXPECT_NEAR(b.lb(1), 0.34, 1e-12);
  EXPECT_NEAR(b.ub(1), 0.78, 1e-12);
  EXPECT_NEAR(b.lb(0), 0.10, 1e-12);
  EXPECT_NEAR(b.ub(0), 0.32, 1e-12);
}

TEST(UgfTest, DegenerateBracketsMatchPoissonBinomial) {
  Rng rng(47);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 1 + rng.NextBounded(10);
    std::vector<double> probs(n);
    UgfBatch ugf = SingleLaneUgf();
    for (double& p : probs) {
      p = rng.NextDouble();
      Multiply(ugf, p, p);
    }
    const std::vector<double> pdf = PoissonBinomialPdf(probs);
    const CountDistributionBounds b = ugf.Bounds(0);
    ASSERT_EQ(b.num_ranks(), pdf.size());
    for (size_t k = 0; k < pdf.size(); ++k) {
      EXPECT_NEAR(b.lb(k), pdf[k], 1e-12);
      EXPECT_NEAR(b.ub(k), pdf[k], 1e-12);
    }
  }
}

TEST(UgfTest, DefiniteFactorsShiftTheDistribution) {
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 1.0, 1.0);  // definite dominator
  Multiply(ugf, 1.0, 1.0);
  Multiply(ugf, 0.0, 0.0);  // definite non-dominator
  const CountDistributionBounds b = ugf.Bounds(0);
  ASSERT_EQ(b.num_ranks(), 4u);
  EXPECT_DOUBLE_EQ(b.lb(2), 1.0);
  EXPECT_DOUBLE_EQ(b.ub(2), 1.0);
  EXPECT_DOUBLE_EQ(b.ub(0), 0.0);
  EXPECT_DOUBLE_EQ(b.ub(3), 0.0);
}

TEST(UgfTest, TotallyUnknownFactorsGiveVacuousBounds) {
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 0.0, 1.0);
  Multiply(ugf, 0.0, 1.0);
  const CountDistributionBounds b = ugf.Bounds(0);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(b.lb(k), 0.0);
    EXPECT_DOUBLE_EQ(b.ub(k), 1.0);
  }
}

TEST(UgfTest, BoundsBracketAnyConsistentTruth) {
  Rng rng(53);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.NextBounded(8);
    std::vector<double> truth(n);
    UgfBatch ugf = SingleLaneUgf();
    for (size_t i = 0; i < n; ++i) {
      const double lb = rng.NextDouble();
      const double ub = lb + (1.0 - lb) * rng.NextDouble();
      truth[i] = lb + (ub - lb) * rng.NextDouble();
      Multiply(ugf, lb, ub);
    }
    const std::vector<double> pdf = PoissonBinomialPdf(truth);
    EXPECT_TRUE(ugf.Bounds(0).Brackets(pdf, 1e-9)) << "trial=" << trial;
  }
}

TEST(UgfTest, TighterInputBracketsGiveTighterBounds) {
  // Shrinking every factor's bracket must not loosen any rank bound.
  Rng rng(59);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 1 + rng.NextBounded(6);
    UgfBatch loose = SingleLaneUgf();
    UgfBatch tight = SingleLaneUgf();
    for (size_t i = 0; i < n; ++i) {
      const double lb = rng.NextDouble() * 0.5;
      const double ub = 0.5 + rng.NextDouble() * 0.5;
      const double mid = 0.5 * (lb + ub);
      Multiply(loose, lb, ub);
      Multiply(tight, 0.5 * (lb + mid), 0.5 * (ub + mid));
    }
    const CountDistributionBounds lb_bounds = loose.Bounds(0);
    const CountDistributionBounds tb = tight.Bounds(0);
    for (size_t k = 0; k <= n; ++k) {
      EXPECT_GE(tb.lb(k), lb_bounds.lb(k) - 1e-12);
      EXPECT_LE(tb.ub(k), lb_bounds.ub(k) + 1e-12);
    }
  }
}

TEST(UgfTest, UgfAtLeastAsTightAsRegularGfPair) {
  // The technical-report claim: the UGF bounds are never looser than the
  // two-regular-generating-functions construction.
  Rng rng(61);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.NextBounded(8);
    std::vector<double> lbs(n), ubs(n);
    UgfBatch ugf = SingleLaneUgf();
    for (size_t i = 0; i < n; ++i) {
      lbs[i] = rng.NextDouble();
      ubs[i] = lbs[i] + (1.0 - lbs[i]) * rng.NextDouble();
      Multiply(ugf, lbs[i], ubs[i]);
    }
    const CountDistributionBounds u = ugf.Bounds(0);
    const CountDistributionBounds pair = RegularGfPairBounds(lbs, ubs);
    for (size_t k = 0; k <= n; ++k) {
      EXPECT_GE(u.lb(k), pair.lb(k) - 1e-9) << "k=" << k;
      EXPECT_LE(u.ub(k), pair.ub(k) + 1e-9) << "k=" << k;
    }
  }
}

TEST(UgfTest, CoefficientMassSumsToOne) {
  Rng rng(67);
  UgfBatch ugf = SingleLaneUgf();
  for (int i = 0; i < 10; ++i) {
    const double lb = rng.NextDouble() * 0.6;
    Multiply(ugf, lb, lb + 0.3);
  }
  double total = 0.0;
  for (size_t i = 0; i <= 10; ++i) {
    for (size_t j = 0; j + i <= 10; ++j) total += ugf.Coefficient(0, i, j);
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

// ------------------------------------------------------ truncated mode

TEST(TruncatedUgfTest, MatchesFullOnRanksBelowK) {
  Rng rng(71);
  for (size_t k : {size_t{1}, size_t{2}, size_t{5}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const size_t n = 1 + rng.NextBounded(12);
      UgfBatch full = SingleLaneUgf();
      UgfBatch trunc = SingleLaneUgf(k);
      for (size_t i = 0; i < n; ++i) {
        const double lb = rng.NextDouble();
        const double ub = lb + (1.0 - lb) * rng.NextDouble();
        Multiply(full, lb, ub);
        Multiply(trunc, lb, ub);
      }
      const CountDistributionBounds fb = full.Bounds(0);
      const CountDistributionBounds tb = trunc.Bounds(0);
      ASSERT_EQ(tb.num_ranks(), std::min(k, n + 1));
      for (size_t x = 0; x < tb.num_ranks(); ++x) {
        EXPECT_NEAR(tb.lb(x), fb.lb(x), 1e-12) << "k=" << k << " x=" << x;
        EXPECT_NEAR(tb.ub(x), fb.ub(x), 1e-12) << "k=" << k << " x=" << x;
      }
    }
  }
}

TEST(TruncatedUgfTest, ProbLessThanMatchesFull) {
  Rng rng(73);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextBounded(12);
    const size_t k = 1 + rng.NextBounded(6);
    UgfBatch full = SingleLaneUgf();
    UgfBatch trunc = SingleLaneUgf(k);
    for (size_t i = 0; i < n; ++i) {
      const double lb = rng.NextDouble();
      const double ub = lb + (1.0 - lb) * rng.NextDouble();
      Multiply(full, lb, ub);
      Multiply(trunc, lb, ub);
    }
    for (size_t m = 0; m <= k; ++m) {
      const ProbabilityBounds pf = ProbLessThan(full, m);
      const ProbabilityBounds pt = ProbLessThan(trunc, m);
      EXPECT_NEAR(pt.lb, pf.lb, 1e-12) << "m=" << m;
      EXPECT_NEAR(pt.ub, pf.ub, 1e-12) << "m=" << m;
    }
  }
}

TEST(TruncatedUgfTest, OverflowAccountsForHighCounts) {
  UgfBatch trunc = SingleLaneUgf(2);
  Multiply(trunc, 1.0, 1.0);
  Multiply(trunc, 1.0, 1.0);
  Multiply(trunc, 1.0, 1.0);
  EXPECT_NEAR(trunc.OverflowMass(0), 1.0, 1e-12);
  const ProbabilityBounds p = ProbLessThan(trunc, 2);
  EXPECT_DOUBLE_EQ(p.lb, 0.0);
  EXPECT_DOUBLE_EQ(p.ub, 0.0);
}

TEST(TruncatedUgfTest, ProbLessThanBracketsTruth) {
  Rng rng(79);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 1 + rng.NextBounded(10);
    const size_t k = 1 + rng.NextBounded(5);
    std::vector<double> truth(n);
    UgfBatch trunc = SingleLaneUgf(k);
    for (size_t i = 0; i < n; ++i) {
      const double lb = rng.NextDouble();
      const double ub = lb + (1.0 - lb) * rng.NextDouble();
      truth[i] = lb + (ub - lb) * rng.NextDouble();
      Multiply(trunc, lb, ub);
    }
    const std::vector<double> pdf = PoissonBinomialPdf(truth);
    double p_true = 0.0;
    for (size_t x = 0; x < std::min(k, pdf.size()); ++x) p_true += pdf[x];
    const ProbabilityBounds p = ProbLessThan(trunc, k);
    EXPECT_GE(p_true, p.lb - 1e-9);
    EXPECT_LE(p_true, p.ub + 1e-9);
  }
}

// ------------------------------------- degenerate-factor fast paths

/// Total coefficient mass materialized by a k-truncated UGF.
double TruncatedMass(const UgfBatch& ugf, size_t k) {
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    for (size_t j = 0; j <= k - i; ++j) total += ugf.Coefficient(0, i, j);
  }
  return total;
}

TEST(UgfFastPathTest, ZeroFactorOnlyExtendsTheRankRange) {
  // A (0,0) factor multiplies by exactly 1: coefficients stay put, the
  // count gains one more (impossible) rank.
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 0.2, 0.5);
  Multiply(ugf, 0.0, 0.0);
  Multiply(ugf, 0.6, 0.8);
  EXPECT_EQ(ugf.num_factors(), 3u);
  const CountDistributionBounds b = ugf.Bounds(0);
  ASSERT_EQ(b.num_ranks(), 4u);
  // Example 3 values are unchanged; rank 3 is impossible.
  EXPECT_NEAR(ugf.Coefficient(0, 2, 0), 0.12, 1e-12);
  EXPECT_NEAR(ugf.Coefficient(0, 1, 1), 0.22, 1e-12);
  EXPECT_DOUBLE_EQ(b.lb(3), 0.0);
  EXPECT_DOUBLE_EQ(b.ub(3), 0.0);
  EXPECT_NEAR(b.lb(1), 0.34, 1e-12);
  EXPECT_NEAR(b.ub(1), 0.78, 1e-12);
}

TEST(UgfFastPathTest, OneFactorShiftsEveryRank) {
  // A (1,1) factor shifts the whole distribution up one rank, whatever
  // its position in the factor sequence.
  UgfBatch shifted = SingleLaneUgf();
    UgfBatch plain = SingleLaneUgf();
  Multiply(shifted, 0.2, 0.5);
  Multiply(shifted, 1.0, 1.0);
  Multiply(shifted, 0.6, 0.8);
  Multiply(plain, 0.2, 0.5);
  Multiply(plain, 0.6, 0.8);
  EXPECT_EQ(shifted.num_factors(), 3u);
  const CountDistributionBounds bs = shifted.Bounds(0);
  const CountDistributionBounds bp = plain.Bounds(0);
  ASSERT_EQ(bs.num_ranks(), 4u);
  EXPECT_DOUBLE_EQ(bs.lb(0), 0.0);
  EXPECT_DOUBLE_EQ(bs.ub(0), 0.0);
  for (size_t x = 0; x < bp.num_ranks(); ++x) {
    EXPECT_EQ(bs.lb(x + 1), bp.lb(x)) << "x=" << x;
    EXPECT_EQ(bs.ub(x + 1), bp.ub(x)) << "x=" << x;
  }
  EXPECT_EQ(shifted.Coefficient(0, 2, 1), plain.Coefficient(0, 1, 1));
  EXPECT_EQ(shifted.Coefficient(0, 0, 1), 0.0);
  // ProbLessThan shifts with the ranks.
  const ProbabilityBounds ps = ProbLessThan(shifted, 2);
  const ProbabilityBounds pp = ProbLessThan(plain, 1);
  EXPECT_EQ(ps.lb, pp.lb);
  EXPECT_EQ(ps.ub, pp.ub);
  EXPECT_DOUBLE_EQ(ProbLessThan(shifted, 0).ub, 0.0);
  EXPECT_DOUBLE_EQ(ProbLessThan(shifted, 1).ub, 0.0);
}

TEST(UgfFastPathTest, DegenerateFactorsAloneGiveAPointMass) {
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 1.0, 1.0);
  Multiply(ugf, 0.0, 0.0);
  Multiply(ugf, 1.0, 1.0);
  const CountDistributionBounds b = ugf.Bounds(0);
  ASSERT_EQ(b.num_ranks(), 4u);
  for (size_t x = 0; x < 4; ++x) {
    EXPECT_DOUBLE_EQ(b.lb(x), x == 2 ? 1.0 : 0.0) << "x=" << x;
    EXPECT_DOUBLE_EQ(b.ub(x), x == 2 ? 1.0 : 0.0) << "x=" << x;
  }
  EXPECT_DOUBLE_EQ(ProbLessThan(ugf, 2).ub, 0.0);
  EXPECT_DOUBLE_EQ(ProbLessThan(ugf, 3).lb, 1.0);
}

TEST(UgfFastPathTest, TruncatedDegenerateFactorsMatchSemantics) {
  // Truncated at k = 2: two definite dominators push all mass to the
  // overflow; a (0,0) factor changes nothing.
  UgfBatch trunc = SingleLaneUgf(2);
  Multiply(trunc, 0.0, 0.0);
  EXPECT_DOUBLE_EQ(trunc.OverflowMass(0), 0.0);
  EXPECT_DOUBLE_EQ(trunc.Coefficient(0, 0, 0), 1.0);
  Multiply(trunc, 1.0, 1.0);
  Multiply(trunc, 1.0, 1.0);
  EXPECT_NEAR(trunc.OverflowMass(0), 1.0, 1e-12);
  const ProbabilityBounds p = ProbLessThan(trunc, 2);
  EXPECT_DOUBLE_EQ(p.lb, 0.0);
  EXPECT_DOUBLE_EQ(p.ub, 0.0);
}

TEST(UgfFastPathTest, BeginRewindsToTheUnitFunction) {
  UgfBatch ugf = SingleLaneUgf();
  Multiply(ugf, 0.3, 0.9);
  Multiply(ugf, 1.0, 1.0);
  ugf.Begin(UgfBatch::kNoTruncation, 1);
  EXPECT_EQ(ugf.num_factors(), 0u);
  EXPECT_DOUBLE_EQ(ugf.Coefficient(0, 0, 0), 1.0);
  const CountDistributionBounds b = ugf.Bounds(0);
  ASSERT_EQ(b.num_ranks(), 1u);
  EXPECT_DOUBLE_EQ(b.lb(0), 1.0);
  // Begin(k, 1) switches to truncated mode on the same workspace.
  ugf.Begin(2, 1);
  Multiply(ugf, 0.5, 0.5);
  Multiply(ugf, 0.5, 0.5);
  Multiply(ugf, 0.5, 0.5);
  EXPECT_NEAR(TruncatedMass(ugf, 2) + ugf.OverflowMass(0), 1.0, 1e-12);
}

TEST(TruncatedUgfTest, ExactInputsDecideProbLessThanExactly) {
  // With lb == ub the truncated UGF must reproduce the exact prefix sum.
  Rng rng(83);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 1 + rng.NextBounded(10);
    const size_t k = 1 + rng.NextBounded(5);
    std::vector<double> probs(n);
    UgfBatch trunc = SingleLaneUgf(k);
    for (double& p : probs) {
      p = rng.NextDouble();
      Multiply(trunc, p, p);
    }
    const std::vector<double> pdf = PoissonBinomialPdf(probs);
    double expect = 0.0;
    for (size_t x = 0; x < std::min(k, pdf.size()); ++x) expect += pdf[x];
    const ProbabilityBounds p = ProbLessThan(trunc, k);
    EXPECT_NEAR(p.lb, expect, 1e-9);
    EXPECT_NEAR(p.ub, expect, 1e-9);
  }
}

}  // namespace
}  // namespace updb
