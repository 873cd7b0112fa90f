#include "gf/count_bounds.h"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "common/random.h"
#include "gf/kernels.h"

namespace updb {
namespace {

TEST(CountBoundsTest, VacuousConstruction) {
  CountDistributionBounds b(4);
  EXPECT_EQ(b.num_ranks(), 4u);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(b.lb(k), 0.0);
    EXPECT_DOUBLE_EQ(b.ub(k), 1.0);
  }
  EXPECT_DOUBLE_EQ(b.TotalUncertainty(), 4.0);
}

TEST(CountBoundsTest, ZeroConstruction) {
  CountDistributionBounds b = CountDistributionBounds::Zero(3);
  for (size_t k = 0; k < 3; ++k) {
    EXPECT_DOUBLE_EQ(b.ub(k), 0.0);
  }
  EXPECT_DOUBLE_EQ(b.TotalUncertainty(), 0.0);
}

TEST(CountBoundsTest, ExactConstruction) {
  CountDistributionBounds b =
      CountDistributionBounds::Exact({0.5, 0.3, 0.2});
  EXPECT_DOUBLE_EQ(b.lb(1), 0.3);
  EXPECT_DOUBLE_EQ(b.ub(1), 0.3);
  EXPECT_DOUBLE_EQ(b.TotalUncertainty(), 0.0);
}

TEST(CountBoundsTest, ProbLessThanExact) {
  CountDistributionBounds b =
      CountDistributionBounds::Exact({0.5, 0.3, 0.2});
  const ProbabilityBounds p = b.ProbLessThan(2);
  EXPECT_NEAR(p.lb, 0.8, 1e-12);
  EXPECT_NEAR(p.ub, 0.8, 1e-12);
  const ProbabilityBounds p0 = b.ProbLessThan(0);
  EXPECT_DOUBLE_EQ(p0.lb, 0.0);
  EXPECT_DOUBLE_EQ(p0.ub, 0.0);
  const ProbabilityBounds pall = b.ProbLessThan(10);
  EXPECT_DOUBLE_EQ(pall.lb, 1.0);
}

TEST(CountBoundsTest, ProbLessThanUsesComplementForTightness) {
  // lb sums are weak (0) but the complement of the upper tail is strong.
  CountDistributionBounds b(3);
  b.Set(0, 0.0, 1.0);
  b.Set(1, 0.0, 1.0);
  b.Set(2, 0.0, 0.1);  // at most 10% of mass at rank 2
  const ProbabilityBounds p = b.ProbLessThan(2);
  EXPECT_NEAR(p.lb, 0.9, 1e-12);
  EXPECT_NEAR(p.ub, 1.0, 1e-12);
}

TEST(CountBoundsTest, ShiftRightEmbedsWindow) {
  CountDistributionBounds b = CountDistributionBounds::Exact({0.4, 0.6});
  const CountDistributionBounds shifted = b.ShiftRight(3, 6);
  EXPECT_EQ(shifted.num_ranks(), 6u);
  for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
    EXPECT_DOUBLE_EQ(shifted.lb(k), 0.0);
    EXPECT_DOUBLE_EQ(shifted.ub(k), 0.0);
  }
  EXPECT_DOUBLE_EQ(shifted.lb(3), 0.4);
  EXPECT_DOUBLE_EQ(shifted.ub(4), 0.6);
}

TEST(CountBoundsTest, AccumulateWeightedMixesBounds) {
  CountDistributionBounds acc = CountDistributionBounds::Zero(2);
  CountDistributionBounds a = CountDistributionBounds::Exact({1.0, 0.0});
  CountDistributionBounds b = CountDistributionBounds::Exact({0.0, 1.0});
  acc.AccumulateWeighted(a, 0.25);
  acc.AccumulateWeighted(b, 0.75);
  EXPECT_DOUBLE_EQ(acc.lb(0), 0.25);
  EXPECT_DOUBLE_EQ(acc.lb(1), 0.75);
  EXPECT_DOUBLE_EQ(acc.TotalUncertainty(), 0.0);
}

TEST(CountBoundsTest, NormalizeRepairsNoise) {
  CountDistributionBounds b(2);
  b.Set(0, 1.0 + 1e-13, 1.0 + 2e-13);
  b.Set(1, 0.5, 0.5 - 1e-13);
  b.Normalize();
  EXPECT_LE(b.lb(0), 1.0);
  EXPECT_LE(b.lb(1), b.ub(1));
}

TEST(CountBoundsTest, ExpectedRankOfExactDistribution) {
  // Ranks are count+1: E = 1*0.5 + 2*0.3 + 3*0.2 = 1.7.
  CountDistributionBounds b =
      CountDistributionBounds::Exact({0.5, 0.3, 0.2});
  const ProbabilityBounds er = b.ExpectedRank();
  EXPECT_NEAR(er.lb, 1.7, 1e-12);
  EXPECT_NEAR(er.ub, 1.7, 1e-12);
}

TEST(CountBoundsTest, ExpectedRankOfVacuousBounds) {
  CountDistributionBounds b(3);
  const ProbabilityBounds er = b.ExpectedRank();
  EXPECT_NEAR(er.lb, 1.0, 1e-12);  // all mass could sit at rank 1
  EXPECT_NEAR(er.ub, 3.0, 1e-12);  // or at rank 3
}

TEST(CountBoundsTest, ExpectedRankRespectsCapacities) {
  CountDistributionBounds b(3);
  b.Set(0, 0.0, 0.25);  // at most a quarter of the mass at rank 1
  b.Set(1, 0.0, 1.0);
  b.Set(2, 0.0, 1.0);
  const ProbabilityBounds er = b.ExpectedRank();
  // Lower bound: 0.25 at rank 1 + 0.75 at rank 2 = 1.75.
  EXPECT_NEAR(er.lb, 1.75, 1e-12);
  EXPECT_NEAR(er.ub, 3.0, 1e-12);
}

TEST(CountBoundsTest, BracketsChecksPerRank) {
  CountDistributionBounds b(2);
  b.Set(0, 0.3, 0.7);
  b.Set(1, 0.3, 0.7);
  const std::vector<double> inside{0.5, 0.5};
  const std::vector<double> outside{0.9, 0.1};
  const std::vector<double> wrong_size{0.5};
  EXPECT_TRUE(b.Brackets(inside, 0.0));
  EXPECT_FALSE(b.Brackets(outside, 0.0));
  EXPECT_FALSE(b.Brackets(wrong_size, 0.0));
  EXPECT_TRUE(b.Brackets(outside, 0.21));  // tolerance widens the check
}

TEST(CountBoundsTest, ProbLessThanBracketsTruthForRandomBounds) {
  Rng rng(97);
  for (int trial = 0; trial < 100; ++trial) {
    const size_t n = 2 + rng.NextBounded(6);
    // A random true PDF plus widened bounds around it.
    std::vector<double> pdf(n);
    double total = 0.0;
    for (double& v : pdf) {
      v = rng.NextDouble();
      total += v;
    }
    CountDistributionBounds b(n);
    for (size_t k = 0; k < n; ++k) {
      pdf[k] /= total;
      const double slack_lo = rng.NextDouble() * pdf[k];
      const double slack_hi = rng.NextDouble() * (1.0 - pdf[k]);
      b.Set(k, pdf[k] - slack_lo, pdf[k] + slack_hi);
    }
    for (size_t m = 0; m <= n; ++m) {
      double truth = 0.0;
      for (size_t x = 0; x < m; ++x) truth += pdf[x];
      const ProbabilityBounds p = b.ProbLessThan(m);
      EXPECT_GE(truth, p.lb - 1e-9) << "m=" << m;
      EXPECT_LE(truth, p.ub + 1e-9) << "m=" << m;
    }
  }
}

TEST(CountBoundsTest, KernelDispatchParityOnReductions) {
  // ProbLessThan and AccumulateWeighted route through the gf kernel table;
  // the scalar and vector tables must produce identical bits on both.
  if (!gf::VectorKernelsAvailable()) GTEST_SKIP() << "no vector kernels";
  const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();
  Rng rng(1117);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.NextBounded(40);
    CountDistributionBounds base(n);
    CountDistributionBounds delta(n);
    for (size_t k = 0; k < n; ++k) {
      const double p = rng.NextDouble();
      base.Set(k, p * rng.NextDouble(), p);
      const double q = rng.NextDouble();
      delta.Set(k, q * rng.NextDouble(), q);
    }
    const double w = rng.NextDouble();
    const size_t m = rng.NextBounded(n + 1);
    auto eval = [&](bool scalar) {
      gf::ForceScalarKernels(scalar);
      CountDistributionBounds acc = base;
      acc.AccumulateWeighted(delta, w);
      return std::pair<ProbabilityBounds, CountDistributionBounds>(
          acc.ProbLessThan(m), acc);
    };
    const auto s = eval(true);
    const auto v = eval(false);
    ASSERT_EQ(s.first.lb, v.first.lb) << "m=" << m;
    ASSERT_EQ(s.first.ub, v.first.ub) << "m=" << m;
    for (size_t k = 0; k < n; ++k) {
      ASSERT_EQ(s.second.lb(k), v.second.lb(k)) << "k=" << k;
      ASSERT_EQ(s.second.ub(k), v.second.ub(k)) << "k=" << k;
    }
  }
  gf::ForceScalarKernels(was_scalar);
}

TEST(CountBoundsTest, RowKernelsMatchTheContractDefinitions) {
  // Both tables instantiate one kernel body, so table-vs-table parity
  // cannot see a change to the order itself. This pins block_sum and axpy
  // of every available table to the literal definitions in gf/kernels.h:
  // element j into accumulator j mod 4, combined (a0 + a1) + (a2 + a3);
  // dst[j] = fma(src[j], w, dst[j]).
  std::vector<const gf::GfKernels*> tables = {&gf::ScalarKernels()};
  if (gf::VectorKernelsAvailable()) tables.push_back(gf::Avx2Kernels());
  Rng rng(1201);
  for (size_t n = 0; n <= 41; ++n) {
    std::vector<double> x(n), dst(n);
    for (size_t j = 0; j < n; ++j) {
      x[j] = rng.NextDouble() * (j % 3 == 0 ? 1e-9 : 1.0);
      dst[j] = rng.NextDouble();
    }
    const double w = rng.NextDouble();
    double acc[4] = {0.0, 0.0, 0.0, 0.0};
    for (size_t j = 0; j < n; ++j) acc[j & 3] += x[j];
    const double want_sum = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    std::vector<double> want_axpy = dst;
    for (size_t j = 0; j < n; ++j) {
      want_axpy[j] = std::fma(x[j], w, want_axpy[j]);
    }
    for (const gf::GfKernels* k : tables) {
      EXPECT_EQ(k->block_sum(x.data(), n), want_sum)
          << k->name << " n=" << n;
      std::vector<double> got = dst;
      k->axpy(got.data(), x.data(), n, w);
      for (size_t j = 0; j < n; ++j) {
        ASSERT_EQ(got[j], want_axpy[j]) << k->name << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace updb
