#include "gf/poisson_binomial.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/random.h"
#include "gf/kernels.h"

namespace updb {
namespace {

/// Brute-force Poisson-binomial PDF by enumerating all 2^N outcomes.
std::vector<double> BruteForcePdf(const std::vector<double>& probs) {
  const size_t n = probs.size();
  std::vector<double> pdf(n + 1, 0.0);
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    double p = 1.0;
    size_t ones = 0;
    for (size_t i = 0; i < n; ++i) {
      if ((mask >> i) & 1) {
        p *= probs[i];
        ++ones;
      } else {
        p *= 1.0 - probs[i];
      }
    }
    pdf[ones] += p;
  }
  return pdf;
}

TEST(PoissonBinomialTest, EmptyInputIsPointMassAtZero) {
  const std::vector<double> pdf = PoissonBinomialPdf({});
  ASSERT_EQ(pdf.size(), 1u);
  EXPECT_DOUBLE_EQ(pdf[0], 1.0);
}

TEST(PoissonBinomialTest, SingleVariable) {
  const std::vector<double> probs{0.3};
  const std::vector<double> pdf = PoissonBinomialPdf(probs);
  ASSERT_EQ(pdf.size(), 2u);
  EXPECT_DOUBLE_EQ(pdf[0], 0.7);
  EXPECT_DOUBLE_EQ(pdf[1], 0.3);
}

TEST(PoissonBinomialTest, PaperExample2) {
  // Example 2 of the paper: P = {0.2, 0.1, 0.3}. Note the paper's printed
  // expansion contains an arithmetic slip: it reports 0.418 x^1 where
  // 0.26 * 0.7 + 0.72 * 0.3 = 0.398 (and consequently P(DomCount < 2) =
  // 0.902, not the 92.2% stated). P(DomCount = 0) = 0.504 matches.
  const std::vector<double> probs{0.2, 0.1, 0.3};
  const std::vector<double> pdf = PoissonBinomialPdf(probs);
  ASSERT_EQ(pdf.size(), 4u);
  EXPECT_NEAR(pdf[0], 0.504, 1e-12);
  EXPECT_NEAR(pdf[1], 0.398, 1e-12);
  EXPECT_NEAR(pdf[0] + pdf[1], 0.902, 1e-9);
}

TEST(PoissonBinomialTest, MatchesBruteForce) {
  Rng rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextBounded(10);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.NextDouble();
    const std::vector<double> expected = BruteForcePdf(probs);
    const std::vector<double> actual = PoissonBinomialPdf(probs);
    ASSERT_EQ(actual.size(), expected.size());
    for (size_t k = 0; k < expected.size(); ++k) {
      EXPECT_NEAR(actual[k], expected[k], 1e-12) << "k=" << k;
    }
  }
}

TEST(PoissonBinomialTest, IdenticalProbsGiveBinomial) {
  const double p = 0.4;
  const size_t n = 8;
  const std::vector<double> probs(n, p);
  const std::vector<double> pdf = PoissonBinomialPdf(probs);
  for (size_t k = 0; k <= n; ++k) {
    double binom = 1.0;
    for (size_t i = 0; i < k; ++i) {
      binom *= static_cast<double>(n - i) / static_cast<double>(i + 1);
    }
    const double expected =
        binom * std::pow(p, k) * std::pow(1 - p, static_cast<double>(n - k));
    EXPECT_NEAR(pdf[k], expected, 1e-12);
  }
}

TEST(PoissonBinomialTest, PdfSumsToOne) {
  Rng rng(23);
  std::vector<double> probs(64);
  for (double& p : probs) p = rng.NextDouble();
  const std::vector<double> pdf = PoissonBinomialPdf(probs);
  double sum = 0.0;
  for (double v : pdf) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PoissonBinomialPrefixTest, MatchesFullExpansionBelowK) {
  Rng rng(29);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 5 + rng.NextBounded(20);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.NextDouble();
    const std::vector<double> full = PoissonBinomialPdf(probs);
    for (size_t k : {size_t{1}, size_t{3}, n}) {
      const std::vector<double> prefix = PoissonBinomialPrefix(probs, k);
      ASSERT_EQ(prefix.size(), k + 1);
      for (size_t x = 0; x < k && x < full.size(); ++x) {
        EXPECT_NEAR(prefix[x], full[x], 1e-12);
      }
      double tail = 0.0;
      for (size_t x = k; x < full.size(); ++x) tail += full[x];
      EXPECT_NEAR(prefix[k], tail, 1e-12);
    }
  }
}

TEST(PoissonBinomialPrefixTest, DegenerateProbabilities) {
  const std::vector<double> probs{1.0, 1.0, 0.0};
  const std::vector<double> prefix = PoissonBinomialPrefix(probs, 2);
  EXPECT_DOUBLE_EQ(prefix[0], 0.0);
  EXPECT_DOUBLE_EQ(prefix[1], 0.0);
  EXPECT_DOUBLE_EQ(prefix[2], 1.0);  // count is exactly 2 -> all in tail
}

TEST(RegularGfPairBoundsTest, DegenerateBracketsAreExact) {
  const std::vector<double> probs{0.2, 0.5, 0.9};
  const CountDistributionBounds b = RegularGfPairBounds(probs, probs);
  const std::vector<double> pdf = PoissonBinomialPdf(probs);
  for (size_t k = 0; k < pdf.size(); ++k) {
    EXPECT_NEAR(b.lb(k), pdf[k], 1e-9);
    EXPECT_NEAR(b.ub(k), pdf[k], 1e-9);
  }
}

TEST(RegularGfPairBoundsTest, BracketsAnyConsistentTruth) {
  Rng rng(31);
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 1 + rng.NextBounded(8);
    std::vector<double> lb(n), ub(n), truth(n);
    for (size_t i = 0; i < n; ++i) {
      lb[i] = rng.NextDouble();
      ub[i] = lb[i] + (1.0 - lb[i]) * rng.NextDouble();
      truth[i] = lb[i] + (ub[i] - lb[i]) * rng.NextDouble();
    }
    const CountDistributionBounds bounds = RegularGfPairBounds(lb, ub);
    const std::vector<double> pdf = PoissonBinomialPdf(truth);
    EXPECT_TRUE(bounds.Brackets(pdf, 1e-9)) << "trial=" << trial;
  }
}

TEST(PoissonBinomialTest, KernelDispatchParityOnPdfAndPrefix) {
  // The in-place two-term convolution routes through the gf kernel table
  // (shift_mul_add); scalar and vector tables must agree bit for bit.
  if (!gf::VectorKernelsAvailable()) GTEST_SKIP() << "no vector kernels";
  const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();
  Rng rng(271);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 1 + rng.NextBounded(64);
    std::vector<double> probs(n);
    for (double& p : probs) p = rng.NextDouble();
    const size_t upto = 1 + rng.NextBounded(n);
    gf::ForceScalarKernels(true);
    const std::vector<double> pdf_s = PoissonBinomialPdf(probs);
    const std::vector<double> pre_s = PoissonBinomialPrefix(probs, upto);
    gf::ForceScalarKernels(false);
    const std::vector<double> pdf_v = PoissonBinomialPdf(probs);
    const std::vector<double> pre_v = PoissonBinomialPrefix(probs, upto);
    ASSERT_EQ(pdf_s.size(), pdf_v.size());
    for (size_t k = 0; k < pdf_s.size(); ++k) {
      ASSERT_EQ(pdf_s[k], pdf_v[k]) << "k=" << k;
    }
    ASSERT_EQ(pre_s.size(), pre_v.size());
    for (size_t k = 0; k < pre_s.size(); ++k) {
      ASSERT_EQ(pre_s[k], pre_v[k]) << "k=" << k;
    }
  }
  gf::ForceScalarKernels(was_scalar);
}

TEST(PoissonBinomialTest, ShiftMulAddMatchesTheContractDefinition) {
  // Both tables instantiate one kernel body, so table-vs-table parity
  // cannot see a change to the order itself. This pins shift_mul_add of
  // every available table to the literal definition in gf/kernels.h:
  // x[k] = fma(x[k-1], a, x[k] * b) for k = n-1..1, then x[0] *= b.
  std::vector<const gf::GfKernels*> tables = {&gf::ScalarKernels()};
  if (gf::VectorKernelsAvailable()) tables.push_back(gf::Avx2Kernels());
  Rng rng(283);
  for (size_t n = 0; n <= 41; ++n) {
    std::vector<double> x(n);
    for (double& v : x) v = rng.NextDouble();
    const double a = rng.NextDouble();
    const double b = 1.0 - a;
    std::vector<double> want = x;
    for (size_t k = n; k-- > 1;) {
      want[k] = std::fma(want[k - 1], a, want[k] * b);
    }
    if (n > 0) want[0] *= b;
    for (const gf::GfKernels* t : tables) {
      std::vector<double> got = x;
      t->shift_mul_add(got.data(), n, a, b);
      for (size_t k = 0; k < n; ++k) {
        ASSERT_EQ(got[k], want[k]) << t->name << " n=" << n << " k=" << k;
      }
    }
  }
}

}  // namespace
}  // namespace updb
