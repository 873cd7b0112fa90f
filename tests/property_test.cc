// Randomized property sweeps over the paper's central invariants, run
// across object models and domination criteria via parameterized gtest.

#include <gtest/gtest.h>

#include <tuple>

#include "single_lane_ugf.h"
#include "updb.h"

namespace updb {
namespace {

using workload::MakeQueryObject;
using workload::MakeSyntheticDatabase;
using workload::ObjectModel;
using workload::SyntheticConfig;

// (model, criterion)
using Config = std::tuple<ObjectModel, DominationCriterion>;

class IdcaInvariantTest : public ::testing::TestWithParam<Config> {
 protected:
  ObjectModel model() const { return std::get<0>(GetParam()); }
  DominationCriterion criterion() const { return std::get<1>(GetParam()); }

  UncertainDatabase MakeDb(uint64_t seed, size_t n = 40) const {
    SyntheticConfig cfg;
    cfg.num_objects = n;
    cfg.max_extent = 0.08;
    cfg.model = model();
    cfg.samples_per_object = 16;
    cfg.seed = seed;
    return MakeSyntheticDatabase(cfg);
  }

  IdcaConfig MakeConfig(int iterations) const {
    IdcaConfig config;
    config.criterion = criterion();
    config.max_iterations = iterations;
    return config;
  }
};

TEST_P(IdcaInvariantTest, BoundsAreAlwaysConsistent) {
  const UncertainDatabase db = MakeDb(101);
  Rng rng(1);
  const auto r = MakeQueryObject(Point{0.5, 0.5}, 0.08, model(), 16, rng);
  IdcaEngine engine(db, MakeConfig(3));
  for (ObjectId b : {ObjectId{0}, ObjectId{13}, ObjectId{39}}) {
    const IdcaResult result = engine.ComputeDomCount(b, *r);
    double lb_total = 0.0, ub_total = 0.0;
    for (size_t k = 0; k < result.bounds.num_ranks(); ++k) {
      EXPECT_GE(result.bounds.lb(k), 0.0);
      EXPECT_LE(result.bounds.ub(k), 1.0);
      EXPECT_LE(result.bounds.lb(k), result.bounds.ub(k) + 1e-12);
      lb_total += result.bounds.lb(k);
      ub_total += result.bounds.ub(k);
    }
    // The true PDF sums to 1; the bounds must admit that.
    EXPECT_LE(lb_total, 1.0 + 1e-9);
    EXPECT_GE(ub_total, 1.0 - 1e-9);
  }
}

TEST_P(IdcaInvariantTest, UncertaintyNeverIncreases) {
  const UncertainDatabase db = MakeDb(102);
  Rng rng(2);
  const auto r = MakeQueryObject(Point{0.4, 0.6}, 0.08, model(), 16, rng);
  IdcaEngine engine(db, MakeConfig(5));
  const IdcaResult result = engine.ComputeDomCount(11, *r);
  for (size_t i = 1; i < result.iterations.size(); ++i) {
    EXPECT_LE(result.iterations[i].total_uncertainty,
              result.iterations[i - 1].total_uncertainty + 1e-9);
  }
}

TEST_P(IdcaInvariantTest, DiscreteTruthIsBracketed) {
  if (model() != ObjectModel::kDiscrete) {
    GTEST_SKIP() << "exact oracle only for the discrete model";
  }
  const UncertainDatabase db = MakeDb(103);
  Rng rng(3);
  const auto r =
      MakeQueryObject(Point{0.5, 0.5}, 0.08, ObjectModel::kDiscrete, 16, rng);
  MonteCarloConfig mc_cfg;
  mc_cfg.samples_per_object = 16;
  MonteCarloEngine mc(db, mc_cfg);
  IdcaEngine engine(db, MakeConfig(4));
  for (ObjectId b = 0; b < db.size(); b += 7) {
    const IdcaResult idca = engine.ComputeDomCount(b, *r);
    const MonteCarloResult truth = mc.DomCountPdf(b, *r);
    EXPECT_TRUE(idca.bounds.Brackets(truth.pdf, 1e-9)) << "b=" << b;
  }
}

TEST_P(IdcaInvariantTest, PredicateModeAgreesWithFullMode) {
  const UncertainDatabase db = MakeDb(104);
  Rng rng(4);
  const auto r = MakeQueryObject(Point{0.5, 0.5}, 0.08, model(), 16, rng);
  IdcaConfig config = MakeConfig(3);
  config.uncertainty_epsilon = -1.0;  // force all iterations in both modes
  IdcaEngine engine(db, config);
  for (size_t k : {size_t{2}, size_t{6}}) {
    const IdcaResult full = engine.ComputeDomCount(9, *r);
    const IdcaResult pred =
        engine.ComputeDomCount(9, *r, IdcaPredicate{k, 2.0});  // undecidable
    // tau = 2.0 can never be decided, so predicate mode runs all
    // iterations too; its scalar bracket must be at least as tight as the
    // one derived from the full per-rank arrays.
    const ProbabilityBounds from_full = full.bounds.ProbLessThan(k);
    EXPECT_GE(pred.predicate_prob.lb, from_full.lb - 1e-9) << "k=" << k;
    EXPECT_LE(pred.predicate_prob.ub, from_full.ub + 1e-9) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, IdcaInvariantTest,
    ::testing::Combine(
        ::testing::Values(ObjectModel::kUniform, ObjectModel::kGaussian,
                          ObjectModel::kDiscrete),
        ::testing::Values(DominationCriterion::kOptimal,
                          DominationCriterion::kMinMax)));

// --------------------------------------------------------------------
// PDom invariants across decomposition depths.

class PDomDepthTest : public ::testing::TestWithParam<int> {};

TEST_P(PDomDepthTest, DualityAndMonotonicityAcrossRandomTriples) {
  const int depth = GetParam();
  Rng rng(500 + depth);
  for (int trial = 0; trial < 20; ++trial) {
    auto make = [&rng]() {
      const double x = rng.Uniform(0, 2);
      const double y = rng.Uniform(0, 2);
      return std::make_unique<UniformPdf>(
          Rect(Point{x, y},
               Point{x + rng.Uniform(0.2, 1.0), y + rng.Uniform(0.2, 1.0)}));
    };
    const auto a = make();
    const auto b = make();
    const auto r = make();
    DecompositionTree ta(a.get()), tb(b.get()), tr(r.get());
    ta.DeepenTo(depth);
    tb.DeepenTo(depth);
    tr.DeepenTo(depth);
    const ProbabilityBounds ab =
        ComputePDomBounds(ta.Partitions(), tb.Partitions(), tr.Partitions());
    const ProbabilityBounds ba =
        ComputePDomBounds(tb.Partitions(), ta.Partitions(), tr.Partitions());
    // Lemma 2: ub(A,B) = 1 - lb(B,A).
    EXPECT_NEAR(ab.ub, 1.0 - ba.lb, 1e-9);
    // Deeper decomposition tightens.
    DecompositionTree ta2(a.get()), tb2(b.get()), tr2(r.get());
    ta2.DeepenTo(depth + 1);
    tb2.DeepenTo(depth + 1);
    tr2.DeepenTo(depth + 1);
    const ProbabilityBounds ab2 =
        ComputePDomBounds(ta2.Partitions(), tb2.Partitions(),
                          tr2.Partitions());
    EXPECT_GE(ab2.lb, ab.lb - 1e-9);
    EXPECT_LE(ab2.ub, ab.ub + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Depths, PDomDepthTest, ::testing::Values(0, 1, 2, 3));

// --------------------------------------------------------------------
// UGF vs exhaustive three-state enumeration.

class UgfEnumerationTest : public ::testing::TestWithParam<size_t> {};

TEST_P(UgfEnumerationTest, CoefficientsMatchThreeStateEnumeration) {
  using test_util::Multiply;
  using test_util::SingleLaneUgf;
  const size_t n = GetParam();
  Rng rng(900 + n);
  std::vector<double> lbs(n), ubs(n);
  UgfBatch ugf = SingleLaneUgf();
  for (size_t i = 0; i < n; ++i) {
    lbs[i] = rng.NextDouble();
    ubs[i] = lbs[i] + (1.0 - lbs[i]) * rng.NextDouble();
    Multiply(ugf, lbs[i], ubs[i]);
  }
  // Enumerate all 3^n assignments (definite-1, definite-0, unknown).
  std::vector<std::vector<double>> expected(n + 1,
                                            std::vector<double>(n + 1, 0.0));
  size_t total_states = 1;
  for (size_t i = 0; i < n; ++i) total_states *= 3;
  for (size_t code = 0; code < total_states; ++code) {
    size_t c = code;
    double p = 1.0;
    size_t ones = 0, unknowns = 0;
    for (size_t i = 0; i < n; ++i) {
      switch (c % 3) {
        case 0:
          p *= lbs[i];
          ++ones;
          break;
        case 1:
          p *= 1.0 - ubs[i];
          break;
        default:
          p *= ubs[i] - lbs[i];
          ++unknowns;
          break;
      }
      c /= 3;
    }
    expected[ones][unknowns] += p;
  }
  for (size_t i = 0; i <= n; ++i) {
    for (size_t j = 0; i + j <= n; ++j) {
      EXPECT_NEAR(ugf.Coefficient(0, i, j), expected[i][j], 1e-12)
          << "i=" << i << " j=" << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, UgfEnumerationTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// --------------------------------------------------------------------
// Decomposition invariants across PDF models.

class DecompositionInvariantTest
    : public ::testing::TestWithParam<ObjectModel> {};

TEST_P(DecompositionInvariantTest, MassConservedAndRegionsNested) {
  const ObjectModel model = GetParam();
  Rng rng(1000);
  const auto pdf = MakeQueryObject(Point{0.5, 0.5}, 0.3, model, 64, rng);
  DecompositionTree tree(pdf.get());
  const Rect root = pdf->bounds();
  for (int depth = 0; depth < 6; ++depth) {
    double mass = 0.0;
    for (size_t i = 0; i < tree.size(); ++i) {
      EXPECT_TRUE(root.Contains(tree.region(i)));
      EXPECT_GT(tree.masses()[i], 0.0);
      mass += tree.masses()[i];
    }
    EXPECT_NEAR(mass, 1.0, 1e-9) << "depth=" << depth;
    tree.Deepen();
  }
}

TEST_P(DecompositionInvariantTest, SampledPointsLandInExactlyOnePartition) {
  const ObjectModel model = GetParam();
  if (model == ObjectModel::kDiscrete) {
    GTEST_SKIP() << "half-open membership is a counting rule, not geometric";
  }
  Rng rng(1001);
  const auto pdf = MakeQueryObject(Point{0.5, 0.5}, 0.3, model, 64, rng);
  DecompositionTree tree(pdf.get());
  tree.DeepenTo(5);
  for (int s = 0; s < 200; ++s) {
    const Point p = pdf->Sample(rng);
    size_t containing = 0;
    for (size_t i = 0; i < tree.size(); ++i) {
      containing += tree.region(i).Contains(p);
    }
    // Interior points land in exactly one region; boundary points (measure
    // zero, but floating rounding can hit them) in at most two.
    EXPECT_GE(containing, 1u);
    EXPECT_LE(containing, 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DecompositionInvariantTest,
                         ::testing::Values(ObjectModel::kUniform,
                                           ObjectModel::kGaussian,
                                           ObjectModel::kDiscrete));

}  // namespace
}  // namespace updb
