// IdcaEngine against the brute-force level-h evaluation of idca_oracle.h.
// The engine inherits decided verdicts across levels and freezes fully
// decided pairs; the oracle re-derives every level-h triple from scratch.
// The two group the same mass sums differently, hence the 1e-12
// tolerance.

#include "idca_oracle.h"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/idca.h"
#include "workload/generators.h"

namespace updb {
namespace {

using test_util::IdcaOracleResult;
using test_util::OracleDomCount;
using workload::MakeQueryObject;
using workload::MakeSyntheticDatabase;
using workload::ObjectModel;
using workload::SyntheticConfig;

constexpr double kTol = 1e-12;

/// Uniform, Gaussian and discrete objects in turn; every fourth object
/// exists with probability 0.6.
UncertainDatabase MixedDatabase(size_t n, double extent, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.num_objects = n;
  cfg.max_extent = extent;
  cfg.samples_per_object = 12;
  cfg.seed = seed;
  UncertainDatabase sources[3];
  const ObjectModel models[3] = {ObjectModel::kUniform, ObjectModel::kGaussian,
                                 ObjectModel::kDiscrete};
  for (int m = 0; m < 3; ++m) {
    cfg.model = models[m];
    sources[m] = MakeSyntheticDatabase(cfg);
  }
  UncertainDatabase db;
  for (ObjectId id = 0; id < n; ++id) {
    db.Add(sources[id % 3].object(id).shared_pdf(), id % 4 == 1 ? 0.6 : 1.0);
  }
  return db;
}

void ExpectMatchesOracle(const IdcaResult& got, const IdcaOracleResult& want,
                         bool predicate) {
  EXPECT_EQ(got.complete_domination_count, want.complete);
  ASSERT_EQ(got.influence_count, want.influence.size());
  ASSERT_EQ(got.influence_pdom.size(), want.influence_pdom.size());
  for (size_t i = 0; i < want.influence_pdom.size(); ++i) {
    EXPECT_NEAR(got.influence_pdom[i].lb, want.influence_pdom[i].lb, kTol)
        << "i=" << i;
    EXPECT_NEAR(got.influence_pdom[i].ub, want.influence_pdom[i].ub, kTol)
        << "i=" << i;
  }
  if (predicate) {
    EXPECT_NEAR(got.predicate_prob.lb, want.predicate_prob.lb, kTol);
    EXPECT_NEAR(got.predicate_prob.ub, want.predicate_prob.ub, kTol);
    return;
  }
  ASSERT_EQ(got.bounds.num_ranks(), want.bounds.num_ranks());
  for (size_t k = 0; k < want.bounds.num_ranks(); ++k) {
    EXPECT_NEAR(got.bounds.lb(k), want.bounds.lb(k), kTol) << "k=" << k;
    EXPECT_NEAR(got.bounds.ub(k), want.bounds.ub(k), kTol) << "k=" << k;
  }
}

TEST(IdcaOracleTest, EngineMatchesFromScratchEvaluation) {
  const UncertainDatabase db = MixedDatabase(36, 0.05, 61);
  Rng rng(5);
  const auto q =
      MakeQueryObject(Point{0.5, 0.5}, 0.05, ObjectModel::kUniform, 0, rng);
  // What the sweep must have exercised, summed over every compared run.
  uint64_t frozen = 0;
  size_t uniform = 0, gaussian = 0, discrete = 0, uncertain_existence = 0;
  size_t deep_runs = 0;

  for (DominationCriterion criterion :
       {DominationCriterion::kOptimal, DominationCriterion::kMinMax}) {
    for (int p : {1, 2}) {
      for (int level = 1; level <= 5; ++level) {
        IdcaConfig config;
        config.criterion = criterion;
        config.norm = LpNorm(p);
        config.max_iterations = level;
        const IdcaEngine engine(db, config);
        // Runs 0-2: ComputeDomCount of objects 4 and 11, and of object 4
        // with a predicate; run 3: ComputeDomCountOfQuery of object 4.
        for (int run = 0; run < 4; ++run) {
          const ObjectId b = run == 1 ? 11 : 4;
          const bool of_query = run == 3;
          const Pdf& target = of_query ? *q : db.object(b).pdf();
          const Pdf& reference = of_query ? db.object(b).pdf() : *q;
          std::optional<size_t> k;
          if (run == 2) {
            // A k inside the candidate rank window, so the run refines.
            const IdcaOracleResult window = OracleDomCount(
                db, target, reference, b, 1, criterion, config.norm, {});
            k = window.complete + window.influence.size() / 2 + 1;
          }
          IdcaResult got;
          if (of_query) {
            got = engine.ComputeDomCountOfQuery(target, b);
          } else if (k) {
            got = engine.ComputeDomCount(b, reference, IdcaPredicate{*k, 0.5});
          } else {
            got = engine.ComputeDomCount(b, reference);
          }
          SCOPED_TRACE(testing::Message()
                       << "criterion=" << static_cast<int>(criterion)
                       << " p=" << p << " level=" << level << " run=" << run);
          ASSERT_GE(got.iterations_run, 1u);
          ASSERT_LE(got.iterations_run, static_cast<size_t>(level));
          const IdcaOracleResult want = OracleDomCount(
              db, target, reference, b, static_cast<int>(got.iterations_run),
              criterion, config.norm, k);
          ExpectMatchesOracle(got, want, k.has_value());

          // Inheritance saves work: past level 1 the engine's tests, summed
          // over all levels, stay below the oracle's level-h triples.
          if (got.iterations_run >= 2) {
            EXPECT_LT(got.counters.domination_tests, want.triples);
            ++deep_runs;
          }
          frozen += got.counters.pairs_frozen;
          for (const UncertainObject* a : want.influence) {
            const Pdf* pdf = &a->pdf();
            uniform += dynamic_cast<const UniformPdf*>(pdf) != nullptr;
            gaussian +=
                dynamic_cast<const TruncatedGaussianPdf*>(pdf) != nullptr;
            discrete += dynamic_cast<const DiscreteSamplePdf*>(pdf) != nullptr;
            uncertain_existence += !a->existentially_certain();
          }
        }
      }
    }
  }
  EXPECT_GT(frozen, 0u);
  EXPECT_GT(deep_runs, 0u);
  EXPECT_GT(uniform, 0u);
  EXPECT_GT(gaussian, 0u);
  EXPECT_GT(discrete, 0u);
  EXPECT_GT(uncertain_existence, 0u);
}

}  // namespace
}  // namespace updb
