// Bit-identity of the library's UGF workspace (UgfBatch, gf/ugf_batch.h)
// against the nested-vector reference oracle (gf/ugf_reference.h). Both
// follow the blocked accumulation order of gf/kernels.h, so every
// comparison here is exact (EXPECT_EQ on doubles) — no tolerances. Every
// check runs under both dispatch tables (ForceScalarKernels on/off), which
// is the contract the AVX2+FMA kernels are held to: identical bits to the
// scalar kernels on every input, not merely close.
//
// Coverage: every factor-sequence size 1..130 (untruncated and a spread of
// truncation depths including k = 1), the degenerate (0,0)/(1,1) fast
// paths in isolation and interleaved, lane counts 1..4 with deliberately
// mixed degenerate/general lanes, workspace reuse across Begin(), and a
// seeded randomized long-run stress mix.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/random.h"
#include "gf/kernels.h"
#include "gf/ugf_batch.h"
#include "gf/ugf_reference.h"

namespace updb {
namespace {

struct Factor {
  double lb;
  double ub;
};

using Sequences = std::vector<std::vector<Factor>>;

/// Draws a factor: ~20% definite non-dominator (0,0), ~20% definite
/// dominator (1,1), ~20% exact (p,p), rest a general bracket.
Factor DrawFactor(Rng& rng) {
  const double kind = rng.NextDouble();
  if (kind < 0.2) return {0.0, 0.0};
  if (kind < 0.4) return {1.0, 1.0};
  if (kind < 0.6) {
    const double p = rng.NextDouble();
    return {p, p};
  }
  const double lb = rng.NextDouble();
  return {lb, lb + (1.0 - lb) * rng.NextDouble()};
}

std::vector<Factor> DrawSequence(Rng& rng, size_t n) {
  std::vector<Factor> factors;
  factors.reserve(n);
  for (size_t i = 0; i < n; ++i) factors.push_back(DrawFactor(rng));
  return factors;
}

/// Runs `fn` once pinned to the scalar table and once on the auto-selected
/// table (the vector table wherever this host supports it), restoring the
/// prior dispatch mode afterwards so later tests — and the CI leg that
/// sets UPDB_FORCE_SCALAR for the whole binary — see what they expect.
template <typename Fn>
void ForEachDispatchMode(Fn&& fn) {
  const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();
  gf::ForceScalarKernels(true);
  ASSERT_STREQ(gf::ActiveKernelName(), "scalar");
  fn();
  gf::ForceScalarKernels(false);
  if (gf::VectorKernelsAvailable()) {
    ASSERT_STRNE(gf::ActiveKernelName(), "scalar");
    fn();
  }
  gf::ForceScalarKernels(was_scalar);
}

/// Runs `seqs` (1..kLanes equal-length factor sequences) through `batch`
/// and through one NestedVectorUgf each; every lane must reproduce its
/// oracle bit for bit in coefficients, overflow, per-rank bounds and
/// ProbLessThan at every admissible m.
void CheckBatchAgainstReference(UgfBatch& batch, const Sequences& seqs,
                                size_t k) {
  const size_t lanes = seqs.size();
  const size_t n = seqs[0].size();
  const bool truncated = k != UgfBatch::kNoTruncation;

  batch.Begin(k, lanes);
  std::vector<NestedVectorUgf> refs;
  for (size_t l = 0; l < lanes; ++l) refs.emplace_back(k);
  for (size_t i = 0; i < n; ++i) {
    double lb4[UgfBatch::kLanes] = {};
    double ub4[UgfBatch::kLanes] = {};
    for (size_t l = 0; l < lanes; ++l) {
      lb4[l] = seqs[l][i].lb;
      ub4[l] = seqs[l][i].ub;
      refs[l].Multiply(seqs[l][i].lb, seqs[l][i].ub);
    }
    batch.MultiplyFactors(lb4, ub4);
  }

  ASSERT_EQ(batch.num_factors(), n);
  const size_t nr = batch.num_ranks();
  batch.FinishBounds();
  const size_t max_rank = truncated ? k : n;
  for (size_t l = 0; l < lanes; ++l) {
    ASSERT_EQ(refs[l].num_factors(), n);
    EXPECT_EQ(batch.OverflowMass(l), refs[l].OverflowMass()) << "l=" << l;
    for (size_t i = 0; i <= max_rank; ++i) {
      for (size_t j = 0; j <= max_rank - i; ++j) {
        ASSERT_EQ(batch.Coefficient(l, i, j), refs[l].Coefficient(i, j))
            << "l=" << l << " i=" << i << " j=" << j;
      }
    }
    CountDistributionBounds bb = CountDistributionBounds::Zero(nr);
    batch.EmitBounds(l, &bb);
    const CountDistributionBounds rb = refs[l].Bounds();
    ASSERT_EQ(rb.num_ranks(), nr);
    for (size_t x = 0; x < nr; ++x) {
      ASSERT_EQ(bb.lb(x), rb.lb(x)) << "l=" << l << " x=" << x;
      ASSERT_EQ(bb.ub(x), rb.ub(x)) << "l=" << l << " x=" << x;
    }
  }
  ProbabilityBounds lt[UgfBatch::kLanes];
  const size_t m_max = truncated ? k : n + 1;
  for (size_t m = 0; m <= m_max; ++m) {
    batch.ProbLessThanAll(m, lt);
    for (size_t l = 0; l < lanes; ++l) {
      const ProbabilityBounds pr = refs[l].ProbLessThan(m);
      ASSERT_EQ(lt[l].lb, pr.lb) << "l=" << l << " m=" << m;
      ASSERT_EQ(lt[l].ub, pr.ub) << "l=" << l << " m=" << m;
    }
  }
}

void CheckBatchAgainstReference(const Sequences& seqs, size_t k) {
  UgfBatch batch;
  CheckBatchAgainstReference(batch, seqs, k);
}

TEST(UgfEquivalenceTest, EverySizeUntruncated) {
  ForEachDispatchMode([] {
    for (size_t n = 1; n <= 130; ++n) {
      Rng rng(1000 + n);
      CheckBatchAgainstReference({DrawSequence(rng, n)},
                                 UgfBatch::kNoTruncation);
      if (HasFatalFailure()) return;
    }
  });
}

TEST(UgfEquivalenceTest, EverySizeTruncated) {
  ForEachDispatchMode([] {
    for (size_t n = 1; n <= 130; ++n) {
      Rng rng(5000 + n);
      const std::vector<Factor> factors = DrawSequence(rng, n);
      for (size_t k : {size_t{1}, size_t{2}, size_t{7}, n / 2 + 1, n + 1}) {
        CheckBatchAgainstReference({factors}, k);
        if (HasFatalFailure()) return;
      }
    }
  });
}

TEST(UgfEquivalenceTest, DegenerateFastPathSequences) {
  // All-(0,0), all-(1,1) and strict alternations exercise the symbolic
  // fast paths; a degenerate prefix before a general tail exercises the
  // transition out of them. Each shape also runs beside a general lane,
  // where the degenerate factors multiply through materially instead.
  ForEachDispatchMode([] {
    for (size_t n : {size_t{1}, size_t{2}, size_t{5}, size_t{33}}) {
      Sequences shapes;
      shapes.push_back(std::vector<Factor>(n, Factor{0.0, 0.0}));
      shapes.push_back(std::vector<Factor>(n, Factor{1.0, 1.0}));
      std::vector<Factor> alt;
      for (size_t i = 0; i < n; ++i) {
        alt.push_back(i % 2 == 0 ? Factor{1.0, 1.0} : Factor{0.0, 0.0});
      }
      shapes.push_back(alt);
      Rng rng(77 * n + 3);
      std::vector<Factor> mixed(n, Factor{0.0, 0.0});
      for (size_t i = n / 2; i < n; ++i) mixed[i] = DrawFactor(rng);
      shapes.push_back(mixed);
      const std::vector<Factor> general = DrawSequence(rng, n);
      for (const std::vector<Factor>& factors : shapes) {
        for (size_t k : {UgfBatch::kNoTruncation, size_t{1}, n / 2 + 1}) {
          CheckBatchAgainstReference({factors}, k);
          CheckBatchAgainstReference({factors, general}, k);
          if (HasFatalFailure()) return;
        }
      }
    }
  });
}

TEST(UgfEquivalenceTest, BatchLanesMatchReferenceLaneByLane) {
  // Every lane count 1..4, with lanes deliberately mixing all-degenerate
  // sequences against general ones so group fast paths, materialized
  // degenerate factors and padding lanes all get hit.
  ForEachDispatchMode([] {
    Rng rng(4242);
    for (int trial = 0; trial < 24; ++trial) {
      const size_t lanes = 1 + trial % UgfBatch::kLanes;
      const size_t n = 1 + rng.NextBounded(48);
      Sequences seqs;
      for (size_t l = 0; l < lanes; ++l) {
        const double shape = rng.NextDouble();
        if (shape < 0.15) {
          seqs.push_back(std::vector<Factor>(n, Factor{0.0, 0.0}));
        } else if (shape < 0.3) {
          seqs.push_back(std::vector<Factor>(n, Factor{1.0, 1.0}));
        } else {
          seqs.push_back(DrawSequence(rng, n));
        }
      }
      CheckBatchAgainstReference(seqs, UgfBatch::kNoTruncation);
      CheckBatchAgainstReference(seqs, size_t{1});
      CheckBatchAgainstReference(seqs, 1 + rng.NextBounded(n + 1));
      if (HasFatalFailure()) return;
    }
  });
}

TEST(UgfEquivalenceTest, BatchWorkspaceReuseStaysBitIdentical) {
  // The same UgfBatch replays sequences of varying size, lane count and
  // truncation via Begin(); results must not depend on what the buffers
  // held before.
  ForEachDispatchMode([] {
    Rng rng(515);
    UgfBatch batch;
    for (int trial = 0; trial < 16; ++trial) {
      const size_t lanes = 1 + rng.NextBounded(UgfBatch::kLanes);
      const size_t n = 1 + rng.NextBounded(40);
      const bool truncated = rng.Bernoulli(0.5);
      const size_t k =
          truncated ? 1 + rng.NextBounded(12) : UgfBatch::kNoTruncation;
      Sequences seqs;
      for (size_t l = 0; l < lanes; ++l) seqs.push_back(DrawSequence(rng, n));
      CheckBatchAgainstReference(batch, seqs, k);
      if (HasFatalFailure()) return;
    }
  });
}

TEST(UgfEquivalenceTest, ScalarAndVectorDispatchProduceIdenticalBits) {
  // Direct scalar-vs-vector comparison (not via the reference): the same
  // sequences evaluated under both tables must agree bit for bit on every
  // lane's bounds. Skipped where no vector table exists.
  if (!gf::VectorKernelsAvailable()) GTEST_SKIP() << "no vector kernels";
  const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();
  Rng rng(8080);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t lanes = 1 + trial % UgfBatch::kLanes;
    const size_t n = 1 + rng.NextBounded(100);
    const bool truncated = rng.Bernoulli(0.5);
    const size_t k =
        truncated ? 1 + rng.NextBounded(16) : UgfBatch::kNoTruncation;
    Sequences seqs;
    for (size_t l = 0; l < lanes; ++l) seqs.push_back(DrawSequence(rng, n));
    auto eval = [&](bool scalar) {
      gf::ForceScalarKernels(scalar);
      UgfBatch batch;
      batch.Begin(k, lanes);
      for (size_t i = 0; i < n; ++i) {
        double lb4[UgfBatch::kLanes] = {};
        double ub4[UgfBatch::kLanes] = {};
        for (size_t l = 0; l < lanes; ++l) {
          lb4[l] = seqs[l][i].lb;
          ub4[l] = seqs[l][i].ub;
        }
        batch.MultiplyFactors(lb4, ub4);
      }
      std::vector<CountDistributionBounds> out;
      for (size_t l = 0; l < lanes; ++l) out.push_back(batch.Bounds(l));
      return out;
    };
    const std::vector<CountDistributionBounds> s = eval(true);
    const std::vector<CountDistributionBounds> v = eval(false);
    for (size_t l = 0; l < lanes; ++l) {
      ASSERT_EQ(s[l].num_ranks(), v[l].num_ranks());
      for (size_t x = 0; x < s[l].num_ranks(); ++x) {
        ASSERT_EQ(s[l].lb(x), v[l].lb(x)) << "l=" << l << " x=" << x;
        ASSERT_EQ(s[l].ub(x), v[l].ub(x)) << "l=" << l << " x=" << x;
      }
    }
  }
  gf::ForceScalarKernels(was_scalar);
}

TEST(UgfEquivalenceTest, RandomizedLongRunStress) {
  // Long mixed sequences with random truncation, one lane and a full lane
  // group, everything bit-exact against the reference.
  ForEachDispatchMode([] {
    Rng rng(997);
    for (int trial = 0; trial < 12; ++trial) {
      const size_t n = 60 + rng.NextBounded(71);  // 60..130
      const bool truncated = rng.Bernoulli(0.5);
      const size_t k =
          truncated ? 1 + rng.NextBounded(24) : UgfBatch::kNoTruncation;
      Sequences seqs;
      for (size_t l = 0; l < UgfBatch::kLanes; ++l) {
        seqs.push_back(DrawSequence(rng, n));
      }
      CheckBatchAgainstReference({seqs[0]}, k);
      CheckBatchAgainstReference(seqs, k);
      if (HasFatalFailure()) return;
    }
  });
}

}  // namespace
}  // namespace updb
