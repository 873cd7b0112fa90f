// Copyright 2026 The updb Authors.
// IDCA — Iterative Domination Count Approximation (Algorithm 1).
//
// Given a target object B, a reference object R and a set of database
// objects, IDCA computes conservative/progressive bounds on the PDF of
// DomCount(B,R) (Definition 3):
//
//  1. Filter: classify every other object against B w.r.t. R with a
//     complete-domination criterion (Section III-A). Objects that dominate
//     B in every world only shift the count; objects dominated by B in
//     every world are dropped; the rest are the "influence objects".
//  2. Refine: per iteration, deepen the kd-decomposition (Section V) of B,
//     R and every influence object by one level. For every pair of
//     partitions (B', R') — a disjoint set of possible worlds, Section
//     IV-E — compute per-candidate probabilistic domination brackets
//     (Lemma 1/2; independent across candidates by Lemma 5), combine them
//     with an uncertain generating function (Section IV-C/D), and
//     aggregate the per-pair count bounds weighted by P(B')P(R').
//     Complete domination is monotone under shrinking rectangles, so a
//     decided (A', B', R') triple stays decided in every refinement: only
//     undecided triples are re-tested one level deeper, decided mass is
//     inherited, and a pair whose candidates are all decided is frozen —
//     its contribution is banked once instead of being expanded 4x per
//     level. This is the engine's only refinement path; its bounds equal
//     a from-scratch evaluation of every level-h triple up to
//     floating-point regrouping (tests/idca_oracle.h).
//  3. Stop: when a query predicate P(DomCount < k) vs tau is decided, the
//     accumulated uncertainty drops below a budget, the decompositions are
//     exhausted (exact result), or max_iterations is reached.

#ifndef UPDB_CORE_IDCA_H_
#define UPDB_CORE_IDCA_H_

#include <optional>
#include <vector>

#include "domination/pdom.h"
#include "gf/count_bounds.h"
#include "index/rtree.h"
#include "obs/trace.h"
#include "uncertain/database.h"
#include "uncertain/decomposition.h"

namespace updb {

namespace cache {
class VerdictMemo;
}  // namespace cache

/// Tuning knobs of the IDCA engine.
struct IdcaConfig {
  LpNorm norm = LpNorm::Euclidean();
  /// Complete-domination test used in both the filter and the refinement
  /// loop. kOptimal is the paper's contribution; kMinMax is the baseline
  /// compared against in Figure 6.
  DominationCriterion criterion = DominationCriterion::kOptimal;
  /// Maximum number of refinement iterations (kd-tree height h).
  int max_iterations = 8;
  /// Run the complete-domination filter through an R-tree instead of a
  /// linear database scan (the index integration the paper names as
  /// future work). Requires an index to be supplied to the engine;
  /// whole subtrees whose node MBR is dominated (or dominating) are
  /// pruned (or bulk-counted) without touching their objects.
  bool use_index_filter = false;
  /// Stop once the accumulated uncertainty Sum_k (ub_k - lb_k) falls to or
  /// below this value.
  double uncertainty_epsilon = 0.0;
  /// Record per-iteration statistics (uncertainty/time curves). The
  /// iteration count itself (IdcaResult::iterations_run) is kept either
  /// way.
  bool collect_stats = true;
  /// Threads used for the per-iteration (B', R') partition-pair loop.
  /// 1 = serial (default), 0 = all hardware threads, N = exactly N. The
  /// pair loop aggregates into a fixed number of chunk-local partial
  /// accumulators that are reduced in chunk order, so the result is
  /// identical for every thread count.
  int num_threads = 1;
  /// Optional span sink ("idca_run" + one "idca_iter" per refinement
  /// iteration). nullptr (the default) costs one branch per iteration and
  /// never affects any computed bound or payload.
  obs::TraceRecorder* trace = nullptr;
  /// Optional *cross-request* verdict memo (cache/verdict_memo.h), shared
  /// by every run against one immutable store snapshot: decided
  /// (candidate-partition, B', R') verdicts recorded by one run are
  /// reused by later runs over the same triples instead of re-deriving
  /// the geometry. A memo hit reproduces exactly the verdict the
  /// domination kernel's Classify would return (the memo stores only
  /// decided triples, and its keys name deterministic frontier nodes), so
  /// every computed bound and payload is bit-identical with the memo on or
  /// off.
  /// nullptr (the default) costs one branch per domination test. Distinct
  /// from the engine's verdict inheritance, which reuses verdicts *within*
  /// one run.
  cache::VerdictMemo* verdict_memo = nullptr;
  /// Caller-supplied memo key context (VerdictMemo::MixContext of the
  /// snapshot version and the query object's canonical serialization
  /// token). Ignored when verdict_memo is null.
  uint64_t memo_context = 0;
};

/// Optional early-termination predicate: decide P(DomCount(B,R) < k)
/// against threshold tau (the threshold-kNN/RkNN shape of Section VI).
struct IdcaPredicate {
  size_t k = 1;
  double tau = 0.5;
};

/// Outcome of predicate evaluation.
enum class PredicateDecision {
  kUndecided,
  kTrue,   // P(DomCount < k) > tau is certain
  kFalse,  // P(DomCount < k) <= tau is certain
};

/// Telemetry captured after the filter step (iteration 0) and after each
/// refinement iteration.
struct IdcaIterationStats {
  int iteration = 0;
  /// Sum_k (ub_k - lb_k) over the full rank array — Figure 6(b)'s metric.
  double total_uncertainty = 0.0;
  /// Mean width of the influence objects' PDom brackets — Figure 7's
  /// metric ("avg. uncertainty of an influenceObject").
  double avg_influence_uncertainty = 0.0;
  /// Wall-clock seconds since the query started (cumulative).
  double cumulative_seconds = 0.0;
  /// Partition pairs (B', R') evaluated this iteration.
  size_t pairs = 0;
  /// Candidate partitions actually tested against pairs this iteration
  /// (upper bounds the number of domination tests up to a factor of 2).
  /// Only triples left undecided one level up are re-tested, so this
  /// exposes the work verdict inheritance saves.
  size_t candidate_partitions = 0;
};

/// Deterministic work counters of one IDCA run. Each is accumulated in
/// chunk-local partials and reduced in chunk order (integer addition, so
/// the totals are exactly thread-count-invariant whenever the work
/// partition is — the idca_parallel_test asserts this). They describe cost,
/// never influence it, and stay outside the response digest.
struct IdcaCounters {
  /// Partition pairs (B', R') evaluated across all iterations.
  uint64_t pairs_evaluated = 0;
  /// Pairs whose contribution was banked once and never re-expanded
  /// because every candidate's verdict in them was decided.
  uint64_t pairs_frozen = 0;
  /// Triples resolved in the refinement loop (a domination-kernel call,
  /// or the identical decided verdict replayed from a cross-request
  /// verdict memo — counted the same so the totals stay deterministic
  /// whatever the memo's concurrent fill state).
  uint64_t domination_tests = 0;
  /// (candidate, pair) slots that inherited resolved mass from the
  /// previous iteration, vs. triples resolved by a fresh domination test.
  uint64_t verdict_cache_hits = 0;
  uint64_t verdict_cache_misses = 0;
  /// UGF factor multiplications (the engine's inner-loop unit of work).
  uint64_t ugf_multiplies = 0;

  IdcaCounters& operator+=(const IdcaCounters& o) {
    pairs_evaluated += o.pairs_evaluated;
    pairs_frozen += o.pairs_frozen;
    domination_tests += o.domination_tests;
    verdict_cache_hits += o.verdict_cache_hits;
    verdict_cache_misses += o.verdict_cache_misses;
    ugf_multiplies += o.ugf_multiplies;
    return *this;
  }
};

/// Full output of one IDCA run.
struct IdcaResult {
  /// Bounds on P(DomCount = k) for k = 0..N-1 (N = database size). In
  /// predicate mode, ranks at or above the predicate's k window are only
  /// coarsely bounded (the truncated UGF does not materialize them).
  CountDistributionBounds bounds;
  /// Objects that dominate B w.r.t. R in every possible world.
  size_t complete_domination_count = 0;
  /// Objects whose domination relation stayed undecided after the filter.
  size_t influence_count = 0;
  /// Final marginal PDom brackets of the influence objects (diagnostics).
  std::vector<ProbabilityBounds> influence_pdom;
  /// Bounds on P(DomCount < k); only set when a predicate was given.
  ProbabilityBounds predicate_prob;
  PredicateDecision decision = PredicateDecision::kUndecided;
  /// Per-iteration telemetry when collect_stats is on: the filter's entry
  /// at index 0, then one entry per refinement iteration. Empty when
  /// collect_stats is off.
  std::vector<IdcaIterationStats> iterations;
  /// Refinement iterations executed (the filter is not one), whatever
  /// collect_stats is.
  size_t iterations_run = 0;
  /// Deterministic work counters (profiling; outside the digest).
  IdcaCounters counters;
  double seconds = 0.0;

  IdcaResult() : bounds(0) {}
};

/// The IDCA query engine. Stateless w.r.t. queries; one engine can serve
/// many calls against the same database, from any number of threads.
///
/// Working memory is per thread, not per engine or per run: each thread
/// keeps one engine workspace (chunk partials, pair blocks, decomposition
/// trees, and per-worker UGF scratch for the pair loop) that every run on
/// that thread reuses, whichever engine it goes through. Buffers only
/// grow, so a thread holds at most the footprint of the largest run it
/// has executed; after one warm-up run, a run of that size or smaller
/// allocates only the IdcaResult it returns (with the linear filter and
/// boxes of up to four dimensions). A run must not start another run on
/// its own thread — the workspace is busy, which is a checked error.
/// Reuse never changes a result: payloads and counters are bit-identical
/// to a run on a fresh thread.
class IdcaEngine {
 public:
  /// `db` must outlive the engine.
  explicit IdcaEngine(const UncertainDatabase& db, IdcaConfig config = {});

  /// Engine with an R-tree over the database's uncertainty regions,
  /// enabling config.use_index_filter. Both `db` and `index` must outlive
  /// the engine; `index` must index exactly the objects of `db`.
  IdcaEngine(const UncertainDatabase& db, const RTree* index,
             IdcaConfig config);

  /// Bounds for DomCount(B, R): how many database objects are closer to R
  /// than B is. `b` indexes a database object; `r` is an arbitrary
  /// reference PDF (an uncertain query object, or another object's PDF)
  /// of the database's dimension (UPDB_CHECK).
  IdcaResult ComputeDomCount(ObjectId b, const Pdf& r,
                             std::optional<IdcaPredicate> predicate =
                                 std::nullopt) const;

  /// Bounds for DomCount(Q, B): how many database objects are closer to
  /// the *database object* `b_ref` than the external object Q is. This is
  /// the quantity RkNN queries need (Corollary 5: B is an RkNN of Q iff
  /// DomCount(Q, B) < k). Q must have the database's dimension
  /// (UPDB_CHECK).
  IdcaResult ComputeDomCountOfQuery(const Pdf& q, ObjectId b_ref,
                                    std::optional<IdcaPredicate> predicate =
                                        std::nullopt) const;

  const IdcaConfig& config() const { return config_; }

 private:
  /// Shared implementation: bounds for the number of database objects
  /// (excluding `exclude`) that are closer to `reference` than `target`.
  /// `target_is_database_object` records which operand `exclude` names
  /// (true: ComputeDomCount's target; false: ComputeDomCountOfQuery's
  /// reference) — part of the verdict-memo key, since the two directions
  /// test different geometry. Dispatches the domination kernel once and
  /// runs RunWith.
  IdcaResult Run(const Pdf& target, const Pdf& reference, ObjectId exclude,
                 bool target_is_database_object,
                 std::optional<IdcaPredicate> predicate) const;

  /// Run's body for one domination kernel: `terms` is an empty PairTerms
  /// of the configured criterion and norm (domination/kernel.h).
  template <class Terms>
  IdcaResult RunWith(Terms terms, const Pdf& target, const Pdf& reference,
                     ObjectId exclude, bool target_is_database_object,
                     std::optional<IdcaPredicate> predicate) const;

  /// Complete-domination filter (Algorithm 1, lines 3-10) against the
  /// (target, reference) pair `terms`: counts existentially certain
  /// complete dominators into `complete` and collects the influence
  /// objects. Uses the R-tree when configured.
  template <class Terms>
  void Filter(const Terms& terms, ObjectId exclude, size_t& complete,
              std::vector<const UncertainObject*>& influence) const;

  const UncertainDatabase& db_;
  const RTree* index_ = nullptr;
  IdcaConfig config_;
};

}  // namespace updb

#endif  // UPDB_CORE_IDCA_H_
