// Copyright 2026 The updb Authors.
// Probabilistic similarity queries built on the probabilistic domination
// count (Section VI):
//
//  * Threshold kNN  (Corollary 4): B qualifies iff
//    P(DomCount(B,Q) < k) > tau.
//  * Threshold RkNN (Corollary 5): B qualifies iff
//    P(DomCount(Q,B) < k) > tau (Q counted w.r.t. reference B).
//  * Inverse ranking (Corollary 3): P(Rank(B,R) = i) =
//    P(DomCount(B,R) = i-1).
//  * Expected rank  (Corollary 6): order objects by E[Rank] = E[DomCount]+1.
//
// All queries share the same two-phase structure: an index-assisted
// spatial candidate filter, then per-candidate IDCA with an early-stopping
// predicate. The filters see the index only as nearest-first scans that
// emit (database id, MinDist); boxes come from the database's flat MBR
// array, so an `index` passed here must be built over `db`
// (BuildRTree(db.objects())).

#ifndef UPDB_QUERIES_QUERIES_H_
#define UPDB_QUERIES_QUERIES_H_

#include <functional>
#include <span>
#include <vector>

#include "core/idca.h"
#include "index/rtree.h"

namespace updb {

/// Per-object outcome of a threshold query.
struct ThresholdQueryResult {
  ObjectId id = kInvalidObjectId;
  /// Bounds on the predicate probability P(DomCount < k) when IDCA ran.
  ProbabilityBounds prob;
  /// kTrue: qualifies; kFalse: does not; kUndecided: bounds did not
  /// separate from tau within the iteration budget (the caller receives
  /// the bracket and decides — the paper's "confidence value" fallback).
  PredicateDecision decision = PredicateDecision::kUndecided;
};

/// Aggregate statistics of a query run.
struct QueryStats {
  /// Objects surviving the cheap index-level spatial filter (and therefore
  /// evaluated with IDCA).
  size_t candidates = 0;
  /// Total IDCA refinement iterations across all candidates.
  size_t idca_iterations = 0;
  /// Engine work counters summed over every candidate's IDCA run.
  IdcaCounters counters;
  double seconds = 0.0;
};

/// Probabilistic threshold k-nearest-neighbor query: returns an entry for
/// every candidate that could not be pruned spatially, in ascending id
/// order, with its predicate probability bracket and decision. Objects
/// pruned by the filter are guaranteed non-results and are not reported.
std::vector<ThresholdQueryResult> ProbabilisticThresholdKnn(
    const UncertainDatabase& db, const RTree& index, const Pdf& q, size_t k,
    double tau, const IdcaConfig& config = {}, QueryStats* stats = nullptr);

/// Probabilistic threshold reverse k-nearest-neighbor query; reports its
/// candidates like ProbabilisticThresholdKnn.
std::vector<ThresholdQueryResult> ProbabilisticThresholdRknn(
    const UncertainDatabase& db, const RTree& index, const Pdf& q, size_t k,
    double tau, const IdcaConfig& config = {}, QueryStats* stats = nullptr);

/// Probabilistic inverse ranking: bounds on the rank distribution of `b`
/// w.r.t. reference `r`. Entry i (0-based) bounds P(Rank(B,R) = i+1); the
/// array has db.size() entries (ranks 1..N).
CountDistributionBounds ProbabilisticInverseRanking(
    const UncertainDatabase& db, ObjectId b, const Pdf& r,
    const IdcaConfig& config = {});

/// One entry of an expected-rank ordering.
struct ExpectedRankEntry {
  ObjectId id = kInvalidObjectId;
  /// Bounds on E[Rank(object, Q)] (1-based rank).
  ProbabilityBounds expected_rank;
};

/// Orders all database objects by (the midpoint of) their expected-rank
/// bounds w.r.t. the query object Q — the expected-rank semantics of
/// Cormode et al. referenced by Corollary 6. Every object is refined, so
/// no index is taken (config.use_index_filter must be off); `stats`
/// (optional) receives every object as a candidate and the summed
/// iterations and counters of the per-object runs. The serving layer
/// calls this too, so its payloads cannot diverge from the direct path.
std::vector<ExpectedRankEntry> ExpectedRankOrder(
    const UncertainDatabase& db, const Pdf& q, const IdcaConfig& config = {},
    QueryStats* stats = nullptr);

// ---- The threshold-query pipeline (Section VI): a spatial candidate
// filter, then IDCA on each candidate with an early-stopping predicate.
// ProbabilisticThreshold{Knn,Rknn} and the serving layer both run it
// through the three functions below, so their candidate sets, payloads
// and stats cannot drift apart.

/// Receives one entry of a MinDistScan as (database id, MinDist);
/// returning false stops the scan. Entries carry no box: a filter that
/// needs one reads db.mbr_box(id), which the scan's distance was computed
/// from (index entries and database MBRs are both the object's
/// pdf->bounds()).
using MinDistEmit = std::function<bool(ObjectId, double)>;
/// An index scan from a rect in ascending MinDist(entry, rect) order,
/// emitting database ids — the only index query the pipeline makes. The
/// filters take one scan per index partition: RTree::ScanByMinDist over
/// the direct path's tree (built over the same database), or
/// ShardedSnapshotIndex::ShardScanByMinDist once per store shard.
/// Together the scans must cover every object exactly once.
using MinDistScan = std::function<void(const Rect&, const MinDistEmit&)>;

/// KnnCandidates' cutoff: the k-th smallest MaxDist(object, q_mbr) over
/// the *existentially certain* objects (an object that may be absent
/// cannot guarantee to push a candidate out of the kNN set in every
/// world). Returns +infinity when fewer than k certain objects exist —
/// nothing is spatially prunable then. `q_mbr` must have the database's
/// dimension (UPDB_CHECK, here and in KnnCandidates).
double KnnPruneDistance(const UncertainDatabase& db, const Rect& q_mbr,
                        size_t k, const LpNorm& norm);

/// Threshold-kNN candidate filter: B is no kNN result in any world once
/// MinDist(B, Q) exceeds KnnPruneDistance, since at least k certain
/// objects then MinMax-dominate B w.r.t. Q. Returns every other object in
/// ascending id order. Each scan stops at its first entry past the
/// cutoff, which does not depend on how `scans` split the objects.
std::vector<ObjectId> KnnCandidates(const UncertainDatabase& db,
                                    const Rect& q_mbr, size_t k,
                                    std::span<const MinDistScan> scans,
                                    const LpNorm& norm);

/// One threshold-RkNN query as seen by the dominator count: the query
/// object's MBR and the k it is counted against.
struct DominatorProbe {
  const Rect* query = nullptr;
  size_t k = 0;
};

/// Threshold-RkNN candidate filter for a batch of probes (Corollary 5
/// with the domination `criterion`): B is no RkNN of a probe's Q once at
/// least k existentially certain objects A != B completely dominate Q
/// w.r.t. B. Every such dominator intersects B's MBR expanded by
/// MaxDist(Q, B) in every dimension, so the filter counts the certain
/// objects inside that box with Dominates(A, Q, B), capped at the probe's
/// k, and returns, per probe and in ascending id order, every object whose
/// count stays below k. Each probe's query must have the database's
/// dimension (UPDB_CHECK).
///
/// The objects are tiled into spatial groups of 16 in Sort-Tile-Recursive
/// order of their MBR centres (the R-tree's bulk-load order). Each scan
/// runs once per group, nearest-first from the hull of the members' MBRs,
/// and tests every emitted certain A against every (member, probe) pair
/// still short of its k; it stops once every pair holds its k or its
/// distance passes every open pair's box. A box entry is never farther
/// from the hull than from its member, so no dominator is missed, and a
/// capped count does not depend on scan order, so the counts are those of
/// one scan per object. Groups go in blocks of 64, which keeps the count
/// buffers O(scans x probes x 1,024); within a block the scans count in
/// parallel, each in one set of per-pair buffers allocated once per call,
/// and their capped counts add up in scan order. A probe's candidates do
/// not depend on its batch or on `scans`' split.
std::vector<std::vector<ObjectId>> RknnCandidates(
    const UncertainDatabase& db, std::span<const DominatorProbe> probes,
    std::span<const MinDistScan> scans, DominationCriterion criterion,
    const LpNorm& norm);

/// One candidate's refinement: a single IDCA run under `predicate` —
/// DomCount(B, Q) for kNN, DomCount(Q, B) for RkNN (`reverse`) — with
/// B = `candidate`. `run` receives the run's stats (one candidate, its
/// iterations and engine counters). RefineThresholdCandidates and the
/// serving layer's per-candidate jobs both call this, so their payloads
/// and stats cannot drift apart.
ThresholdQueryResult RefineThresholdCandidate(const IdcaEngine& engine,
                                              const Pdf& q, ObjectId candidate,
                                              IdcaPredicate predicate,
                                              bool reverse, QueryStats* run);

/// Per-run stats summed in run order (candidates, iterations, engine
/// counters); `seconds` is left to the caller.
QueryStats SumRunStats(std::span<const QueryStats> runs);

/// The per-candidate refinement loop: RefineThresholdCandidate for every
/// candidate, reported in the order of `candidates`. Candidates are
/// independent problems spread over `num_threads` (IdcaConfig
/// semantics); the results are the same for every thread count. `stats`
/// (optional) receives SumRunStats of the runs in candidate order.
std::vector<ThresholdQueryResult> RefineThresholdCandidates(
    const IdcaEngine& engine, const Pdf& q,
    std::span<const ObjectId> candidates, IdcaPredicate predicate,
    bool reverse, int num_threads, QueryStats* stats);

/// Answer entry of a U-kRanks-style query (Soliman & Ilyas, cited as [25]):
/// for one rank position, the object most likely to occupy it.
struct RankWinner {
  /// 1-based rank position.
  size_t rank = 0;
  /// Object with the highest lower-bounded probability of taking `rank`.
  ObjectId winner = kInvalidObjectId;
  /// Bounds on P(Rank(winner, Q) = rank).
  ProbabilityBounds prob;
  /// True when the winner's lower bound beats every other candidate's
  /// upper bound, i.e. the winner is certain whatever the residual
  /// uncertainty. False answers still report the best-known candidate.
  bool decided = false;
};

/// U-kRanks over the first `max_rank` positions: per rank i, the object
/// maximizing P(Rank = i) w.r.t. the uncertain query object Q, derived
/// from the domination-count bounds (Corollary 3: Rank = DomCount + 1).
/// Candidates are pre-filtered through the index like threshold kNN; a
/// tie for a rank goes to the lower id.
std::vector<RankWinner> UkRanksQuery(const UncertainDatabase& db,
                                     const RTree& index, const Pdf& q,
                                     size_t max_rank,
                                     const IdcaConfig& config = {});

}  // namespace updb

#endif  // UPDB_QUERIES_QUERIES_H_
