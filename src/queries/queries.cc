#include "queries/queries.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "domination/kernel.h"

namespace updb {

namespace {

/// The nearest-first scan of a whole R-tree, as the candidate filters
/// take it.
MinDistScan IndexScan(const RTree& index, const LpNorm& norm) {
  return [&index, &norm](const Rect& from, const MinDistEmit& emit) {
    index.ScanByMinDist(from, emit, norm);
  };
}

/// What one IDCA run adds to a QueryStats.
QueryStats RunStats(const IdcaResult& r) {
  return QueryStats{1, r.iterations_run(), r.counters};
}

/// Per-run stats summed in run order; `seconds` is left to the caller.
QueryStats SumRunStats(std::span<const QueryStats> runs) {
  QueryStats sum;
  for (const QueryStats& run : runs) {
    sum.candidates += run.candidates;
    sum.idca_iterations += run.idca_iterations;
    sum.counters += run.counters;
  }
  return sum;
}

/// Both threshold queries over a whole R-tree: the direct-path caller of
/// the pipeline the serving layer runs per shard.
std::vector<ThresholdQueryResult> ThresholdQuery(
    const UncertainDatabase& db, const RTree& index, const Pdf& q, size_t k,
    double tau, const IdcaConfig& config, QueryStats* stats, bool reverse) {
  UPDB_CHECK(k >= 1);
  Stopwatch timer;
  const MinDistScan scan = IndexScan(index, config.norm);
  std::vector<ObjectId> candidates;
  if (reverse) {
    const DominatorProbe probe{&q.bounds(), k};
    candidates = RknnCandidates(db, {&probe, 1}, {&scan, 1}, config.criterion,
                                config.norm)[0];
  } else {
    candidates = KnnCandidates(db, q.bounds(), k, {&scan, 1}, config.norm);
  }
  const IdcaEngine engine(db, &index, config);
  std::vector<ThresholdQueryResult> results =
      RefineThresholdCandidates(engine, q, candidates, IdcaPredicate{k, tau},
                                reverse, config.num_threads, stats);
  if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
  return results;
}

/// True iff the box `a` intersects `b` expanded by `reach` in every
/// dimension — the box [b.lo - reach, b.hi + reach] per side, tested
/// without building it.
bool IntersectsExpanded(std::span<const Interval> a, const Rect& b,
                        double reach) {
  for (size_t i = 0; i < b.dim(); ++i) {
    const Interval& side = b.side(i);
    if (!(side.lo() - reach <= a[i].hi() && a[i].lo() <= side.hi() + reach)) {
      return false;
    }
  }
  return true;
}

/// A distance no MinDist(a, b) exceeds for any `a` that passes
/// IntersectsExpanded(a, b, reach). Such an `a` lies within the rounded
/// box, so its gap to b in dimension i is at most G_i, the larger
/// overhang of the rounded box side beyond b's side (about reach).
/// MinDist sums Pow(gap_i) and takes Root, all monotone, so
/// Root(sum Pow(G_i)) bounds it — at most d^(1/p) * reach in exact
/// arithmetic. std::pow, which Pow uses for p >= 3, is not guaranteed
/// monotone to the last ulp; the 2^-30 relative slack absorbs that. An
/// overflowed sum gives +inf, which cuts nothing.
double ExpandedReachBound(const Rect& b, double reach, const LpNorm& norm) {
  double sum = 0.0;
  for (size_t i = 0; i < b.dim(); ++i) {
    const Interval& side = b.side(i);
    sum += norm.Pow(std::max((side.hi() + reach) - side.hi(),
                             side.lo() - (side.lo() - reach)));
  }
  return norm.Root(sum) * (1.0 + 0x1p-30);
}

/// CountRknnDominators' per-probe buffers, sized once and reused for
/// every object a scan task counts.
template <class Terms>
struct DominatorScratch {
  DominatorScratch(const Terms& prototype, size_t probes)
      : reach(probes), bound(probes), terms(probes, prototype) {}

  std::vector<double> reach;
  std::vector<double> bound;
  /// terms[r] is the (Q_r, B) half of every "A dominates Q_r w.r.t. B"
  /// test, recomputed per object for each probe that can count.
  std::vector<Terms> terms;
};

/// CountRknnDominators for one domination kernel, over `scratch` (built
/// for probes.size() probes).
template <class Terms>
void CountRknnDominatorsWith(const UncertainDatabase& db, ObjectId b,
                             std::span<const DominatorProbe> probes,
                             const MinDistScan& scan, const LpNorm& norm,
                             std::span<uint32_t> counts,
                             DominatorScratch<Terms>& scratch) {
  UPDB_DCHECK(counts.size() == probes.size());
  UPDB_DCHECK(scratch.terms.size() == probes.size());
  const Rect& b_mbr = db.object(b).mbr();
  // An A that completely dominates Q w.r.t. B has MinDist(A, B) <=
  // MaxDist(Q, B), so it intersects B's MBR expanded by that reach; the
  // scan stops once its distance passes the bound of every probe still
  // short of its k.
  std::vector<double>& reach = scratch.reach;
  std::vector<double>& bound = scratch.bound;
  std::vector<Terms>& terms = scratch.terms;
  double scan_bound = 0.0;
  size_t open = 0;  // probes still short of their k
  for (size_t r = 0; r < probes.size(); ++r) {
    counts[r] = 0;
    if (probes[r].k == 0) continue;
    terms[r].Reset(probes[r].query->sides(), b_mbr.sides());
    reach[r] = norm.MaxDist(*probes[r].query, b_mbr);
    bound[r] = ExpandedReachBound(b_mbr, reach[r], norm);
    scan_bound = std::max(scan_bound, bound[r]);
    ++open;
  }
  if (open == 0) return;

  const auto visit = [&](ObjectId a, double dist) {
    if (dist > scan_bound) return false;
    // Only existentially certain objects dominate Q in *every* world.
    if (a == b || !db.object(a).existentially_certain()) return true;
    const std::span<const Interval> a_box = db.mbr_box(a);
    bool closed = false;
    for (size_t r = 0; r < probes.size(); ++r) {
      if (counts[r] >= probes[r].k ||
          !IntersectsExpanded(a_box, b_mbr, reach[r]) ||
          !Dominates(terms[r], a_box)) {
        continue;
      }
      if (++counts[r] == probes[r].k) {
        --open;
        closed = true;
      }
    }
    if (open == 0) return false;
    if (closed) {
      scan_bound = 0.0;
      for (size_t r = 0; r < probes.size(); ++r) {
        if (counts[r] < probes[r].k) {
          scan_bound = std::max(scan_bound, bound[r]);
        }
      }
    }
    return true;
  };
  // std::cref: the MinDistEmit then holds a pointer-sized reference, not
  // a heap copy of the closure.
  scan(b_mbr, std::cref(visit));
}

}  // namespace

double KnnPruneDistance(const UncertainDatabase& db, const Rect& q_mbr,
                        size_t k, const LpNorm& norm) {
  UPDB_CHECK(k >= 1);
  // k-th smallest MaxDist (partial selection) over the certain objects.
  std::vector<double> maxdists;
  maxdists.reserve(db.size());
  for (const UncertainObject& o : db.objects()) {
    if (o.existentially_certain()) {
      maxdists.push_back(norm.MaxDist(o.mbr(), q_mbr));
    }
  }
  if (maxdists.size() < k) return std::numeric_limits<double>::infinity();
  const size_t kth = k - 1;
  std::nth_element(maxdists.begin(), maxdists.begin() + kth, maxdists.end());
  return maxdists[kth];
}

void CountRknnDominators(const UncertainDatabase& db, ObjectId b,
                         std::span<const DominatorProbe> probes,
                         const MinDistScan& scan,
                         DominationCriterion criterion, const LpNorm& norm,
                         std::span<uint32_t> counts) {
  WithPairTerms(criterion, norm, [&](auto prototype) {
    DominatorScratch scratch(prototype, probes.size());
    CountRknnDominatorsWith(db, b, probes, scan, norm, counts, scratch);
  });
}

std::vector<ObjectId> KnnCandidates(const UncertainDatabase& db,
                                    const Rect& q_mbr, size_t k,
                                    std::span<const MinDistScan> scans,
                                    const LpNorm& norm) {
  const double prune_dist = KnnPruneDistance(db, q_mbr, k, norm);
  std::vector<std::vector<ObjectId>> per_scan(scans.size());
  ThreadPool::SharedParallelFor(
      scans.size(), scans.size(), [&](size_t s, size_t /*worker*/) {
        std::vector<ObjectId>& ids = per_scan[s];
        scans[s](q_mbr, [&ids, prune_dist](ObjectId id, double dist) {
          if (dist > prune_dist) return false;  // all further are pruned
          ids.push_back(id);
          return true;
        });
      });
  std::vector<ObjectId> candidates;
  for (const std::vector<ObjectId>& ids : per_scan) {
    candidates.insert(candidates.end(), ids.begin(), ids.end());
  }
  std::sort(candidates.begin(), candidates.end());
  return candidates;
}

std::vector<std::vector<ObjectId>> RknnCandidates(
    const UncertainDatabase& db, std::span<const DominatorProbe> probes,
    std::span<const MinDistScan> scans, DominationCriterion criterion,
    const LpNorm& norm) {
  const size_t count = probes.size();
  std::vector<std::vector<ObjectId>> candidates(count);
  // dominators[s][i * count + r] is scan s's count for object
  // block_begin + i and probe r. Block and scan order are both fixed, so
  // the candidate lists come out in ascending id order.
  constexpr size_t kBlock = 1024;
  std::vector<std::vector<uint32_t>> dominators(scans.size());
  WithPairTerms(criterion, norm, [&](auto prototype) {
    // One set of per-probe buffers per scan task, reused for all its
    // objects.
    std::vector<DominatorScratch<decltype(prototype)>> scratch(
        scans.size(), DominatorScratch(prototype, count));
    for (size_t block_begin = 0; block_begin < db.size();
         block_begin += kBlock) {
      const size_t block = std::min(kBlock, db.size() - block_begin);
      ThreadPool::SharedParallelFor(
          scans.size(), scans.size(), [&](size_t s, size_t /*worker*/) {
            std::vector<uint32_t>& counts = dominators[s];
            counts.resize(block * count);
            for (size_t i = 0; i < block; ++i) {
              CountRknnDominatorsWith(
                  db, static_cast<ObjectId>(block_begin + i), probes,
                  scans[s], norm,
                  std::span<uint32_t>(counts).subspan(i * count, count),
                  scratch[s]);
            }
          });
      for (size_t i = 0; i < block; ++i) {
        const ObjectId b = static_cast<ObjectId>(block_begin + i);
        for (size_t r = 0; r < count; ++r) {
          size_t total = 0;
          for (const std::vector<uint32_t>& counts : dominators) {
            total += counts[i * count + r];
          }
          if (total < probes[r].k) candidates[r].push_back(b);
        }
      }
    }
  });
  return candidates;
}

std::vector<ThresholdQueryResult> RefineThresholdCandidates(
    const IdcaEngine& engine, const Pdf& q,
    std::span<const ObjectId> candidates, IdcaPredicate predicate,
    bool reverse, int num_threads, QueryStats* stats) {
  // Candidates are mutually independent IDCA problems: each writes only
  // its own slots, so the loop parallelizes with no reduction step. Any
  // pair-loop parallelism inside the engine runs inline here (nested
  // regions), keeping this coarser-grained level.
  std::vector<ThresholdQueryResult> results(candidates.size());
  std::vector<QueryStats> runs(candidates.size());
  ThreadPool::SharedParallelFor(
      candidates.size(), ThreadPool::EffectiveParallelism(num_threads),
      [&](size_t c, size_t /*worker*/) {
        const ObjectId id = candidates[c];
        const IdcaResult r =
            reverse ? engine.ComputeDomCountOfQuery(q, id, predicate)
                    : engine.ComputeDomCount(id, q, predicate);
        runs[c] = RunStats(r);
        results[c] = ThresholdQueryResult{id, r.predicate_prob, r.decision};
      });
  if (stats != nullptr) *stats = SumRunStats(runs);
  return results;
}

std::vector<ThresholdQueryResult> ProbabilisticThresholdKnn(
    const UncertainDatabase& db, const RTree& index, const Pdf& q, size_t k,
    double tau, const IdcaConfig& config, QueryStats* stats) {
  return ThresholdQuery(db, index, q, k, tau, config, stats,
                        /*reverse=*/false);
}

std::vector<ThresholdQueryResult> ProbabilisticThresholdRknn(
    const UncertainDatabase& db, const RTree& index, const Pdf& q, size_t k,
    double tau, const IdcaConfig& config, QueryStats* stats) {
  return ThresholdQuery(db, index, q, k, tau, config, stats,
                        /*reverse=*/true);
}

CountDistributionBounds ProbabilisticInverseRanking(
    const UncertainDatabase& db, ObjectId b, const Pdf& r,
    const IdcaConfig& config) {
  IdcaEngine engine(db, config);
  // P(Rank = i) = P(DomCount = i-1): the domination-count bounds are the
  // rank distribution, 0-based.
  return engine.ComputeDomCount(b, r).bounds;
}

std::vector<RankWinner> UkRanksQuery(const UncertainDatabase& db,
                                     const RTree& index, const Pdf& q,
                                     size_t max_rank,
                                     const IdcaConfig& config) {
  UPDB_CHECK(max_rank >= 1);
  // Only objects that can have fewer than max_rank dominators can occupy
  // one of the first max_rank positions — the same spatial filter as
  // threshold kNN.
  const MinDistScan scan = IndexScan(index, config.norm);
  const std::vector<ObjectId> candidates =
      KnnCandidates(db, q.bounds(), max_rank, {&scan, 1}, config.norm);

  IdcaEngine engine(db, &index, config);
  std::vector<CountDistributionBounds> bounds(candidates.size(),
                                              CountDistributionBounds(0));
  ThreadPool::SharedParallelFor(
      candidates.size(), ThreadPool::EffectiveParallelism(config.num_threads),
      [&](size_t c, size_t /*worker*/) {
        bounds[c] = engine.ComputeDomCount(candidates[c], q).bounds;
      });

  std::vector<RankWinner> winners;
  winners.reserve(max_rank);
  for (size_t rank = 1; rank <= max_rank; ++rank) {
    const size_t count = rank - 1;  // Corollary 3
    RankWinner w;
    w.rank = rank;
    double best_other_ub = 0.0;
    size_t best = 0;
    for (size_t c = 0; c < bounds.size(); ++c) {
      if (count >= bounds[c].num_ranks()) continue;
      if (w.winner == kInvalidObjectId ||
          bounds[c].lb(count) > bounds[best].lb(count)) {
        best = c;
        w.winner = candidates[c];
      }
    }
    if (w.winner != kInvalidObjectId) {
      w.prob = ProbabilityBounds{bounds[best].lb(count),
                                 bounds[best].ub(count)};
      for (size_t c = 0; c < bounds.size(); ++c) {
        if (c == best || count >= bounds[c].num_ranks()) continue;
        best_other_ub = std::max(best_other_ub, bounds[c].ub(count));
      }
      w.decided = w.prob.lb > best_other_ub;
    }
    winners.push_back(w);
  }
  return winners;
}

std::vector<ExpectedRankEntry> ExpectedRankOrder(const UncertainDatabase& db,
                                                 const Pdf& q,
                                                 const IdcaConfig& config,
                                                 const RTree* index,
                                                 QueryStats* stats) {
  Stopwatch timer;
  IdcaEngine engine = index != nullptr ? IdcaEngine(db, index, config)
                                       : IdcaEngine(db, config);
  std::vector<ExpectedRankEntry> entries(db.size());
  std::vector<QueryStats> runs(db.size());
  ThreadPool::SharedParallelFor(
      db.size(), ThreadPool::EffectiveParallelism(config.num_threads),
      [&](size_t o, size_t /*worker*/) {
        const ObjectId id = db.objects()[o].id();
        const IdcaResult r = engine.ComputeDomCount(id, q);
        runs[o] = RunStats(r);
        entries[o] = ExpectedRankEntry{id, r.bounds.ExpectedRank()};
      });
  if (stats != nullptr) {
    *stats = SumRunStats(runs);
    stats->seconds = timer.ElapsedSeconds();
  }
  std::sort(entries.begin(), entries.end(),
            [](const ExpectedRankEntry& a, const ExpectedRankEntry& b) {
              const double ma = 0.5 * (a.expected_rank.lb + a.expected_rank.ub);
              const double mb = 0.5 * (b.expected_rank.lb + b.expected_rank.ub);
              return ma < mb;
            });
  return entries;
}

}  // namespace updb
