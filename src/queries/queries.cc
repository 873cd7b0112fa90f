#include "queries/queries.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <numeric>

#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "domination/kernel.h"
#include "index/str_tiling.h"

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
  return QueryStats{1, r.iterations_run, r.counters};
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
bool IntersectsExpanded(std::span<const Interval> a,
                        std::span<const Interval> b, double reach) {
  for (size_t i = 0; i < b.size(); ++i) {
    if (!(b[i].lo() - reach <= a[i].hi() && a[i].lo() <= b[i].hi() + reach)) {
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

/// Objects per spatial group of the RkNN filter: one dominator scan
/// serves every member of a group.
constexpr size_t kGroup = 16;
/// Groups per block of RknnCandidates (1,024 objects), which bounds its
/// count buffers.
constexpr size_t kBlockGroups = 64;

/// The database's ids in STR order of their MBR centres; consecutive runs
/// of kGroup ids are the RkNN filter's groups.
std::vector<ObjectId> StrOrder(const UncertainDatabase& db) {
  std::vector<ObjectId> order(db.size());
  std::iota(order.begin(), order.end(), ObjectId{0});
  if (!db.empty()) {
    StrTileSort(order.begin(), order.end(), 0, db.dim(), kGroup,
                [&db](ObjectId id, size_t axis) {
                  return db.mbr_box(id)[axis].mid();
                });
  }
  return order;
}

/// One scan task's buffers for counting the dominators of a group,
/// indexed by pair = r * kGroup + i for probe r and member i. Sized once
/// per RknnCandidates call and reused for every group the task counts.
template <class Terms>
struct GroupScratch {
  GroupScratch(const Terms& prototype, size_t probes)
      : reach(kGroup * probes),
        bound(kGroup * probes),
        terms(kGroup * probes, prototype) {
    open.reserve(kGroup * probes);
  }

  std::vector<double> reach;
  std::vector<double> bound;
  /// terms[pair] is the (Q_r, member) half of every "A dominates Q_r
  /// w.r.t. member" test.
  std::vector<Terms> terms;
  /// Pairs still short of their probe's k that the scan has not passed.
  std::vector<uint32_t> open;
};

/// Counts, for every (member, probe) pair of one group, the entries A of
/// `scan` with A != member, A existentially certain, A's MBR intersecting
/// the member's MBR expanded by MaxDist(Q_r, member) in every dimension,
/// and Dominates(A, Q_r, member), capped at probes[r].k, into
/// counts[r * kGroup + i]. Every complete dominator lies inside that box
/// (MinDist(A, member) <= MaxDist(Q_r, member)), so the member is a
/// candidate of probe r iff its count is below k.
///
/// One nearest-first scan from the hull of the members serves all pairs.
/// The hull's sides are the exact min/max of the members' sides, so an
/// entry's per-dimension gap to the hull is never larger than its gap to
/// a member, and every entry inside a pair's box comes no later than
/// that pair's ExpandedReachBound. So a pair is done once it holds its k
/// or the scan's distance passes its bound, and the scan stops once every
/// pair is done. A capped count does not depend on scan order, on the
/// group or on the other probes.
template <class Terms>
void CountGroupDominators(const UncertainDatabase& db,
                          std::span<const ObjectId> members,
                          std::span<const DominatorProbe> probes,
                          const MinDistScan& scan, const LpNorm& norm,
                          std::span<uint32_t> counts,
                          GroupScratch<Terms>& scratch) {
  UPDB_DCHECK(!members.empty() && members.size() <= kGroup);
  UPDB_DCHECK(counts.size() == kGroup * probes.size());
  std::vector<double>& reach = scratch.reach;
  std::vector<double>& bound = scratch.bound;
  std::vector<Terms>& terms = scratch.terms;
  std::vector<uint32_t>& open = scratch.open;
  open.clear();
  double scan_bound = 0.0;
  for (size_t i = 0; i < members.size(); ++i) {
    const Rect& m_mbr = db.object(members[i]).mbr();
    for (size_t r = 0; r < probes.size(); ++r) {
      const size_t pair = r * kGroup + i;
      counts[pair] = 0;
      if (probes[r].k == 0) continue;
      terms[pair].Reset(probes[r].query->sides(), m_mbr.sides());
      reach[pair] = norm.MaxDist(*probes[r].query, m_mbr);
      bound[pair] = ExpandedReachBound(m_mbr, reach[pair], norm);
      scan_bound = std::max(scan_bound, bound[pair]);
      open.push_back(static_cast<uint32_t>(pair));
    }
  }
  if (open.empty()) return;

  const std::span<const Interval> first = db.mbr_box(members[0]);
  std::vector<Interval> hull(first.begin(), first.end());
  for (size_t i = 1; i < members.size(); ++i) {
    const std::span<const Interval> box = db.mbr_box(members[i]);
    for (size_t d = 0; d < hull.size(); ++d) {
      hull[d] = Interval(std::min(hull[d].lo(), box[d].lo()),
                         std::max(hull[d].hi(), box[d].hi()));
    }
  }

  // A pair leaves `open` once it holds its k, or once the scan passes its
  // bound (no later entry can lie inside its box); scan_bound is the
  // largest bound still open.
  const auto visit = [&](ObjectId a, double dist) {
    if (dist > scan_bound) return false;
    // Only existentially certain objects dominate Q in *every* world.
    if (!db.object(a).existentially_certain()) return true;
    const std::span<const Interval> a_box = db.mbr_box(a);
    scan_bound = 0.0;
    for (size_t j = 0; j < open.size();) {
      const uint32_t pair = open[j];
      const ObjectId member = members[pair % kGroup];
      bool done = dist > bound[pair];
      if (!done && member != a &&
          IntersectsExpanded(a_box, db.mbr_box(member), reach[pair]) &&
          Dominates(terms[pair], a_box)) {
        done = ++counts[pair] == probes[pair / kGroup].k;
      }
      if (done) {
        open[j] = open.back();
        open.pop_back();
        continue;
      }
      scan_bound = std::max(scan_bound, bound[pair]);
      ++j;
    }
    return !open.empty();
  };
  // std::cref: the MinDistEmit then holds a pointer-sized reference, not
  // a heap copy of the closure.
  scan(Rect(std::move(hull)), std::cref(visit));
}

/// Every query of a filter call must have the database's dimension; the
/// kernels index both boxes by the same dimension.
void CheckQueryDim(const UncertainDatabase& db, const Rect& query) {
  UPDB_CHECK(db.empty() || query.dim() == db.dim());
}

}  // namespace

double KnnPruneDistance(const UncertainDatabase& db, const Rect& q_mbr,
                        size_t k, const LpNorm& norm) {
  UPDB_CHECK(k >= 1);
  CheckQueryDim(db, q_mbr);
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
  for (const DominatorProbe& probe : probes) CheckQueryDim(db, *probe.query);
  std::vector<std::vector<ObjectId>> candidates(count);
  const std::vector<ObjectId> order = StrOrder(db);
  // dominators[s][g * kGroup * count + r * kGroup + i] is scan s's count
  // for member i of the block's group g and probe r; the shard totals add
  // up in scan order.
  constexpr size_t kBlock = kGroup * kBlockGroups;
  const size_t slots = kGroup * count;  // counts per group
  std::vector<std::vector<uint32_t>> dominators(scans.size());
  WithPairTerms(criterion, norm, [&](auto prototype) {
    std::vector<GroupScratch<decltype(prototype)>> scratch(
        scans.size(), GroupScratch(prototype, count));
    for (size_t block_begin = 0; block_begin < order.size();
         block_begin += kBlock) {
      const size_t block = std::min(kBlock, order.size() - block_begin);
      const size_t groups = (block + kGroup - 1) / kGroup;
      ThreadPool::SharedParallelFor(
          scans.size(), scans.size(), [&](size_t s, size_t /*worker*/) {
            std::vector<uint32_t>& counts = dominators[s];
            counts.resize(groups * slots);
            for (size_t g = 0; g < groups; ++g) {
              const size_t first = block_begin + g * kGroup;
              const size_t members = std::min(kGroup, order.size() - first);
              CountGroupDominators(db, {&order[first], members}, probes,
                                   scans[s], norm, {&counts[g * slots], slots},
                                   scratch[s]);
            }
          });
      for (size_t q = 0; q < block; ++q) {
        const size_t slot = (q / kGroup) * slots + q % kGroup;
        for (size_t r = 0; r < count; ++r) {
          size_t total = 0;
          for (const std::vector<uint32_t>& counts : dominators) {
            total += counts[slot + r * kGroup];
          }
          if (total < probes[r].k) {
            candidates[r].push_back(order[block_begin + q]);
          }
        }
      }
    }
  });
  // Groups come in STR order; a payload needs ascending ids.
  for (std::vector<ObjectId>& ids : candidates) {
    std::sort(ids.begin(), ids.end());
  }
  return candidates;
}

QueryStats SumRunStats(std::span<const QueryStats> runs) {
  QueryStats sum;
  for (const QueryStats& run : runs) {
    sum.candidates += run.candidates;
    sum.idca_iterations += run.idca_iterations;
    sum.counters += run.counters;
  }
  return sum;
}

ThresholdQueryResult RefineThresholdCandidate(const IdcaEngine& engine,
                                              const Pdf& q, ObjectId candidate,
                                              IdcaPredicate predicate,
                                              bool reverse, QueryStats* run) {
  const IdcaResult r =
      reverse ? engine.ComputeDomCountOfQuery(q, candidate, predicate)
              : engine.ComputeDomCount(candidate, q, predicate);
  *run = RunStats(r);
  return ThresholdQueryResult{candidate, r.predicate_prob, r.decision};
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
        results[c] = RefineThresholdCandidate(engine, q, candidates[c],
                                              predicate, reverse, &runs[c]);
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
                                                 QueryStats* stats) {
  Stopwatch timer;
  const IdcaEngine engine(db, config);
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
