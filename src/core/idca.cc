#include "core/idca.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>

#include "cache/verdict_memo.h"
#include "common/capacity.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "domination/kernel.h"
#include "gf/ugf_batch.h"

namespace updb {

namespace {

/// Evaluates the predicate decision from bounds on P(DomCount < k).
PredicateDecision Decide(const ProbabilityBounds& p, double tau) {
  if (p.lb > tau) return PredicateDecision::kTrue;
  if (p.ub <= tau) return PredicateDecision::kFalse;
  return PredicateDecision::kUndecided;
}

/// Fixed chunk count for the parallel pair loop. Partial aggregates are
/// kept per chunk and reduced in chunk order, and chunk boundaries depend
/// only on the pair count — never on the thread count or the schedule —
/// so the floating-point result is identical for any num_threads.
constexpr size_t kPairChunks = 64;

/// Verdict-inheritance state for a batch of (B', R') partition pairs, stored as
/// a structure of flat arrays (one heap buffer each instead of per-pair
/// allocations). For every pair and candidate it holds the probability
/// mass already resolved as dominating/dominated at an ancestor level plus
/// the candidate frontier nodes whose verdict is still open. Section V's
/// monotonicity argument is what makes the resolved mass inheritable: a
/// triple decided at some level stays decided in every refinement.
struct PairBlock {
  size_t num_pairs = 0;
  size_t num_candidates = 0;

  std::vector<uint32_t> b_node;   // [num_pairs] target-frontier index
  std::vector<uint32_t> r_node;   // [num_pairs] reference-frontier index
  /// [num_pairs][2C]: per pair, C resolved-dominating masses followed by
  /// C resolved-dominated masses.
  std::vector<double> resolved;
  /// [num_pairs][C+1] offsets into `undecided`; candidate c of pair p owns
  /// undecided[und_off[p*(C+1)+c] .. und_off[p*(C+1)+c+1]).
  std::vector<uint32_t> und_off;
  /// Concatenated still-undecided candidate frontier-node indices.
  std::vector<uint32_t> undecided;

  void Clear(size_t candidates) {
    num_pairs = 0;
    num_candidates = candidates;
    b_node.clear();
    r_node.clear();
    resolved.clear();
    und_off.clear();
    undecided.clear();
  }

  /// Appends every pair of `o`, rebasing its undecided offsets. Keeps this
  /// block's buffer capacities (the merge target is reused per iteration).
  void AppendFrom(const PairBlock& o) {
    UPDB_DCHECK(o.num_candidates == num_candidates);
    const uint32_t base = static_cast<uint32_t>(undecided.size());
    b_node.insert(b_node.end(), o.b_node.begin(), o.b_node.end());
    r_node.insert(r_node.end(), o.r_node.begin(), o.r_node.end());
    resolved.insert(resolved.end(), o.resolved.begin(), o.resolved.end());
    und_off.reserve(und_off.size() + o.und_off.size());
    for (uint32_t off : o.und_off) und_off.push_back(off + base);
    undecided.insert(undecided.end(), o.undecided.begin(), o.undecided.end());
    num_pairs += o.num_pairs;
  }

  /// Grows both blocks' buffers to the larger capacity of the two (cur and
  /// merged swap roles every iteration).
  void EqualizeCapacity(PairBlock& o) {
    updb::EqualizeCapacity(b_node, o.b_node);
    updb::EqualizeCapacity(r_node, o.r_node);
    updb::EqualizeCapacity(resolved, o.resolved);
    updb::EqualizeCapacity(und_off, o.und_off);
    updb::EqualizeCapacity(undecided, o.undecided);
  }
};

/// Per-chunk partial accumulators of one refinement iteration. Chunks own
/// their partials outright, so the parallel loop writes no shared data;
/// everything is reduced serially in chunk order.
///
/// A pair whose candidates are all decided is *frozen*: its contribution
/// is refinement-invariant (children pairs would inherit the identical
/// per-candidate brackets and their weights sum back to the parent's), so
/// instead of expanding it 4x per level forever it is accumulated once
/// into the frozen_* partials, which the Run loop folds into persistent
/// accumulators re-applied every subsequent iteration.
struct ChunkState {
  PairBlock out;                       // next-level pair states
  CountDistributionBounds agg{0};      // weighted count-bound partial
  double agg_lt_lb = 0.0;              // weighted P(count < m) partial
  double agg_lt_ub = 0.0;
  std::vector<double> pdom_lb;         // [C] weighted per-candidate bounds
  std::vector<double> pdom_ub;
  CountDistributionBounds frozen_agg{0};  // pairs frozen by this chunk
  double frozen_lt_lb = 0.0;
  double frozen_lt_ub = 0.0;
  std::vector<double> frozen_pdom_lb;
  std::vector<double> frozen_pdom_ub;
  size_t pairs = 0;
  size_t tests = 0;
  IdcaCounters counters;               // per-iteration work (chunk-local)
  /// Cross-request memo probes (chunk-local; flushed once per run). Kept
  /// OUT of IdcaCounters: whether a probe hits depends on what concurrent
  /// runs inserted or evicted, so these are not thread-count-invariant.
  cache::VerdictMemoTally memo_tally;
};

/// Scratch of one pair-loop participant (ParallelFor worker id): the
/// transient state of the chunk it is running, reused by the next chunk it
/// picks up. Nothing here outlives a chunk, so which participant runs which
/// chunk cannot change a result.
struct WorkerScratch {
  /// Lane-batched UGF evaluation: up to UgfBatch::kLanes pairs are staged
  /// (their per-candidate factor brackets written column-wise into
  /// stage_lb/stage_ub) and evaluated in one SoA pass. Staging and
  /// flushing happen in pair order within the chunk, so every accumulator
  /// receives exactly the contributions, in exactly the order, of the
  /// former one-UGF-per-pair loop.
  UgfBatch batch;
  std::vector<double> stage_lb;        // [C * kLanes], candidate-major
  std::vector<double> stage_ub;
  double stage_w[UgfBatch::kLanes] = {};
  bool stage_frozen[UgfBatch::kLanes] = {};
  size_t staged = 0;
  CountDistributionBounds lane_bounds{0};  // reused EmitBounds target
  std::vector<double> pair_pdom_lb;    // [C] scratch for the current pair
  std::vector<double> pair_pdom_ub;
  /// The domination tests of the current old pair's children: one per
  /// child of an undecided candidate node, in (candidate, node, child)
  /// order, candidate i's at [test_off[i], test_off[i+1]). Every child pair
  /// (B', R') of one old pair tests the same nodes, so each test's box,
  /// mass and frontier index are gathered once per old pair, and
  /// `verdicts` holds one child pair's verdicts. Sized per iteration to
  /// the live candidates' frontier total, which bounds the tests of a pair.
  std::vector<uint32_t> test_off;  // [C + 1]
  std::vector<const Interval*> test_box;
  std::vector<double> test_mass;
  std::vector<uint32_t> test_node;
  std::vector<DominationClass> verdicts;
  /// With a verdict memo attached: one child pair's memo misses, which
  /// alone are classified — each one's box, test index, memo key and
  /// verdict.
  std::vector<const Interval*> miss_box;
  std::vector<uint32_t> miss_test;
  std::vector<cache::VerdictMemo::Key> miss_key;
  std::vector<DominationClass> miss_verdict;
};

/// Grows `v` to at least `n` elements (it never shrinks, so a replay of a
/// size reached before does not allocate).
template <class T>
void GrowTo(std::vector<T>& v, size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Everything an engine run needs besides its result, kept per thread and
/// reused by the thread's next run: after one warm-up run of a given size,
/// later runs of that size or smaller touch the heap only for the
/// IdcaResult they return. Buffers only grow, so a thread holds at most
/// the footprint of the largest run it has executed.
struct IdcaWorkspace {
  /// Set while a run owns the workspace. A run never starts another run on
  /// its own thread (the pair-loop bodies do not call the engine), so
  /// finding it set means two runs would share one workspace.
  bool busy = false;
  std::vector<const UncertainObject*> influence;
  DecompositionTree target_tree;
  DecompositionTree ref_tree;
  std::vector<DecompositionTree> cand_trees;  // the first C are in use
  std::vector<char> cand_live;
  PairBlock cur;                        // this level's pair states
  PairBlock merged;                     // the chunk outputs, merged
  std::vector<ChunkState> chunks;       // indexed by chunk
  std::vector<WorkerScratch> workers;   // indexed by ParallelFor worker id
  // Run-level accumulators: per-iteration aggregates and the persistent
  // contributions of frozen pairs.
  CountDistributionBounds agg{0};
  CountDistributionBounds frozen_agg{0};
  std::vector<double> pdom_lb;
  std::vector<double> pdom_ub;
  std::vector<double> frozen_pdom_lb;
  std::vector<double> frozen_pdom_ub;
  std::vector<IdcaIterationStats> stats;  // copied into the result once
};

/// The calling thread's engine workspace.
thread_local IdcaWorkspace t_workspace;

/// Holds the calling thread's workspace for one run.
class WorkspaceLease {
 public:
  WorkspaceLease() : ws_(t_workspace) {
    UPDB_CHECK(!ws_.busy);  // re-entrant run on one thread
    ws_.busy = true;
  }
  ~WorkspaceLease() { ws_.busy = false; }
  WorkspaceLease(const WorkspaceLease&) = delete;
  WorkspaceLease& operator=(const WorkspaceLease&) = delete;

  IdcaWorkspace& get() { return ws_; }

 private:
  IdcaWorkspace& ws_;
};

/// Fingerprint of the configuration fields a domination verdict depends
/// on — mixed into every memo key so runs with differing geometry
/// settings can never share entries.
uint64_t ConfigFingerprint(const IdcaConfig& config) {
  return static_cast<uint64_t>(config.criterion) |
         (static_cast<uint64_t>(config.norm.p()) << 16);
}

}  // namespace

IdcaEngine::IdcaEngine(const UncertainDatabase& db, IdcaConfig config)
    : db_(db), config_(config) {
  UPDB_CHECK(config_.max_iterations >= 0);
  UPDB_CHECK(config_.num_threads >= 0);
  UPDB_CHECK(!config_.use_index_filter);  // requires the index constructor
}

IdcaEngine::IdcaEngine(const UncertainDatabase& db, const RTree* index,
                       IdcaConfig config)
    : db_(db), index_(index), config_(config) {
  UPDB_CHECK(config_.max_iterations >= 0);
  UPDB_CHECK(config_.num_threads >= 0);
  if (config_.use_index_filter) {
    UPDB_CHECK(index_ != nullptr);
    UPDB_CHECK(index_->size() == db_.size());
  }
}

IdcaResult IdcaEngine::ComputeDomCount(
    ObjectId b, const Pdf& r, std::optional<IdcaPredicate> predicate) const {
  UPDB_CHECK(b < db_.size());
  UPDB_CHECK(r.bounds().dim() == db_.dim());
  return Run(db_.object(b).pdf(), r, b, /*target_is_database_object=*/true,
             predicate);
}

IdcaResult IdcaEngine::ComputeDomCountOfQuery(
    const Pdf& q, ObjectId b_ref,
    std::optional<IdcaPredicate> predicate) const {
  UPDB_CHECK(b_ref < db_.size());
  UPDB_CHECK(q.bounds().dim() == db_.dim());
  return Run(q, db_.object(b_ref).pdf(), b_ref,
             /*target_is_database_object=*/false, predicate);
}

template <class Terms>
void IdcaEngine::Filter(const Terms& terms, ObjectId exclude,
                        size_t& complete,
                        std::vector<const UncertainObject*>& influence) const {
  auto admit = [this, &influence, &complete](ObjectId id, bool dominates) {
    const UncertainObject* a = &db_.object(id);
    // An existentially uncertain object (existence < 1) can never be a
    // *complete* dominator — there are worlds where it is absent — so it
    // stays in the influence set with its probabilities scaled by the
    // existence (the adaptation sketched in Section I-A of the paper).
    if (dominates && a->existentially_certain()) {
      ++complete;
    } else {
      influence.push_back(a);
    }
  };
  if (config_.use_index_filter) {
    // Complete domination is monotone under shrinking rectangles, so a
    // verdict on an R-tree node MBR extends to every object inside:
    // dominated subtrees are pruned, dominating subtrees bulk-counted.
    index_->Traverse(
        [&terms](const Rect& mbr) {
          switch (Classify(terms, mbr.sides())) {
            case DominationClass::kDominates:
              return RTree::VisitDecision::kTakeAll;
            case DominationClass::kDominated:
              return RTree::VisitDecision::kSkip;
            case DominationClass::kUndecided:
              break;
          }
          return RTree::VisitDecision::kDescend;
        },
        [exclude, &admit](ObjectId id, RTree::VisitDecision decision) {
          if (id == exclude) return;
          admit(id, decision == RTree::VisitDecision::kTakeAll);
        });
    return;
  }
  for (ObjectId id = 0; id < db_.size(); ++id) {
    if (id == exclude) continue;
    switch (Classify(terms, db_.mbr_box(id))) {
      case DominationClass::kDominates:
        admit(id, /*dominates=*/true);
        break;
      case DominationClass::kDominated:
        break;
      case DominationClass::kUndecided:
        admit(id, /*dominates=*/false);
        break;
    }
  }
}

IdcaResult IdcaEngine::Run(const Pdf& target, const Pdf& reference,
                           ObjectId exclude, bool target_is_database_object,
                           std::optional<IdcaPredicate> predicate) const {
  return WithPairTerms(config_.criterion, config_.norm, [&](auto terms) {
    return RunWith(std::move(terms), target, reference, exclude,
                   target_is_database_object, predicate);
  });
}

template <class Terms>
IdcaResult IdcaEngine::RunWith(Terms terms, const Pdf& target,
                               const Pdf& reference, ObjectId exclude,
                               bool target_is_database_object,
                               std::optional<IdcaPredicate> predicate) const {
  Stopwatch timer;
  WorkspaceLease lease;
  IdcaWorkspace& ws = lease.get();
  IdcaResult result;
  const size_t total_ranks = db_.size();
  obs::TraceSpan run_span(config_.trace, "idca_run", "idca");
  ws.stats.clear();
  // Every exit: the iteration stats move into the result in one block.
  const auto finish = [&]() -> IdcaResult {
    result.iterations.assign(ws.stats.begin(), ws.stats.end());
    result.seconds = timer.ElapsedSeconds();
    return std::move(result);
  };

  // ---- Phase 1: complete-domination filter (Algorithm 1, lines 3-10).
  size_t complete = 0;
  std::vector<const UncertainObject*>& influence = ws.influence;
  influence.clear();
  {
    obs::TraceSpan filter_span(config_.trace, "idca_filter", "idca");
    terms.Reset(target.bounds().sides(), reference.bounds().sides());
    Filter(terms, exclude, complete, influence);
    filter_span.AddArg("complete", complete);
    filter_span.AddArg("influence", influence.size());
  }
  const size_t C = influence.size();
  run_span.AddArg("influence", C);
  result.complete_domination_count = complete;
  result.influence_count = C;
  result.influence_pdom.assign(C, ProbabilityBounds{0.0, 1.0});

  // Candidate-level rank window: DomCount in [complete, complete + C],
  // vacuous [0,1] per rank.
  ws.agg.Assign(C + 1, 0.0, 1.0);
  ws.agg.ShiftRightInto(complete, total_ranks, &result.bounds);

  // Predicate bookkeeping in candidate space: P(DomCount < k) equals
  // P(#dominating candidates < m) with m = k - complete.
  size_t m = 0;  // candidate-space threshold, valid when predicate set
  if (predicate) {
    UPDB_CHECK(predicate->k >= 1);
    if (predicate->k <= complete) {
      // Every world already has >= k dominators.
      result.predicate_prob = ProbabilityBounds{0.0, 0.0};
      result.decision = Decide(result.predicate_prob, predicate->tau);
      return finish();
    }
    if (predicate->k > complete + C) {
      // No world can reach k dominators.
      result.predicate_prob = ProbabilityBounds{1.0, 1.0};
      result.decision = Decide(result.predicate_prob, predicate->tau);
      return finish();
    }
    m = predicate->k - complete;
    result.predicate_prob = ProbabilityBounds{0.0, 1.0};
    result.decision = PredicateDecision::kUndecided;
  }

  if (config_.collect_stats) {
    IdcaIterationStats s;
    s.iteration = 0;
    s.total_uncertainty = result.bounds.TotalUncertainty();
    s.avg_influence_uncertainty = C > 0 ? 1.0 : 0.0;
    s.cumulative_seconds = timer.ElapsedSeconds();
    ws.stats.push_back(s);
  }

  if (C == 0) {
    // DomCount is exactly `complete` in every world.
    ws.agg.Assign(1, 1.0, 1.0);
    ws.agg.ShiftRightInto(complete, total_ranks, &result.bounds);
    if (predicate) {
      const double p = complete < predicate->k ? 1.0 : 0.0;
      result.predicate_prob = ProbabilityBounds{p, p};
      result.decision = Decide(result.predicate_prob, predicate->tau);
    }
    return finish();
  }

  // ---- Phase 2: iterative refinement (Algorithm 1, lines 14-37).
  DecompositionTree& target_tree = ws.target_tree;
  DecompositionTree& ref_tree = ws.ref_tree;
  target_tree.Reset(&target);
  ref_tree.Reset(&reference);
  std::vector<DecompositionTree>& cand_trees = ws.cand_trees;
  if (cand_trees.size() < C) cand_trees.resize(C);
  for (size_t i = 0; i < C; ++i) {
    cand_trees[i].Reset(&influence[i]->pdf());
  }

  // Cross-request memo context: the caller's (snapshot version, query
  // token) context plus this run's database-object operand, its direction
  // and the geometry-relevant configuration. Everything else a verdict
  // depends on (frontier node identities) goes into the per-triple key.
  cache::VerdictMemo* const memo = config_.verdict_memo;
  const uint64_t memo_run_ctx =
      memo != nullptr
          ? cache::VerdictMemo::MixRun(config_.memo_context, exclude,
                                       target_is_database_object,
                                       ConfigFingerprint(config_))
          : 0;
  cache::VerdictMemoTally memo_tally;
  const size_t threads = ThreadPool::EffectiveParallelism(config_.num_threads);
  const size_t ugf_truncation =
      predicate ? m : UgfBatch::kNoTruncation;

  // One scratch slot per pair-loop participant, sized for this run before
  // the loop so no participant grows anything inside it.
  if (ws.workers.size() < threads) ws.workers.resize(threads);
  for (size_t w = 0; w < threads; ++w) {
    WorkerScratch& sc = ws.workers[w];
    sc.batch.Reserve(C, ugf_truncation);
    sc.stage_lb.assign(C * UgfBatch::kLanes, 0.0);
    sc.stage_ub.assign(C * UgfBatch::kLanes, 0.0);
    sc.pair_pdom_lb.assign(C, 0.0);
    sc.pair_pdom_ub.assign(C, 0.0);
    GrowTo(sc.test_off, C + 1);
    if (!predicate) sc.lane_bounds.Assign(C + 1, 0.0, 0.0);
  }

  // Level-0 verdict state: one pair (whole B, whole R); every candidate's
  // root node is undecided — that is precisely what the filter left open.
  PairBlock* cur = &ws.cur;
  PairBlock* merged = &ws.merged;  // reused merge target
  cur->Clear(C);
  cur->num_pairs = 1;
  cur->b_node.push_back(0);
  cur->r_node.push_back(0);
  cur->resolved.assign(2 * C, 0.0);
  for (uint32_t c = 0; c <= C; ++c) cur->und_off.push_back(c);
  cur->undecided.assign(C, 0);

  std::vector<ChunkState>& chunks = ws.chunks;  // reused across iterations
  std::vector<double>& pdom_lb = ws.pdom_lb;
  std::vector<double>& pdom_ub = ws.pdom_ub;
  pdom_lb.assign(C, 0.0);
  pdom_ub.assign(C, 0.0);

  // Persistent contributions of frozen pairs (see ChunkState) and the
  // per-candidate liveness map: a candidate whose verdict is resolved in
  // every surviving pair is never read again, so its decomposition tree
  // stops deepening (ConditionalMedian splits are pure waste there).
  CountDistributionBounds& agg = ws.agg;
  CountDistributionBounds& frozen_agg = ws.frozen_agg;
  if (!predicate) frozen_agg.Assign(C + 1, 0.0, 0.0);
  ProbabilityBounds frozen_lt{0.0, 0.0};
  std::vector<double>& frozen_pdom_lb = ws.frozen_pdom_lb;
  std::vector<double>& frozen_pdom_ub = ws.frozen_pdom_ub;
  frozen_pdom_lb.assign(C, 0.0);
  frozen_pdom_ub.assign(C, 0.0);
  std::vector<char>& cand_live = ws.cand_live;
  cand_live.assign(C, 1);

  for (int iter = 1; iter <= config_.max_iterations; ++iter) {
    obs::TraceSpan iter_span(config_.trace, "idca_iter", "idca");
    iter_span.AddArg("iteration", static_cast<uint64_t>(iter));
    // Deepen all still-read decompositions one level (Algorithm 1, line
    // 15). A dead tree's frontier and child offsets are never indexed.
    size_t splits = target_tree.Deepen() + ref_tree.Deepen();
    for (size_t i = 0; i < C; ++i) {
      if (cand_live[i]) splits += cand_trees[i].Deepen();
    }

    // Tests per child pair are bounded by the live candidates' frontier
    // sizes: one per child of a distinct undecided node.
    size_t max_tests = 0;
    for (size_t i = 0; i < C; ++i) {
      if (cand_live[i]) max_tests += cand_trees[i].size();
    }
    for (size_t w = 0; w < threads; ++w) {
      WorkerScratch& sc = ws.workers[w];
      GrowTo(sc.test_box, max_tests);
      GrowTo(sc.test_mass, max_tests);
      GrowTo(sc.test_node, max_tests);
      GrowTo(sc.verdicts, max_tests);
      if (memo != nullptr) {
        GrowTo(sc.miss_box, max_tests);
        GrowTo(sc.miss_test, max_tests);
        GrowTo(sc.miss_key, max_tests);
        GrowTo(sc.miss_verdict, max_tests);
      }
    }

    const std::vector<double>& target_mass = target_tree.masses();
    const std::vector<double>& ref_mass = ref_tree.masses();
    const std::vector<uint32_t>& b_off = target_tree.child_offsets();
    const std::vector<uint32_t>& r_off = ref_tree.child_offsets();
    const PairBlock& level = *cur;

    const size_t num_chunks = std::min(kPairChunks, level.num_pairs);
    if (chunks.size() < num_chunks) chunks.resize(num_chunks);

    // Every old pair expands into its children pairs; per child pair the
    // candidates' undecided nodes are re-tested one level deeper while
    // resolved mass is inherited. All writes go to chunk-local partials
    // and the participant's own scratch.
    const auto run_chunk = [&](size_t chunk, size_t worker) {
      UPDB_DCHECK(worker < threads);
      ChunkState& st = chunks[chunk];
      WorkerScratch& sc = ws.workers[worker];
      Terms pair_terms = terms;
      st.out.Clear(C);
      sc.staged = 0;
      if (!predicate) {
        st.agg.Assign(C + 1, 0.0, 0.0);
        st.frozen_agg.Assign(C + 1, 0.0, 0.0);
      }
      st.agg_lt_lb = 0.0;
      st.agg_lt_ub = 0.0;
      st.frozen_lt_lb = 0.0;
      st.frozen_lt_ub = 0.0;
      st.pdom_lb.assign(C, 0.0);
      st.pdom_ub.assign(C, 0.0);
      st.frozen_pdom_lb.assign(C, 0.0);
      st.frozen_pdom_ub.assign(C, 0.0);
      st.pairs = 0;
      st.tests = 0;
      st.counters = IdcaCounters{};
      st.memo_tally = cache::VerdictMemoTally{};
      const uint64_t ugf_base = sc.batch.total_multiplies();

      // Evaluates the staged pairs' UGFs in one batched pass and folds
      // their contributions into the chunk's accumulators in pair order.
      const auto flush_staged = [&] {
        if (sc.staged == 0) return;
        sc.batch.Begin(ugf_truncation, sc.staged);
        for (size_t i = 0; i < C; ++i) {
          sc.batch.MultiplyFactors(sc.stage_lb.data() + i * UgfBatch::kLanes,
                                   sc.stage_ub.data() + i * UgfBatch::kLanes);
        }
        if (predicate) {
          ProbabilityBounds lt[UgfBatch::kLanes];
          sc.batch.ProbLessThanAll(m, lt);
          for (size_t l = 0; l < sc.staged; ++l) {
            const double lw = sc.stage_w[l];
            if (sc.stage_frozen[l]) {
              st.frozen_lt_lb += lw * lt[l].lb;
              st.frozen_lt_ub += lw * lt[l].ub;
            } else {
              st.agg_lt_lb += lw * lt[l].lb;
              st.agg_lt_ub += lw * lt[l].ub;
            }
          }
        } else {
          sc.batch.FinishBounds();
          for (size_t l = 0; l < sc.staged; ++l) {
            sc.batch.EmitBounds(l, &sc.lane_bounds);
            (sc.stage_frozen[l] ? st.frozen_agg : st.agg)
                .AccumulateWeighted(sc.lane_bounds, sc.stage_w[l]);
          }
        }
        sc.staged = 0;
      };

      const size_t p_begin = level.num_pairs * chunk / num_chunks;
      const size_t p_end = level.num_pairs * (chunk + 1) / num_chunks;
      for (size_t p = p_begin; p < p_end; ++p) {
        const uint32_t old_b = level.b_node[p];
        const uint32_t old_r = level.r_node[p];
        const double* old_res = level.resolved.data() + p * 2 * C;
        const uint32_t* old_off = level.und_off.data() + p * (C + 1);
        // Gather the pair's tests: the children of every candidate's
        // undecided nodes (a node's children are adjacent in the
        // candidate's flat frontier).
        uint32_t tests = 0;
        for (size_t i = 0; i < C; ++i) {
          sc.test_off[i] = tests;
          if (old_off[i] == old_off[i + 1]) continue;
          const DecompositionTree& cand = cand_trees[i];
          const std::vector<double>& cand_mass = cand.masses();
          const std::vector<uint32_t>& a_off = cand.child_offsets();
          for (uint32_t u = old_off[i]; u < old_off[i + 1]; ++u) {
            const uint32_t node = level.undecided[u];
            for (uint32_t a = a_off[node]; a < a_off[node + 1]; ++a) {
              sc.test_box[tests] = cand.box(a).data();
              sc.test_mass[tests] = cand_mass[a];
              sc.test_node[tests] = a;
              ++tests;
            }
          }
        }
        sc.test_off[C] = tests;
        const std::span<const Interval* const> test_boxes(sc.test_box.data(),
                                                          tests);
        for (uint32_t bi = b_off[old_b]; bi < b_off[old_b + 1]; ++bi) {
          for (uint32_t ri = r_off[old_r]; ri < r_off[old_r + 1]; ++ri) {
            const double w = target_mass[bi] * ref_mass[ri];
            // The (B', R') half of every test of this pair, computed once.
            pair_terms.Reset(target_tree.box(bi), ref_tree.box(ri));
            ++st.pairs;
            st.tests += tests;
            PairBlock& out = st.out;
            out.b_node.push_back(bi);
            out.r_node.push_back(ri);
            const size_t res_base = out.resolved.size();
            const size_t und_off_base = out.und_off.size();
            const size_t und_base = out.undecided.size();
            out.resolved.resize(res_base + 2 * C);

            // Classify the tests four boxes at a time. With a memo
            // attached, a hit replays the decided verdict an identical
            // Classify call produced earlier (possibly in another request
            // against this snapshot), only the misses are classified, and
            // a decided miss is recorded for later runs; undecided stays
            // unrecorded — it is re-tested one level deeper either way.
            if (memo == nullptr) {
              ClassifyRun(pair_terms, test_boxes, sc.verdicts.data());
            } else {
              size_t misses = 0;
              for (size_t i = 0; i < C; ++i) {
                for (uint32_t t = sc.test_off[i]; t < sc.test_off[i + 1];
                     ++t) {
                  const cache::VerdictMemo::Key key = memo->MakeKey(
                      memo_run_ctx, influence[i]->id(),
                      static_cast<uint32_t>(iter), bi, ri, sc.test_node[t]);
                  const int found = memo->Lookup(key, st.memo_tally);
                  if (found != 0) {
                    sc.verdicts[t] = found == cache::VerdictMemo::kDominates
                                         ? DominationClass::kDominates
                                         : DominationClass::kDominated;
                    continue;
                  }
                  sc.miss_box[misses] = sc.test_box[t];
                  sc.miss_test[misses] = t;
                  sc.miss_key[misses] = key;
                  ++misses;
                }
              }
              ClassifyRun(pair_terms,
                          std::span<const Interval* const>(sc.miss_box.data(),
                                                           misses),
                          sc.miss_verdict.data());
              for (size_t j = 0; j < misses; ++j) {
                const DominationClass verdict = sc.miss_verdict[j];
                sc.verdicts[sc.miss_test[j]] = verdict;
                if (verdict != DominationClass::kUndecided) {
                  memo->Insert(sc.miss_key[j],
                               verdict == DominationClass::kDominates
                                   ? cache::VerdictMemo::kDominates
                                   : cache::VerdictMemo::kDominated,
                               st.memo_tally);
                }
              }
            }

            // Apply the verdicts in test order, so every accumulation runs
            // in the (candidate, node, child) order of one test at a time.
            for (size_t i = 0; i < C; ++i) {
              double dom = old_res[i];
              double ndom = old_res[C + i];
              // Any inherited resolved mass means a prior iteration's
              // verdicts carried over for this (candidate, pair) slot.
              if (dom != 0.0 || ndom != 0.0) {
                ++st.counters.verdict_cache_hits;
              }
              out.und_off.push_back(
                  static_cast<uint32_t>(out.undecided.size()));
              for (uint32_t t = sc.test_off[i]; t < sc.test_off[i + 1]; ++t) {
                // Masses are positive and a mass sum is never -0.0, so
                // adding +0.0 for the other verdicts changes no bit; the
                // sums need no branch on the verdict.
                const DominationClass verdict = sc.verdicts[t];
                dom += verdict == DominationClass::kDominates ? sc.test_mass[t]
                                                              : 0.0;
                ndom += verdict == DominationClass::kDominated
                            ? sc.test_mass[t]
                            : 0.0;
                if (verdict == DominationClass::kUndecided) {
                  out.undecided.push_back(sc.test_node[t]);
                }
              }
              // Decided mass is inherited by every child pair: a decided
              // triple stays decided under refinement.
              out.resolved[res_base + i] = dom;
              out.resolved[res_base + C + i] = ndom;

              // Lemma 1/2 bracket for this candidate given (B', R'),
              // scaled by the existential probability: the candidate
              // dominates only in worlds where it exists.
              ProbabilityBounds pb{dom, 1.0 - ndom};
              pb.Normalize();
              const double e = influence[i]->existence();
              pb.lb *= e;
              pb.ub *= e;
              sc.stage_lb[i * UgfBatch::kLanes + sc.staged] = pb.lb;
              sc.stage_ub[i * UgfBatch::kLanes + sc.staged] = pb.ub;
              sc.pair_pdom_lb[i] = pb.lb;
              sc.pair_pdom_ub[i] = pb.ub;
            }
            out.und_off.push_back(static_cast<uint32_t>(out.undecided.size()));

            // Freeze fully-decided pairs: every refinement would reproduce
            // this exact contribution, so bank it once and drop the pair
            // instead of expanding it next level.
            const bool frozen = out.undecided.size() == und_base;
            if (frozen) {
              ++st.counters.pairs_frozen;
              out.b_node.pop_back();
              out.r_node.pop_back();
              out.resolved.resize(res_base);
              out.und_off.resize(und_off_base);
            } else {
              ++out.num_pairs;
            }
            double* acc_pdom_lb =
                frozen ? st.frozen_pdom_lb.data() : st.pdom_lb.data();
            double* acc_pdom_ub =
                frozen ? st.frozen_pdom_ub.data() : st.pdom_ub.data();
            for (size_t i = 0; i < C; ++i) {
              acc_pdom_lb[i] += w * sc.pair_pdom_lb[i];
              acc_pdom_ub[i] += w * sc.pair_pdom_ub[i];
            }
            // The pair's factor column is fully staged; bank its
            // weight/freeze slot and flush once the lanes fill up.
            sc.stage_w[sc.staged] = w;
            sc.stage_frozen[sc.staged] = frozen;
            ++sc.staged;
            if (sc.staged == UgfBatch::kLanes) flush_staged();
          }
        }
      }
      flush_staged();
      st.counters.pairs_evaluated = st.pairs;
      st.counters.domination_tests = st.tests;
      st.counters.verdict_cache_misses = st.tests;
      st.counters.ugf_multiplies = sc.batch.total_multiplies() - ugf_base;
    };
    // std::cref: the pool's std::function then holds a pointer-sized
    // reference instead of a heap copy of the closure.
    ThreadPool::SharedParallelFor(num_chunks, threads, std::cref(run_chunk));

    // Deterministic reduction in chunk order: newly frozen contributions
    // join the persistent accumulators, active partials plus the frozen
    // totals form this iteration's aggregates, and the chunk outputs
    // become the next level's pair states (again in chunk order).
    for (size_t c = 0; c < num_chunks; ++c) {
      const ChunkState& st = chunks[c];
      if (predicate) {
        frozen_lt.lb += st.frozen_lt_lb;
        frozen_lt.ub += st.frozen_lt_ub;
      } else {
        frozen_agg.AccumulateWeighted(st.frozen_agg, 1.0);
      }
      for (size_t i = 0; i < C; ++i) {
        frozen_pdom_lb[i] += st.frozen_pdom_lb[i];
        frozen_pdom_ub[i] += st.frozen_pdom_ub[i];
      }
    }
    if (!predicate) {
      agg.Assign(C + 1, 0.0, 0.0);
      agg.AccumulateWeighted(frozen_agg, 1.0);
    }
    ProbabilityBounds agg_lt = frozen_lt;  // aggregated P(count < m)
    std::copy(frozen_pdom_lb.begin(), frozen_pdom_lb.end(), pdom_lb.begin());
    std::copy(frozen_pdom_ub.begin(), frozen_pdom_ub.end(), pdom_ub.begin());
    size_t pairs = 0;
    size_t candidate_partitions = 0;
    merged->Clear(C);
    for (size_t c = 0; c < num_chunks; ++c) {
      const ChunkState& st = chunks[c];
      pairs += st.pairs;
      candidate_partitions += st.tests;
      result.counters += st.counters;
      memo_tally += st.memo_tally;
      if (predicate) {
        agg_lt.lb += st.agg_lt_lb;
        agg_lt.ub += st.agg_lt_ub;
      } else {
        agg.AccumulateWeighted(st.agg, 1.0);
      }
      for (size_t i = 0; i < C; ++i) {
        pdom_lb[i] += st.pdom_lb[i];
        pdom_ub[i] += st.pdom_ub[i];
      }
      merged->AppendFrom(st.out);
    }
    std::swap(cur, merged);
    // The blocks alternate roles, so which one holds a given level depends
    // on the iteration's parity; equal capacities let the next run replay
    // any level reached before without allocating, whatever its parity.
    cur->EqualizeCapacity(*merged);

    // Refresh the liveness map from the surviving pairs.
    std::fill(cand_live.begin(), cand_live.end(), char{0});
    for (size_t p = 0; p < cur->num_pairs; ++p) {
      const uint32_t* off = cur->und_off.data() + p * (C + 1);
      for (size_t i = 0; i < C; ++i) {
        if (off[i + 1] > off[i]) cand_live[i] = 1;
      }
    }

    double avg_influence_uncertainty = 0.0;
    for (size_t i = 0; i < C; ++i) {
      result.influence_pdom[i] = ProbabilityBounds{pdom_lb[i], pdom_ub[i]};
      result.influence_pdom[i].Normalize();
      avg_influence_uncertainty += result.influence_pdom[i].width();
    }
    avg_influence_uncertainty /= static_cast<double>(C);

    if (predicate) {
      agg_lt.Normalize();
      result.predicate_prob = agg_lt;
      result.decision = Decide(agg_lt, predicate->tau);
    } else {
      agg.Normalize();
      agg.ShiftRightInto(complete, total_ranks, &result.bounds);
    }

    const double total_uncertainty =
        predicate ? result.predicate_prob.width()
                  : result.bounds.TotalUncertainty();
    result.iterations_run = static_cast<size_t>(iter);
    if (config_.collect_stats) {
      IdcaIterationStats s;
      s.iteration = iter;
      s.total_uncertainty = total_uncertainty;
      s.avg_influence_uncertainty = avg_influence_uncertainty;
      s.cumulative_seconds = timer.ElapsedSeconds();
      s.pairs = pairs;
      s.candidate_partitions = candidate_partitions;
      ws.stats.push_back(s);
    }
    iter_span.AddArg("pairs", pairs);
    iter_span.AddArg("tests", candidate_partitions);

    // ---- Stop criteria.
    if (predicate && result.decision != PredicateDecision::kUndecided) break;
    if (total_uncertainty <= config_.uncertainty_epsilon) break;
    if (cur->num_pairs == 0) break;  // every pair frozen: result is final
    if (splits == 0) break;  // decompositions exhausted: result is final
  }

  // One flush per run keeps the inner loop free of shared counters.
  if (memo != nullptr) memo->Flush(memo_tally);

  return finish();
}

}  // namespace updb
