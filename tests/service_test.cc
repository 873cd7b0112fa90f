#include "service/query_service.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <memory>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "gf/kernels.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "queries/queries.h"
#include "rknn_oracle.h"
#include "service/trace.h"
#include "store/object_store.h"
#include "test_shards.h"
#include "workload/generators.h"

namespace updb {
namespace service {
namespace {

using test_util::TestShards;

/// What the plain-database QueryService constructor does internally, but
/// honoring TestShards(): wraps `db` into a store sharded N ways and pins
/// its first published version.
std::shared_ptr<const store::StoreSnapshot> PinnedSnapshot(
    const std::shared_ptr<const UncertainDatabase>& db) {
  store::StoreOptions sopts;
  sopts.num_shards = TestShards();
  if (db == nullptr || db->empty()) {
    return store::VersionedObjectStore(sopts).latest();
  }
  return store::VersionedObjectStore(*db, sopts).latest();
}

std::shared_ptr<const UncertainDatabase> MakeDb(size_t n, double extent,
                                                uint64_t seed = 7) {
  workload::SyntheticConfig cfg;
  cfg.num_objects = n;
  cfg.max_extent = extent;
  cfg.seed = seed;
  return std::make_shared<const UncertainDatabase>(
      workload::MakeSyntheticDatabase(cfg));
}

std::shared_ptr<const Pdf> MakeQuery(double x, double y, double extent,
                                     uint64_t seed = 5) {
  Rng rng(seed);
  return workload::MakeQueryObject(Point{x, y}, extent,
                                   workload::ObjectModel::kUniform, 0, rng);
}

QueryRequest KnnRequest(std::shared_ptr<const Pdf> q, size_t k, double tau,
                        int iterations) {
  QueryRequest req;
  req.kind = QueryKind::kThresholdKnn;
  req.query = std::move(q);
  req.k = k;
  req.tau = tau;
  req.budget.max_iterations = iterations;
  return req;
}

/// Runs one request through a fresh service and returns its response.
QueryResponse RunOne(std::shared_ptr<const UncertainDatabase> db,
                     QueryRequest req, QueryServiceOptions options = {}) {
  QueryService service(PinnedSnapshot(db), options);
  const StatusOr<uint64_t> ticket = service.Submit(std::move(req));
  EXPECT_TRUE(ticket.ok()) << ticket.status().ToString();
  return service.Take(*ticket);
}

/// Worker counts the direct-path parity tests run the service with.
constexpr size_t kWorkerCounts[] = {1, 2, 4};

QueryServiceOptions WithWorkers(size_t workers) {
  QueryServiceOptions options;
  options.num_workers = workers;
  return options;
}

/// The service and the direct query path run one pipeline: the same
/// results in the same (ascending-id) order, and the same deterministic
/// stats.
void ExpectSameAsDirect(const QueryResponse& response,
                        const std::vector<ThresholdQueryResult>& direct,
                        const QueryStats& stats) {
  ASSERT_EQ(response.threshold.size(), direct.size());
  for (size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(response.threshold[i].id, direct[i].id);
    EXPECT_EQ(response.threshold[i].decision, direct[i].decision);
    EXPECT_EQ(response.threshold[i].prob.lb, direct[i].prob.lb);
    EXPECT_EQ(response.threshold[i].prob.ub, direct[i].prob.ub);
  }
  EXPECT_EQ(response.stats.candidates, stats.candidates);
  EXPECT_EQ(response.stats.idca_iterations, stats.idca_iterations);
  EXPECT_EQ(response.stats.ugf_multiplies, stats.counters.ugf_multiplies);
  EXPECT_EQ(response.stats.verdict_cache_hits,
            stats.counters.verdict_cache_hits);
  EXPECT_EQ(response.stats.verdict_cache_misses,
            stats.counters.verdict_cache_misses);
  EXPECT_GT(stats.idca_iterations, 0u);
  EXPECT_GT(stats.counters.ugf_multiplies, 0u);
}

TEST(QueryServiceTest, KnnMatchesDirectQuery) {
  const auto db = MakeDb(40, 0.08);
  const auto q = MakeQuery(0.5, 0.5, 0.08);
  IdcaConfig direct_cfg;
  direct_cfg.max_iterations = 4;
  const RTree index = BuildRTree(db->objects());
  QueryStats stats;
  const std::vector<ThresholdQueryResult> direct =
      ProbabilisticThresholdKnn(*db, index, *q, 3, 0.5, direct_cfg, &stats);

  // A lone request's candidates are one job each, spread over every
  // worker; the payload and stats must not depend on how many.
  for (size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const QueryResponse response =
        RunOne(db, KnnRequest(q, 3, 0.5, 4), WithWorkers(workers));
    EXPECT_EQ(response.status, ResponseStatus::kOk);
    ExpectSameAsDirect(response, direct, stats);
  }
}

TEST(QueryServiceTest, RknnMatchesDirectQuery) {
  const auto db = MakeDb(30, 0.08);
  const auto q = MakeQuery(0.4, 0.6, 0.08);
  IdcaConfig direct_cfg;
  direct_cfg.max_iterations = 3;
  const RTree index = BuildRTree(db->objects());
  QueryStats stats;
  const std::vector<ThresholdQueryResult> direct =
      ProbabilisticThresholdRknn(*db, index, *q, 2, 0.5, direct_cfg, &stats);
  QueryRequest req = KnnRequest(q, 2, 0.5, 3);
  req.kind = QueryKind::kThresholdRknn;
  for (size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const QueryResponse response = RunOne(db, req, WithWorkers(workers));
    ExpectSameAsDirect(response, direct, stats);
  }
}

TEST(QueryServiceTest, InverseRankingAndExpectedRankMatchDirect) {
  const auto db = MakeDb(25, 0.1);
  const auto q = MakeQuery(0.5, 0.5, 0.1);
  IdcaConfig direct_cfg;
  direct_cfg.max_iterations = 3;

  QueryRequest inv;
  inv.kind = QueryKind::kInverseRanking;
  inv.query = q;
  inv.target = 7;
  inv.budget.max_iterations = 3;
  const CountDistributionBounds direct_bounds =
      ProbabilisticInverseRanking(*db, 7, *q, direct_cfg);

  QueryRequest er;
  er.kind = QueryKind::kExpectedRank;
  er.query = q;
  er.budget.max_iterations = 2;
  direct_cfg.max_iterations = 2;
  const std::vector<ExpectedRankEntry> direct_order =
      ExpectedRankOrder(*db, *q, direct_cfg);

  for (size_t workers : kWorkerCounts) {
    SCOPED_TRACE(testing::Message() << "workers=" << workers);
    const QueryResponse inv_response = RunOne(db, inv, WithWorkers(workers));
    ASSERT_EQ(inv_response.rank_bounds.num_ranks(),
              direct_bounds.num_ranks());
    for (size_t k = 0; k < direct_bounds.num_ranks(); ++k) {
      EXPECT_EQ(inv_response.rank_bounds.lb(k), direct_bounds.lb(k));
      EXPECT_EQ(inv_response.rank_bounds.ub(k), direct_bounds.ub(k));
    }

    const QueryResponse er_response = RunOne(db, er, WithWorkers(workers));
    ASSERT_EQ(er_response.expected.size(), direct_order.size());
    for (size_t i = 0; i < direct_order.size(); ++i) {
      EXPECT_EQ(er_response.expected[i].id, direct_order[i].id);
      EXPECT_EQ(er_response.expected[i].expected_rank.lb,
                direct_order[i].expected_rank.lb);
      EXPECT_EQ(er_response.expected[i].expected_rank.ub,
                direct_order[i].expected_rank.ub);
    }
  }
}

/// Acceptance: responses are bit-identical across num_workers in {1,2,8},
/// and also across batch sizes — batching may regroup work but must never
/// change a result.
TEST(QueryServiceTest, DeterministicAcrossWorkersAndBatchSizes) {
  const auto db = MakeDb(35, 0.08);
  TraceConfig tcfg;
  tcfg.num_requests = 18;
  tcfg.seed = 99;
  tcfg.query_extent = 0.08;
  tcfg.k_max = 4;
  tcfg.budget.max_iterations = 3;
  tcfg.deadline_fraction = 0.3;
  tcfg.deadline_ms = 10.0;
  const std::vector<QueryRequest> trace = MakeTrace(*db, tcfg);

  auto run = [&](size_t workers, size_t batch) {
    QueryServiceOptions opts;
    opts.num_workers = workers;
    opts.batch_size = batch;
    opts.max_queue = trace.size();
    QueryService service(PinnedSnapshot(db), opts);
    const ReplayResult result = ReplayTrace(service, trace, /*qps=*/0.0);
    EXPECT_EQ(result.admitted, trace.size());
    return ResponseDigest(result.responses);
  };

  const uint64_t base = run(1, 4);
  EXPECT_EQ(run(2, 4), base);
  EXPECT_EQ(run(8, 4), base);
  EXPECT_EQ(run(2, 1), base);
  EXPECT_EQ(run(2, 8), base);
}

/// Observability is payload-invariant: running the same trace with the
/// span recorder and a metrics registry attached produces bit-identical
/// response payloads (digest oracle), while the recorder actually captures
/// the span tree down to IDCA iterations.
TEST(QueryServiceTest, TracingOnOffDigestsAreIdentical) {
  const auto db = MakeDb(35, 0.08);
  TraceConfig tcfg;
  tcfg.num_requests = 18;
  tcfg.seed = 99;
  tcfg.query_extent = 0.08;
  tcfg.k_max = 4;
  tcfg.budget.max_iterations = 3;
  const std::vector<QueryRequest> trace = MakeTrace(*db, tcfg);

  auto run = [&](obs::TraceRecorder* recorder,
                 obs::MetricsRegistry* registry) {
    QueryServiceOptions opts;
    opts.num_workers = 2;
    opts.batch_size = 4;
    opts.max_queue = trace.size();
    opts.trace = recorder;
    opts.metrics_registry = registry;
    QueryService service(PinnedSnapshot(db), opts);
    const ReplayResult result = ReplayTrace(service, trace, /*qps=*/0.0);
    EXPECT_EQ(result.admitted, trace.size());
    return ResponseDigest(result.responses);
  };

  const uint64_t off = run(nullptr, nullptr);
  obs::TraceRecorder recorder;
  obs::MetricsRegistry registry;
  const uint64_t on = run(&recorder, &registry);
  EXPECT_EQ(on, off);

  // The enabled run recorded the whole span tree: submit instants, queue
  // waits, batches, per-request execution (one span per request, however
  // many jobs it ran), engine iterations.
  size_t submits = 0, queue_waits = 0, batches = 0, execs = 0, iters = 0;
  for (const obs::TraceEvent& e : recorder.Events()) {
    if (std::string_view(e.name) == "submit") ++submits;
    if (std::string_view(e.name) == "queue_wait") ++queue_waits;
    if (std::string_view(e.name) == "batch") ++batches;
    if (std::string_view(e.category) == "exec") ++execs;
    if (std::string_view(e.name) == "idca_iter") ++iters;
  }
  EXPECT_EQ(submits, trace.size());
  EXPECT_EQ(queue_waits, trace.size());
  EXPECT_GT(batches, 0u);
  EXPECT_EQ(execs, trace.size());
  EXPECT_GT(iters, 0u);

  // And the registry's counters agree with the service's own snapshot.
  EXPECT_EQ(
      registry.Counter("updb_service_completed_total", "")->Value(),
      trace.size());
}

/// The engine work counters surfaced in RequestStats are deterministic and
/// thread-count-invariant (they are pure functions of request, snapshot
/// and budget — the chunk partition never depends on the worker count).
TEST(QueryServiceTest, EngineCountersAreThreadCountInvariant) {
  const auto db = MakeDb(30, 0.09);
  TraceConfig tcfg;
  tcfg.num_requests = 12;
  tcfg.seed = 123;
  tcfg.query_extent = 0.09;
  tcfg.k_max = 3;
  tcfg.budget.max_iterations = 3;
  const std::vector<QueryRequest> trace = MakeTrace(*db, tcfg);

  struct CounterRow {
    uint64_t id, ugf, hits, misses;
  };
  auto run = [&](size_t workers) {
    QueryServiceOptions opts;
    opts.num_workers = workers;
    opts.batch_size = 4;
    opts.max_queue = trace.size();
    QueryService service(PinnedSnapshot(db), opts);
    const ReplayResult result = ReplayTrace(service, trace, /*qps=*/0.0);
    std::vector<CounterRow> rows;
    for (const QueryResponse& r : result.responses) {
      rows.push_back({r.id, r.stats.ugf_multiplies,
                      r.stats.verdict_cache_hits,
                      r.stats.verdict_cache_misses});
    }
    std::sort(rows.begin(), rows.end(),
              [](const CounterRow& a, const CounterRow& b) {
                return a.id < b.id;
              });
    return rows;
  };

  const std::vector<CounterRow> serial = run(1);
  uint64_t total_multiplies = 0;
  for (const CounterRow& row : serial) total_multiplies += row.ugf;
  EXPECT_GT(total_multiplies, 0u);
  for (size_t workers : {2u, 8u}) {
    const std::vector<CounterRow> parallel = run(workers);
    ASSERT_EQ(parallel.size(), serial.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(parallel[i].ugf, serial[i].ugf) << "ticket " << i;
      EXPECT_EQ(parallel[i].hits, serial[i].hits) << "ticket " << i;
      EXPECT_EQ(parallel[i].misses, serial[i].misses) << "ticket " << i;
    }
  }
}

/// A budget-expired query must return kUndecided with a valid bracket that
/// is consistent with the converged ground truth — never a wrong decision.
TEST(QueryServiceTest, ExpiredBudgetYieldsValidBracketNeverWrongDecision) {
  const auto db = MakeDb(22, 0.12);
  const auto q = MakeQuery(0.5, 0.5, 0.12);

  // Ground truth: generous budget.
  const QueryResponse truth = RunOne(db, KnnRequest(q, 3, 0.5, 6));

  // Tiny deadline: compiles to 1 iteration (est 5 ms/iter, 5 ms deadline).
  QueryRequest starved = KnnRequest(q, 3, 0.5, 6);
  starved.budget.deadline_ms = 5.0;
  const QueryResponse response = RunOne(db, std::move(starved));
  EXPECT_EQ(response.stats.iterations_granted, 1);

  ASSERT_EQ(response.threshold.size(), truth.threshold.size());
  bool any_undecided = false;
  for (size_t i = 0; i < response.threshold.size(); ++i) {
    const ThresholdQueryResult& fast = response.threshold[i];
    const ThresholdQueryResult& slow = truth.threshold[i];
    ASSERT_EQ(fast.id, slow.id);
    // Bracket validity.
    EXPECT_LE(fast.prob.lb, fast.prob.ub);
    EXPECT_GE(fast.prob.lb, 0.0);
    EXPECT_LE(fast.prob.ub, 1.0);
    // The starved bracket must contain the converged one (refinement only
    // tightens), up to floating noise.
    EXPECT_LE(fast.prob.lb, slow.prob.lb + 1e-12);
    EXPECT_GE(fast.prob.ub, slow.prob.ub - 1e-12);
    // Never a wrong decision.
    if (fast.decision == PredicateDecision::kTrue) {
      EXPECT_NE(slow.decision, PredicateDecision::kFalse);
    }
    if (fast.decision == PredicateDecision::kFalse) {
      EXPECT_NE(slow.decision, PredicateDecision::kTrue);
    }
    any_undecided |= fast.decision == PredicateDecision::kUndecided;
  }
  if (any_undecided) {
    EXPECT_EQ(response.status, ResponseStatus::kExpired);
  }
}

TEST(QueryServiceTest, ZeroIterationDeadlineStillAnswers) {
  const auto db = MakeDb(20, 0.1);
  // Deadline below one estimated iteration: filter phase only.
  QueryRequest req = KnnRequest(MakeQuery(0.5, 0.5, 0.1), 2, 0.5, 8);
  req.budget.deadline_ms = 1.0;
  const QueryResponse response = RunOne(db, std::move(req));
  EXPECT_EQ(response.stats.iterations_granted, 0);
  for (const ThresholdQueryResult& r : response.threshold) {
    EXPECT_LE(r.prob.lb, r.prob.ub);
  }
}

TEST(QueryServiceTest, RejectsWhenAdmissionQueueFull) {
  const auto db = MakeDb(15, 0.05);
  QueryServiceOptions opts;
  opts.max_queue = 2;
  opts.start_paused = true;
  QueryService service(PinnedSnapshot(db), opts);
  const auto q = MakeQuery(0.5, 0.5, 0.05);
  const StatusOr<uint64_t> t0 = service.Submit(KnnRequest(q, 1, 0.5, 2));
  const StatusOr<uint64_t> t1 = service.Submit(KnnRequest(q, 1, 0.5, 2));
  const StatusOr<uint64_t> t2 = service.Submit(KnnRequest(q, 1, 0.5, 2));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  ASSERT_FALSE(t2.ok());
  EXPECT_EQ(t2.status().code(), StatusCode::kResourceExhausted);
  service.Resume();
  service.Flush();
  EXPECT_EQ(service.Take(*t0).status, ResponseStatus::kOk);
  EXPECT_EQ(service.Take(*t1).status, ResponseStatus::kOk);
  const MetricsSnapshot m = service.metrics().Snapshot();
  EXPECT_EQ(m.rejected, 1u);
  EXPECT_EQ(m.admitted, 2u);
  EXPECT_EQ(m.completed, 2u);
}

TEST(QueryServiceTest, RejectsInvalidRequests) {
  const auto db = MakeDb(10, 0.05);
  QueryService service(PinnedSnapshot(db), {});
  QueryRequest no_query;
  EXPECT_EQ(service.Submit(std::move(no_query)).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest bad_target;
  bad_target.kind = QueryKind::kInverseRanking;
  bad_target.query = MakeQuery(0.5, 0.5, 0.05);
  bad_target.target = 1000;
  EXPECT_EQ(service.Submit(std::move(bad_target)).status().code(),
            StatusCode::kInvalidArgument);
  QueryRequest bad_k = KnnRequest(MakeQuery(0.5, 0.5, 0.05), 0, 0.5, 2);
  EXPECT_EQ(service.Submit(std::move(bad_k)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.metrics().Snapshot().invalid, 3u);
}

TEST(QueryServiceTest, NonFiniteTauDeadlineAndBoundsAreInvalid) {
  // A NaN tau slips past a plain range test and then can never decide, so
  // the request would burn its whole iteration budget to answer
  // kUndecided; a NaN deadline would be silently ignored; an infinite
  // query side would make every object a candidate and run IDCA on
  // infinite rectangles; a NaN or negative uncertainty_epsilon would
  // mislabel the answer's status. Such requests must instead be refused at
  // admission, which a trace replay records as a kInvalid response.
  const auto db = MakeDb(10, 0.05);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<QueryRequest> trace;
  for (double tau : {nan, inf, -inf}) {
    trace.push_back(KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, tau, 2));
    QueryRequest rknn = KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, tau, 2);
    rknn.kind = QueryKind::kThresholdRknn;
    trace.push_back(std::move(rknn));
  }
  for (QueryKind kind : {QueryKind::kThresholdKnn, QueryKind::kThresholdRknn,
                         QueryKind::kExpectedRank}) {
    QueryRequest req = KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, 0.5, 2);
    req.kind = kind;
    req.budget.deadline_ms = nan;
    trace.push_back(std::move(req));
  }
  // A NaN uncertainty_epsilon compares false against every uncertainty, so
  // a deadline-truncated answer would be stamped kOk; a negative one would
  // stamp a converged answer kExpired.
  for (double eps : {nan, -1e-9, -inf}) {
    for (QueryKind kind :
         {QueryKind::kInverseRanking, QueryKind::kExpectedRank}) {
      QueryRequest req = KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, 0.5, 2);
      req.kind = kind;
      req.target = 0;
      req.budget.uncertainty_epsilon = eps;
      req.budget.deadline_ms = 1.0;
      trace.push_back(std::move(req));
    }
  }
  const std::shared_ptr<const Pdf> unbounded[] = {
      std::make_shared<UniformPdf>(Rect(Point{0.4, -inf}, Point{0.6, 0.6})),
      std::make_shared<UniformPdf>(Rect(Point{0.4, 0.4}, Point{inf, 0.6})),
      std::make_shared<UniformPdf>(Rect(Point{-inf, -inf}, Point{inf, inf})),
  };
  for (const std::shared_ptr<const Pdf>& q : unbounded) {
    for (QueryKind kind :
         {QueryKind::kThresholdKnn, QueryKind::kThresholdRknn,
          QueryKind::kInverseRanking, QueryKind::kExpectedRank}) {
      QueryRequest req = KnnRequest(q, 1, 0.5, 2);
      req.kind = kind;
      req.target = 0;
      trace.push_back(std::move(req));
    }
  }
  // A well-formed request in the same trace still answers.
  trace.push_back(KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, 0.5, 2));

  QueryService service(PinnedSnapshot(db), {});
  const ReplayResult result = ReplayTrace(service, trace, /*qps=*/0.0);
  ASSERT_EQ(result.responses.size(), trace.size());
  for (size_t i = 0; i + 1 < trace.size(); ++i) {
    EXPECT_EQ(result.responses[i].status, ResponseStatus::kInvalid)
        << "i=" << i;
  }
  EXPECT_EQ(result.responses.back().status, ResponseStatus::kOk);
  EXPECT_EQ(result.invalid, trace.size() - 1);
  EXPECT_EQ(service.metrics().Snapshot().invalid, trace.size() - 1);
}

/// The per-shard RkNN candidate filter against an unindexed brute-force
/// dominator count: one batch mixing near and far queries with k in
/// {1, 3, 10}, at several shard counts, under both domination criteria
/// and the L1 and L2 norms. Each response's candidate ids must be exactly
/// the oracle's, whatever the shard count and the batch's other queries.
TEST(QueryServiceTest, RknnFilterMatchesBruteForceOracle) {
  const auto db = std::make_shared<const UncertainDatabase>(
      test_util::RknnOracleDatabase(500, 23));
  std::vector<std::pair<std::shared_ptr<const Pdf>, size_t>> probes;
  probes.emplace_back(MakeQuery(0.5, 0.5, 0.05, 1), 1);
  probes.emplace_back(MakeQuery(0.2, 0.8, 0.05, 2), 3);
  probes.emplace_back(MakeQuery(0.9, 0.1, 0.08, 3), 10);
  probes.emplace_back(test_util::FarRknnQuery(), 3);
  probes.emplace_back(MakeQuery(0.5, 0.5, 0.05, 1), 10);
  probes.emplace_back(test_util::FarRknnQuery(), 1);
  std::vector<size_t> shard_counts = {1, 2, 7};
  if (TestShards() != 1 && TestShards() != 2 && TestShards() != 7) {
    shard_counts.push_back(TestShards());
  }
  for (const DominationCriterion criterion :
       {DominationCriterion::kOptimal, DominationCriterion::kMinMax}) {
    const int c = static_cast<int>(criterion);
    SCOPED_TRACE(testing::Message() << "criterion=" << c);
    for (const int p : {1, 2}) {
      SCOPED_TRACE(testing::Message() << "p=" << p);
      const LpNorm norm(p);
      std::vector<std::vector<ObjectId>> expected;
      for (const auto& [q, k] : probes) {
        expected.push_back(test_util::BruteForceRknnCandidates(
            *db, q->bounds(), k, criterion, norm));
      }
      for (const size_t shards : shard_counts) {
        store::StoreOptions sopts;
        sopts.num_shards = shards;
        QueryServiceOptions opts;
        opts.batch_size = probes.size();
        opts.start_paused = true;
        opts.base_config.criterion = criterion;
        opts.base_config.norm = norm;
        const auto snapshot = store::VersionedObjectStore(*db, sopts).latest();
        QueryService service(snapshot, opts);
        std::vector<uint64_t> tickets;
        for (const auto& [q, k] : probes) {
          QueryRequest req = KnnRequest(q, k, 0.5, /*iterations=*/0);
          req.kind = QueryKind::kThresholdRknn;
          const StatusOr<uint64_t> ticket = service.Submit(std::move(req));
          ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
          tickets.push_back(*ticket);
        }
        service.Resume();
        std::vector<QueryResponse> responses;
        for (const uint64_t ticket : tickets) {
          responses.push_back(service.Take(ticket));
        }
        for (size_t r = 0; r < responses.size(); ++r) {
          SCOPED_TRACE(testing::Message() << "shards=" << shards << " r=" << r);
          EXPECT_EQ(responses[r].stats.batch, responses[0].stats.batch);
          std::vector<ObjectId> ids;
          for (const ThresholdQueryResult& t : responses[r].threshold) {
            ids.push_back(t.id);
          }
          EXPECT_EQ(ids, expected[r]);
        }
      }
    }
  }
}

/// The per-request kNN candidate filter against a brute-force prune
/// distance: one batch of queries spread over the whole space (so their
/// union MBR covers most of it) with k in {1, 3, 10}, a query whose
/// cutoff objects tie exactly, and one request whose k exceeds the
/// certain objects (every object is then a candidate), on a database
/// mixing in objects with existence < 1. Each response's candidate ids
/// must be exactly the oracle's, at several shard counts and under the L1
/// and L2 norms.
TEST(QueryServiceTest, KnnFilterMatchesBruteForceOracle) {
  const auto db = std::make_shared<const UncertainDatabase>(
      test_util::KnnOracleDatabase(500, 29));
  const size_t all = test_util::CertainObjects(*db) + 1;
  std::vector<std::pair<std::shared_ptr<const Pdf>, size_t>> probes;
  probes.emplace_back(MakeQuery(0.05, 0.05, 0.05, 1), 1);
  probes.emplace_back(MakeQuery(0.95, 0.95, 0.05, 2), 3);
  probes.emplace_back(MakeQuery(0.05, 0.95, 0.08, 3), 10);
  probes.emplace_back(MakeQuery(0.95, 0.05, 0.05, 4), 10);
  probes.emplace_back(MakeQuery(0.5, 0.5, 0.05, 5), 3);
  probes.emplace_back(test_util::FarRknnQuery(), 1);
  probes.emplace_back(test_util::KnnTieQuery(), 3);
  probes.emplace_back(MakeQuery(0.5, 0.5, 0.05, 6), all);
  std::vector<size_t> shard_counts = {1, 2, 7};
  if (TestShards() != 1 && TestShards() != 2 && TestShards() != 7) {
    shard_counts.push_back(TestShards());
  }
  for (const int p : {1, 2}) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    const LpNorm norm(p);
    std::vector<std::vector<ObjectId>> expected;
    for (const auto& [q, k] : probes) {
      expected.push_back(
          test_util::BruteForceKnnCandidates(*db, q->bounds(), k, norm));
    }
    EXPECT_EQ(expected.back().size(), db->size());
    for (const size_t shards : shard_counts) {
      store::StoreOptions sopts;
      sopts.num_shards = shards;
      QueryServiceOptions opts;
      opts.batch_size = probes.size();
      opts.start_paused = true;
      opts.base_config.norm = norm;
      const auto snapshot = store::VersionedObjectStore(*db, sopts).latest();
      QueryService service(snapshot, opts);
      std::vector<uint64_t> tickets;
      for (const auto& [q, k] : probes) {
        const StatusOr<uint64_t> ticket =
            service.Submit(KnnRequest(q, k, 0.5, /*iterations=*/0));
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        tickets.push_back(*ticket);
      }
      service.Resume();
      std::vector<QueryResponse> responses;
      for (const uint64_t ticket : tickets) {
        responses.push_back(service.Take(ticket));
      }
      for (size_t r = 0; r < responses.size(); ++r) {
        SCOPED_TRACE(testing::Message() << "shards=" << shards << " r=" << r);
        EXPECT_EQ(responses[r].stats.batch, responses[0].stats.batch);
        std::vector<ObjectId> ids;
        for (const ThresholdQueryResult& t : responses[r].threshold) {
          ids.push_back(t.id);
        }
        EXPECT_EQ(ids, expected[r]);
      }
    }
  }
}

TEST(QueryServiceTest, MetricsSnapshotAndJson) {
  const auto db = MakeDb(25, 0.06);
  TraceConfig tcfg;
  tcfg.num_requests = 10;
  tcfg.seed = 3;
  tcfg.query_extent = 0.06;
  tcfg.budget.max_iterations = 2;
  const std::vector<QueryRequest> trace = MakeTrace(*db, tcfg);
  QueryServiceOptions opts;
  opts.num_workers = 2;
  opts.batch_size = 4;
  QueryService service(PinnedSnapshot(db), opts);
  const ReplayResult result = ReplayTrace(service, trace, /*qps=*/0.0);
  EXPECT_EQ(result.responses.size(), trace.size());

  const MetricsSnapshot m = service.metrics().Snapshot();
  EXPECT_EQ(m.admitted, trace.size());
  EXPECT_EQ(m.completed, trace.size());
  EXPECT_GE(m.batches, 1u);
  EXPECT_GT(m.mean_batch_fill, 0.0);
  EXPECT_LE(m.latency_p50_ms, m.latency_p95_ms);
  EXPECT_LE(m.latency_p95_ms, m.latency_p99_ms);
  EXPECT_LE(m.latency_p99_ms, m.latency_max_ms);
  EXPECT_GT(m.throughput_qps, 0.0);

  const std::string json = m.ToJson();
  EXPECT_NE(json.find("\"throughput_qps\""), std::string::npos);
  EXPECT_NE(json.find("\"latency_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

/// Concurrent submitters — the TSan CI job drives this test.
TEST(QueryServiceTest, ConcurrentSubmittersAllComplete) {
  const auto db = MakeDb(20, 0.05);
  QueryServiceOptions opts;
  opts.num_workers = 2;
  opts.batch_size = 2;
  QueryService service(PinnedSnapshot(db), opts);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 5;
  std::vector<std::vector<uint64_t>> tickets(kThreads);
  std::vector<std::thread> submitters;
  for (size_t t = 0; t < kThreads; ++t) {
    submitters.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const auto q = MakeQuery(0.2 + 0.15 * static_cast<double>(t), 0.5,
                                 0.05, /*seed=*/t * 100 + i);
        const StatusOr<uint64_t> ticket =
            service.Submit(KnnRequest(q, 1, 0.5, 2));
        ASSERT_TRUE(ticket.ok());
        tickets[t].push_back(*ticket);
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  service.Flush();
  for (const auto& per_thread : tickets) {
    for (uint64_t ticket : per_thread) {
      const QueryResponse r = service.Take(ticket);
      EXPECT_EQ(r.status, ResponseStatus::kOk);
    }
  }
  EXPECT_EQ(service.metrics().Snapshot().completed, kThreads * kPerThread);
}

TEST(QueryServiceTest, ResponsesStampSnapshotVersion) {
  // The plain-database constructor wraps the db into a store and publishes
  // version 1; every response names it.
  const auto db = MakeDb(15, 0.05);
  const QueryResponse r =
      RunOne(db, KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, 0.5, 2));
  EXPECT_EQ(r.snapshot_version, 1u);
}

TEST(QueryServiceTest, NullAndEmptyDatabasesComeUpGracefully) {
  // No more hard "db must be non-null and non-empty": both an absent and
  // an empty database yield the empty version-0 snapshot, and threshold
  // queries complete with empty payloads.
  for (const auto& db :
       {std::shared_ptr<const UncertainDatabase>(),
        std::make_shared<const UncertainDatabase>()}) {
    QueryService service(PinnedSnapshot(db), {});
    const StatusOr<uint64_t> ticket =
        service.Submit(KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, 0.5, 2));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    const QueryResponse r = service.Take(*ticket);
    EXPECT_EQ(r.status, ResponseStatus::kOk);
    EXPECT_EQ(r.snapshot_version, 0u);
    EXPECT_TRUE(r.threshold.empty());
    // Inverse ranking stays invalid: no target can exist.
    QueryRequest inverse;
    inverse.kind = QueryKind::kInverseRanking;
    inverse.query = MakeQuery(0.5, 0.5, 0.05);
    inverse.target = 0;
    EXPECT_EQ(service.Submit(std::move(inverse)).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(QueryServiceTest, ZeroIterationDeadlineAnswersEveryKind) {
  // Satellite of the zero-grant contract: a deadline below one estimated
  // iteration compiles to an explicit 0-iteration grant for *every* query
  // kind — the filter phase still runs, every payload carries a valid
  // (vacuous-or-better) bracket, and nothing crashes or degrades to an
  // unexecuted request.
  const auto db = MakeDb(20, 0.1);
  const auto q = MakeQuery(0.5, 0.5, 0.1);
  for (const QueryKind kind :
       {QueryKind::kThresholdKnn, QueryKind::kThresholdRknn,
        QueryKind::kInverseRanking, QueryKind::kExpectedRank}) {
    QueryRequest req;
    req.kind = kind;
    req.query = q;
    req.k = 2;
    req.tau = 0.5;
    req.target = 3;
    req.budget.max_iterations = 8;
    req.budget.deadline_ms = 1.0;  // below est_iteration_ms (5.0)
    const QueryResponse response = RunOne(db, std::move(req));
    EXPECT_EQ(response.stats.iterations_granted, 0) << QueryKindName(kind);
    EXPECT_NE(response.status, ResponseStatus::kInvalid)
        << QueryKindName(kind);
    for (const ThresholdQueryResult& r : response.threshold) {
      EXPECT_LE(r.prob.lb, r.prob.ub);
      EXPECT_GE(r.prob.lb, 0.0);
      EXPECT_LE(r.prob.ub, 1.0);
    }
    for (size_t k = 0; k < response.rank_bounds.num_ranks(); ++k) {
      EXPECT_LE(response.rank_bounds.lb(k), response.rank_bounds.ub(k));
    }
    for (const ExpectedRankEntry& e : response.expected) {
      EXPECT_LE(e.expected_rank.lb, e.expected_rank.ub);
    }
  }
}

// ------------------------------------------------- cross-request caching

/// Tentpole acceptance: enabling the response cache (and the verdict
/// memo with it) never changes a payload byte. Two back-to-back replays
/// of one trace — the second fully warm — digest identically to the
/// cache-off run, across worker counts and batch sizes.
TEST(QueryServiceTest, ResponseCacheOnOffDigestsAreIdentical) {
  const auto db = MakeDb(30, 0.08);
  TraceConfig tcfg;
  tcfg.num_requests = 12;
  tcfg.seed = 77;
  tcfg.query_extent = 0.08;
  tcfg.k_max = 3;
  tcfg.budget.max_iterations = 3;
  const std::vector<QueryRequest> trace = MakeTrace(*db, tcfg);

  auto run = [&](size_t workers, size_t batch, bool caches) {
    QueryServiceOptions opts;
    opts.num_workers = workers;
    opts.batch_size = batch;
    opts.max_queue = trace.size();
    if (caches) {
      opts.response_cache_capacity = 256;
      opts.verdict_memo_capacity = 1 << 14;
    }
    QueryService service(PinnedSnapshot(db), opts);
    // ReplayTrace drains every ticket before returning, so the second
    // replay probes a fully-populated cache.
    const ReplayResult cold = ReplayTrace(service, trace, /*qps=*/0.0);
    const ReplayResult warm = ReplayTrace(service, trace, /*qps=*/0.0);
    EXPECT_EQ(cold.admitted, trace.size());
    EXPECT_EQ(warm.admitted, trace.size());
    std::vector<QueryResponse> all = cold.responses;
    all.insert(all.end(), warm.responses.begin(), warm.responses.end());
    if (caches) {
      EXPECT_EQ(service.response_cache()->hits(), trace.size());
      EXPECT_LE(service.response_cache()->size(),
                service.response_cache()->capacity());
      size_t warm_hits = 0;
      for (const QueryResponse& r : warm.responses) {
        warm_hits += r.stats.cache_hit ? 1 : 0;
      }
      EXPECT_EQ(warm_hits, trace.size());
    }
    return ResponseDigest(all);
  };

  const uint64_t off = run(2, 4, /*caches=*/false);
  EXPECT_EQ(run(2, 4, /*caches=*/true), off);
  EXPECT_EQ(run(1, 4, /*caches=*/true), off);
  EXPECT_EQ(run(8, 4, /*caches=*/true), off);
  EXPECT_EQ(run(2, 1, /*caches=*/true), off);
  EXPECT_EQ(run(2, 8, /*caches=*/true), off);
}

/// Verdict-memo monotonicity: with only the memo on (no response cache),
/// the warm replay re-executes every request but replays decided verdicts
/// from the memo — and still digests identically to the memo-off run.
/// The per-request deterministic counters are also unchanged: a memo hit
/// counts as a domination test exactly like the geometry call it elides.
TEST(QueryServiceTest, VerdictMemoOnOffDigestsAreIdentical) {
  const auto db = MakeDb(30, 0.08);
  TraceConfig tcfg;
  tcfg.num_requests = 10;
  tcfg.seed = 41;
  tcfg.query_extent = 0.08;
  tcfg.k_max = 3;
  tcfg.budget.max_iterations = 3;
  const std::vector<QueryRequest> trace = MakeTrace(*db, tcfg);

  struct RunResult {
    uint64_t digest = 0;
    std::vector<uint64_t> tests;  // per ticket, sorted by id
  };
  auto run = [&](size_t workers, size_t memo_capacity) {
    QueryServiceOptions opts;
    opts.num_workers = workers;
    opts.batch_size = 4;
    opts.max_queue = trace.size();
    opts.verdict_memo_capacity = memo_capacity;
    QueryService service(PinnedSnapshot(db), opts);
    const ReplayResult cold = ReplayTrace(service, trace, /*qps=*/0.0);
    const ReplayResult warm = ReplayTrace(service, trace, /*qps=*/0.0);
    if (memo_capacity > 0) {
      // The warm pass re-derives the same triples, so the memo must
      // actually serve hits (no response cache to shortcut it).
      EXPECT_GT(service.verdict_memo()->hits(), 0u);
    }
    RunResult out;
    std::vector<QueryResponse> all = cold.responses;
    all.insert(all.end(), warm.responses.begin(), warm.responses.end());
    out.digest = ResponseDigest(all);
    std::sort(all.begin(), all.end(),
              [](const QueryResponse& a, const QueryResponse& b) {
                return a.id < b.id;
              });
    for (const QueryResponse& r : all) {
      out.tests.push_back(r.stats.verdict_cache_misses);
    }
    return out;
  };

  const RunResult off = run(2, 0);
  const RunResult on = run(2, 1 << 15);
  EXPECT_EQ(on.digest, off.digest);
  EXPECT_EQ(on.tests, off.tests);
  EXPECT_EQ(run(8, 1 << 15).digest, off.digest);
}

/// The scalar and AVX2+FMA kernel tables follow one blocked accumulation
/// order (gf/kernels.h), so a full service run — refinement loops, memo,
/// reductions and all — must produce bit-identical response digests under
/// either dispatch mode. This is the end-to-end face of the equivalence
/// sweeps in ugf_equivalence_test.cc, and the in-process twin of the CI
/// leg that re-runs the suite with UPDB_FORCE_SCALAR=1.
TEST(QueryServiceTest, ScalarAndVectorKernelDigestsAreIdentical) {
  if (!gf::VectorKernelsAvailable()) GTEST_SKIP() << "no vector kernels";
  const bool was_scalar = &gf::ActiveKernels() == &gf::ScalarKernels();
  const auto db = MakeDb(30, 0.08);
  TraceConfig tcfg;
  tcfg.num_requests = 12;
  tcfg.seed = 47;
  tcfg.query_extent = 0.08;
  tcfg.k_max = 3;
  tcfg.budget.max_iterations = 3;
  const std::vector<QueryRequest> trace = MakeTrace(*db, tcfg);

  auto run = [&](bool force_scalar) {
    gf::ForceScalarKernels(force_scalar);
    QueryServiceOptions opts;
    opts.num_workers = 2;
    opts.batch_size = 4;
    opts.max_queue = trace.size();
    QueryService service(PinnedSnapshot(db), opts);
    return ResponseDigest(ReplayTrace(service, trace, /*qps=*/0.0).responses);
  };

  const uint64_t scalar_digest = run(true);
  const uint64_t vector_digest = run(false);
  EXPECT_EQ(scalar_digest, vector_digest);
  gf::ForceScalarKernels(was_scalar);
}

/// A response-cache hit bypasses execution: fresh ticket, zero measured
/// queue/exec time, cache_hit stamped, payload byte-identical to the
/// original up to the ticket id, and the hit flows through the service
/// completion metrics and the unified registry export.
TEST(QueryServiceTest, ResponseCacheHitBypassesExecution) {
  const auto db = MakeDb(25, 0.07);
  QueryServiceOptions opts;
  opts.response_cache_capacity = 8;
  QueryService service(PinnedSnapshot(db), opts);
  const auto q = MakeQuery(0.5, 0.5, 0.07);

  const StatusOr<uint64_t> t0 = service.Submit(KnnRequest(q, 2, 0.5, 3));
  ASSERT_TRUE(t0.ok());
  const QueryResponse r0 = service.Take(*t0);
  EXPECT_FALSE(r0.stats.cache_hit);

  const StatusOr<uint64_t> t1 = service.Submit(KnnRequest(q, 2, 0.5, 3));
  ASSERT_TRUE(t1.ok());
  const QueryResponse r1 = service.Take(*t1);
  EXPECT_TRUE(r1.stats.cache_hit);
  EXPECT_EQ(r1.id, *t1);
  EXPECT_EQ(r1.stats.queue_seconds, 0.0);
  EXPECT_EQ(r1.stats.exec_seconds, 0.0);

  // Byte-identical payload modulo the ticket.
  QueryResponse renamed = r1;
  renamed.id = r0.id;
  EXPECT_EQ(ResponseDigest(renamed), ResponseDigest(r0));

  EXPECT_EQ(service.response_cache()->hits(), 1u);
  EXPECT_EQ(service.metrics().Snapshot().completed, 2u);
  const std::string prom = service.metrics().registry().ToPrometheus();
  EXPECT_NE(prom.find("updb_response_cache_hits_total"), std::string::npos);
  EXPECT_NE(prom.find("updb_response_cache_entries"), std::string::npos);
  const std::string json = service.metrics().registry().ToJson();
  EXPECT_NE(json.find("updb_response_cache_hits_total"), std::string::npos);
}

/// Churn staleness oracle: a publish stamps a new snapshot_version, and
/// the very next identical request recomputes against it — the cache can
/// never serve a payload from the previous version, because the version
/// is part of the key.
TEST(QueryServiceTest, PublishNeverServesStaleCachedPayload) {
  const auto db = MakeDb(20, 0.08);
  store::StoreOptions sopts;
  sopts.num_shards = TestShards();
  auto live = std::make_shared<store::VersionedObjectStore>(*db, sopts);
  QueryServiceOptions opts;
  opts.response_cache_capacity = 16;
  opts.verdict_memo_capacity = 1 << 12;
  QueryService service(live, opts);
  const auto q = MakeQuery(0.5, 0.5, 0.08);
  auto submit = [&] {
    const StatusOr<uint64_t> t = service.Submit(KnnRequest(q, 2, 0.5, 3));
    EXPECT_TRUE(t.ok()) << t.status().ToString();
    return service.Take(*t);
  };

  const QueryResponse v1 = submit();
  EXPECT_EQ(v1.snapshot_version, 1u);
  EXPECT_FALSE(v1.stats.cache_hit);
  const QueryResponse v1_hit = submit();
  EXPECT_TRUE(v1_hit.stats.cache_hit);
  EXPECT_EQ(v1_hit.snapshot_version, 1u);

  // Remove an object the v1 answer mentioned (so a stale replay would be
  // observably wrong), publish version 2, and re-ask.
  const ObjectId victim =
      v1.threshold.empty() ? ObjectId{0} : v1.threshold.front().id;
  ASSERT_TRUE(live->Remove(victim).ok());
  live->Publish();
  const QueryResponse v2 = submit();
  EXPECT_EQ(v2.snapshot_version, 2u);
  EXPECT_FALSE(v2.stats.cache_hit);
  for (const ThresholdQueryResult& r : v2.threshold) {
    EXPECT_NE(r.id, victim);
  }

  // The recomputed payload matches a cache-free service pinned to the new
  // version, bit for bit (modulo the ticket id).
  QueryService fresh(live->latest(), {});
  const StatusOr<uint64_t> ft = fresh.Submit(KnnRequest(q, 2, 0.5, 3));
  ASSERT_TRUE(ft.ok());
  const QueryResponse truth = fresh.Take(*ft);
  QueryResponse renamed = v2;
  renamed.id = truth.id;
  EXPECT_EQ(ResponseDigest(renamed), ResponseDigest(truth));

  // And the v2 payload is what later identical requests now hit.
  const QueryResponse v2_hit = submit();
  EXPECT_TRUE(v2_hit.stats.cache_hit);
  EXPECT_EQ(v2_hit.snapshot_version, 2u);
  QueryResponse renamed_hit = v2_hit;
  renamed_hit.id = v2.id;
  EXPECT_EQ(ResponseDigest(renamed_hit), ResponseDigest(v2));
}

TEST(QueryServiceTest, SubmitAfterShutdownFails) {
  const auto db = MakeDb(10, 0.05);
  QueryService service(PinnedSnapshot(db), {});
  service.Shutdown();
  const StatusOr<uint64_t> ticket =
      service.Submit(KnnRequest(MakeQuery(0.5, 0.5, 0.05), 1, 0.5, 2));
  EXPECT_EQ(ticket.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace service
}  // namespace updb
