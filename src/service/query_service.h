// Copyright 2026 The updb Authors.
// QueryService — the concurrent serving layer over the query stack
// (ROADMAP north star: accept many heterogeneous requests, schedule them,
// bound their cost, report tail latency). Architecture:
//
//   Submit() -> bounded admission queue -> dispatcher thread -> rounds
//   (filter per batch, then one job per engine run) executed by N workers
//   (ThreadPool::ParallelFor) against one store snapshot per round ->
//   response table.
//
// Snapshots: the service serves a VersionedObjectStore (store/). In live
// mode the dispatcher acquires the latest published snapshot once per
// round, so every batch of a round sees one consistent version and
// writers/publishers never block queries; in pinned mode (constructed
// from a StoreSnapshot, or from a plain database which is wrapped into a
// single published version) every round serves the same fixed version.
// Every response is stamped with the snapshot_version it executed
// against.
//
// Scheduling/batching: the dispatcher pops up to num_workers * batch_size
// queued requests per round, partitions them into consecutive
// submission-order chunks of batch_size, and runs the round in three
// phases on its own ThreadPool (the dispatcher participates as worker 0):
//
//  1. Filter phase — one ParallelFor over the batches. Each batch
//     validates its requests against the round's snapshot, groups them by
//     kind and runs the direct query path's candidate filters
//     (queries/queries.h) over one scan per store shard: a KnnCandidates
//     call per kNN request and one RknnCandidates pass per batch for RkNN
//     (one nearest-first dominator scan per spatial group of 16 objects
//     counts every request at once for every member). It then compiles
//     each request's budget into its engine. The filters fan out per shard
//     (ThreadPool::SharedParallelFor) and reduce in fixed shard order — a
//     distance cutoff and a capped dominator count are
//     partition-invariant, so candidate sets are identical for every
//     num_shards. The shard fan-out runs genuinely parallel in
//     single-batch rounds (ParallelFor(n == 1) keeps the nested loop's
//     parallelism); in multi-batch rounds it runs inline.
//  2. Job phase — one ParallelFor over a flat list of the round's engine
//     runs: one job per (threshold request, candidate), one per
//     inverse-ranking request and one per expected-rank request. Indices
//     are handed out dynamically, so a lone request's candidates spread
//     over every worker and no worker idles while the round has jobs
//     left. Each job writes only its own result slot. With num_workers ==
//     1 the jobs run inline in list order.
//  3. Finish phase — in request order, each request's run stats are
//     summed in candidate order (SumRunStats, as the direct path does) and
//     its status is set.
//
// Rounds are still a barrier — the next round starts once the current
// one's last job finishes — but a worker only idles during a round's last
// jobs, not while another worker refines a whole batch alone.
//
// Determinism: batch *composition* may depend on timing (a drained queue
// dispatches partial batches), and so may the version a round serves
// under live updates — so both are constructed to be result-invariant
// per (request, version): the filters compute, per request, exactly the
// candidate set a solo run against that version would (each request is
// cut by its own prune distance or counted against its own reach box),
// and every response is a pure function of (request, snapshot version,
// compiled budget). Replaying a request pinned to the
// version its response names reproduces the payload bit-identically for
// any num_workers/batch_size/num_shards and any arrival timing; only the
// wall-clock stats fields differ. Deadlines are compiled to iteration
// budgets at admission (see service/request.h) — the wall clock never
// steers execution.
//
// Caching (optional, off by default): that same determinism contract is
// what makes cross-request caching sound. With response_cache_capacity
// set, Submit first probes a (canonical request, snapshot_version)-keyed
// response cache — a hit bypasses queueing and execution entirely and
// returns the cached payload re-stamped with a fresh ticket (bit-identical
// otherwise; only the wall-clock/batch/cache_hit stats fields differ, and
// the digest covers none of them). Lookups key on the version current at
// submission and inserts on the version the response executed against, so
// a publish — which mints a new version — can never serve a stale payload;
// a hit is indistinguishable from the request having been dispatched
// before the publish, which the admission-time contract already permits.
// With verdict_memo_capacity set, engine runs additionally share decided
// domination verdicts through a snapshot-scoped lock-free memo
// (cache/verdict_memo.h) — same payloads, fewer geometry tests.

#ifndef UPDB_SERVICE_QUERY_SERVICE_H_
#define UPDB_SERVICE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/response_cache.h"
#include "cache/verdict_memo.h"
#include "obs/audit_log.h"
#include "common/thread_pool.h"
#include "core/idca.h"
#include "queries/queries.h"
#include "service/metrics.h"
#include "service/request.h"
#include "store/object_store.h"
#include "uncertain/database.h"

namespace updb {
namespace service {

/// Tuning knobs of the service.
struct QueryServiceOptions {
  /// Workers executing batches in parallel (the dispatcher thread is
  /// worker 0; num_workers - 1 pool threads are spawned). Must be >= 1.
  size_t num_workers = 1;
  /// Admitted requests grouped into one batch (>= 1). Sets only how many
  /// RkNN requests share one filter pass (and how many batches a round
  /// holds); engine runs are spread over the workers one job per run
  /// whatever the batch size.
  size_t batch_size = 8;
  /// Bound of the admission queue; Submit rejects (ResourceExhausted) when
  /// this many requests are queued and not yet dispatched. Must be >= 1.
  size_t max_queue = 1024;
  /// Baseline engine configuration (norm, criterion, split policy, verdict
  /// cache). Per-request budgets override max_iterations and
  /// uncertainty_epsilon; num_threads is forced to 1 inside workers — the
  /// service owns the coarse-grained parallelism — and use_index_filter is
  /// forced off (the service runs its own candidate filters against the
  /// snapshot index; the engine-level filter would need a per-version
  /// dense-id tree and changes no response payload).
  IdcaConfig base_config;
  /// Deadline compilation constant: a request with deadline_ms is granted
  /// floor(deadline_ms / est_iteration_ms) refinement iterations (capped
  /// by its max_iterations). A fixed constant, not a measurement, so the
  /// granted budget — and with it the response — is deterministic.
  double est_iteration_ms = 5.0;
  /// Construct the service paused: admitted requests queue up but no batch
  /// is dispatched until Resume(). Lets tests and closed-loop drivers
  /// control batch composition exactly.
  bool start_paused = false;
  /// Registry the service's metric series register in (must outlive the
  /// service). nullptr creates a private registry, still exportable via
  /// metrics().registry() — processes wanting one unified export pass
  /// obs::MetricsRegistry::Default().
  obs::MetricsRegistry* metrics_registry = nullptr;
  /// Span sink for per-request tracing (submit, queue wait, batch, request
  /// execution, and — threaded into the compiled IdcaConfig — the engine's
  /// filter/iteration spans). nullptr (default) disables tracing; every
  /// instrumentation site then costs one pointer test, and payloads are
  /// bit-identical either way (digest-oracle enforced).
  obs::TraceRecorder* trace = nullptr;
  /// Entries of the cross-request response cache, keyed by (canonical
  /// serialized request, snapshot_version): a repeated request against the
  /// same published version bypasses execution and returns the cached —
  /// bit-identical — payload. 0 (default) disables the cache. Responses
  /// whose request has no canonical serialization, or that terminated
  /// kRejected/kInvalid, are never cached.
  size_t response_cache_capacity = 0;
  /// Pre-built response cache shared with other services or passes (e.g. a
  /// warm-replay service reusing a cold pass's entries); overrides
  /// response_cache_capacity when non-null.
  std::shared_ptr<cache::ResponseCache> response_cache;
  /// Slots of the snapshot-scoped cross-request verdict memo threaded into
  /// every engine run (cache/verdict_memo.h): decided domination verdicts
  /// recorded by one request are reused by later requests against the same
  /// snapshot version. Payloads stay bit-identical with the memo on or
  /// off. 0 (default) disables the memo.
  size_t verdict_memo_capacity = 0;
  /// Pre-built verdict memo shared across services; overrides
  /// verdict_memo_capacity when non-null.
  std::shared_ptr<cache::VerdictMemo> verdict_memo;
  /// Slow-request audit ring (obs/audit_log.h) the service records every
  /// completed request into — cache hits included — for /requestz. The
  /// record path is mutex-free and runs after the response is final, so
  /// payloads are bit-identical with auditing on or off. nullptr
  /// (default) disables auditing; must outlive the service.
  obs::RequestAuditLog* audit_log = nullptr;
};

/// The concurrent query service. Thread-safe: any thread may Submit/Take;
/// one internal dispatcher schedules execution.
class QueryService {
 public:
  /// Pinned-single-version convenience: wraps `db` into an internal
  /// versioned store, publishes version 1, and serves that snapshot
  /// forever. A null or empty `db` yields an empty snapshot (requests
  /// complete with empty payloads) — the service no longer requires a
  /// populated database to come up.
  QueryService(std::shared_ptr<const UncertainDatabase> db,
               QueryServiceOptions options);

  /// Live mode: serves `store`, acquiring the latest published snapshot
  /// once per dispatch round. Writers mutate and Publish() concurrently;
  /// the service never blocks them. `store` must be non-null.
  QueryService(std::shared_ptr<store::VersionedObjectStore> db_store,
               QueryServiceOptions options);

  /// Pinned mode: serves exactly `snapshot` (any retained version) for the
  /// service's lifetime, regardless of later publishes — the replay path
  /// of the version-determinism contract. `snapshot` must be non-null.
  QueryService(std::shared_ptr<const store::StoreSnapshot> snapshot,
               QueryServiceOptions options);

  /// Drains admitted requests, then stops the workers.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Validates (against the current snapshot) and enqueues a request.
  /// Returns the ticket to redeem with Take(), InvalidArgument when
  /// validation fails, ResourceExhausted when the admission queue is full,
  /// FailedPrecondition after Shutdown().
  StatusOr<uint64_t> Submit(QueryRequest request);

  /// Blocks until the response for `ticket` is ready and returns it. Each
  /// ticket is redeemable exactly once.
  QueryResponse Take(uint64_t ticket);

  /// Blocks until every admitted request has completed.
  void Flush();

  /// Pauses dispatching (admission continues); no-op when paused.
  void Pause();
  /// Resumes dispatching; no-op when running.
  void Resume();

  /// Drains and stops the dispatcher; further Submits fail. Idempotent.
  void Shutdown();

  const QueryServiceOptions& options() const { return options_; }
  const ServiceMetrics& metrics() const { return metrics_; }
  /// The effective caches (configured or injected; null when disabled) —
  /// counters for oracles, and the handles warm-replay passes share.
  const std::shared_ptr<cache::ResponseCache>& response_cache() const {
    return response_cache_;
  }
  const std::shared_ptr<cache::VerdictMemo>& verdict_memo() const {
    return verdict_memo_;
  }
  /// The snapshot a round dispatched now would serve (pinned snapshot, or
  /// the store's latest). Never null.
  std::shared_ptr<const store::StoreSnapshot> CurrentSnapshot() const;

 private:
  /// A request in flight: ticket, payload, submit-time stopwatch, and the
  /// response being assembled.
  struct Pending {
    uint64_t ticket = 0;
    QueryRequest request;
    Stopwatch since_submit;
    double queue_seconds = 0.0;
    QueryResponse response;
    /// Canonical request serialization (empty when the request has none:
    /// such requests bypass the response cache and the verdict memo).
    std::string cache_key;
    /// Query-PDF identity token for the verdict memo (0 iff cache_key is
    /// empty).
    uint64_t query_token = 0;

    // Engine work in the dispatch round, set up by the filter phase.
    int iterations_granted = 0;
    /// The compiled engine (budget, memo context). Empty when the filter
    /// phase already finished the request (kInvalid, or an empty
    /// snapshot's empty payload): no jobs, no finish.
    std::optional<IdcaEngine> engine;
    /// Threshold kinds: the filter's candidates, one job each.
    std::vector<ObjectId> candidates;
    /// Inverse ranking: the round snapshot's translation of the request's
    /// stable target id.
    ObjectId dense_target = kInvalidObjectId;
    /// The request's jobs in the round's job list.
    size_t first_job = 0;
    size_t num_jobs = 0;
  };

  QueryService(std::shared_ptr<store::VersionedObjectStore> db_store,
               std::shared_ptr<const store::StoreSnapshot> pinned,
               QueryServiceOptions options);

  /// One engine run of the job phase: round request `request` and, for
  /// threshold kinds, its candidate `candidate`.
  struct Job {
    size_t request = 0;
    size_t candidate = 0;
  };
  /// A job's wall-clock interval, in seconds since its job phase began.
  struct JobWindow {
    double start = 0.0;
    double end = 0.0;
  };

  void DispatcherMain();
  /// Filter phase of one batch (consecutive slice of a round) against
  /// `snap`: validation, candidate filters (RkNN requests sharing one
  /// pass) and compiled engines.
  void FilterBatch(const store::StoreSnapshot& snap, Pending* batch,
                   size_t count, uint64_t batch_seq) const;
  /// FilterBatch's candidate filter for the batch's kNN (`reverse` false)
  /// or RkNN requests.
  void FilterThreshold(const store::StoreSnapshot& snap,
                       std::span<Pending* const> requests, bool reverse) const;
  /// Compiles a request's budget (and memo context) into its engine.
  void CompileEngine(const store::StoreSnapshot& snap, Pending& p) const;
  /// Job phase: one engine run; writes only its candidate's payload slot
  /// (or the request's payload for one-job kinds) and `run`.
  void RunJob(const store::StoreSnapshot& snap, Pending& p, size_t candidate,
              QueryStats& run) const;
  /// Finish phase: sums the request's job stats in candidate order, sets
  /// its status and stats (exec_seconds spans its jobs' `windows`) and,
  /// when tracing, records its exec span; `phase_start_ns` is the job
  /// phase's start on the trace clock.
  void FinishRequest(Pending& p, std::span<const QueryStats> runs,
                     std::span<const JobWindow> windows,
                     uint64_t phase_start_ns) const;

  /// Deadline-compiled engine configuration for one request.
  IdcaConfig CompileBudget(const QueryBudget& budget,
                           int* iterations_granted) const;

  /// Threads the cross-request verdict memo into a compiled config, keyed
  /// to the round's snapshot version (no-op when the memo is disabled or
  /// the request has no canonical serialization).
  void AttachMemo(IdcaConfig* cfg, const Pending& p,
                  uint64_t snapshot_version) const;

  const std::shared_ptr<store::VersionedObjectStore> store_;  // live mode
  const std::shared_ptr<const store::StoreSnapshot> pinned_;  // pinned mode
  const QueryServiceOptions options_;
  ServiceMetrics metrics_;
  /// Cross-request caches (null when disabled). Both register their
  /// series in the service's effective metrics registry when the service
  /// creates them; injected instances keep their own registration.
  std::shared_ptr<cache::ResponseCache> response_cache_;
  std::shared_ptr<cache::VerdictMemo> verdict_memo_;
  ThreadPool pool_;  // num_workers - 1 threads; dispatcher is worker 0

  std::mutex mu_;
  std::condition_variable queue_cv_;  // dispatcher: work or stop
  std::condition_variable done_cv_;   // Take/Flush: responses landed
  std::deque<Pending> pending_;
  std::unordered_map<uint64_t, QueryResponse> done_;
  uint64_t next_ticket_ = 0;
  uint64_t next_batch_seq_ = 0;
  uint64_t admitted_ = 0;
  uint64_t completed_ = 0;
  bool paused_ = false;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace service
}  // namespace updb

#endif  // UPDB_SERVICE_QUERY_SERVICE_H_
