#include "service/query_service.h"

#include <algorithm>
#include <cmath>

#include "queries/queries.h"

namespace updb {
namespace service {

namespace {

/// One nearest-first scan per shard of `index`, in shard order, as the
/// candidate filters take them.
std::vector<MinDistScan> ShardScans(const store::ShardedSnapshotIndex& index,
                                    const LpNorm& norm) {
  std::vector<MinDistScan> scans;
  scans.reserve(index.num_shards());
  for (size_t s = 0; s < index.num_shards(); ++s) {
    scans.push_back(
        [&index, s, &norm](const Rect& from, const MinDistEmit& emit) {
          index.ShardScanByMinDist(s, from, emit, norm);
        });
  }
  return scans;
}

size_t CheckedPoolSize(size_t num_workers) {
  UPDB_CHECK(num_workers >= 1);
  return num_workers - 1;
}

/// Internal store for the pinned-single-version convenience constructor.
std::shared_ptr<const store::StoreSnapshot> SeededSnapshot(
    const std::shared_ptr<const UncertainDatabase>& db) {
  if (db == nullptr || db->empty()) {
    return store::VersionedObjectStore().latest();
  }
  return store::VersionedObjectStore(*db).latest();
}

/// Flattens one completed response into the slow-request audit ring
/// (no-op when auditing is off). Mutex-free; called after the response is
/// final so it can never influence a payload.
void RecordAudit(obs::RequestAuditLog* log, const QueryResponse& response,
                 double total_seconds) {
  if (log == nullptr) return;
  obs::AuditRecord rec;
  rec.ticket = response.id;
  rec.kind = QueryKindName(response.kind);
  rec.status = ResponseStatusName(response.status);
  rec.snapshot_version = response.snapshot_version;
  rec.queue_seconds = response.stats.queue_seconds;
  rec.exec_seconds = response.stats.exec_seconds;
  rec.total_seconds = total_seconds;
  rec.batch = response.stats.batch;
  rec.candidates = response.stats.candidates;
  rec.idca_iterations = response.stats.idca_iterations;
  rec.ugf_multiplies = response.stats.ugf_multiplies;
  rec.verdict_cache_hits = response.stats.verdict_cache_hits;
  rec.verdict_cache_misses = response.stats.verdict_cache_misses;
  rec.cache_hit = response.stats.cache_hit;
  log->Record(rec);
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const UncertainDatabase> db,
                           QueryServiceOptions options)
    : QueryService(nullptr, SeededSnapshot(db), options) {}

QueryService::QueryService(
    std::shared_ptr<store::VersionedObjectStore> db_store,
    QueryServiceOptions options)
    : QueryService(std::move(db_store), nullptr, options) {
  UPDB_CHECK(store_ != nullptr);
}

QueryService::QueryService(
    std::shared_ptr<const store::StoreSnapshot> snapshot,
    QueryServiceOptions options)
    : QueryService(nullptr, std::move(snapshot), options) {
  UPDB_CHECK(pinned_ != nullptr);
}

QueryService::QueryService(
    std::shared_ptr<store::VersionedObjectStore> db_store,
    std::shared_ptr<const store::StoreSnapshot> pinned,
    QueryServiceOptions options)
    : store_(std::move(db_store)),
      pinned_(std::move(pinned)),
      options_(options),
      metrics_(options_.metrics_registry),
      pool_(CheckedPoolSize(options.num_workers)),
      paused_(options.start_paused) {
  UPDB_CHECK(store_ != nullptr || pinned_ != nullptr);
  UPDB_CHECK(options_.batch_size >= 1);
  UPDB_CHECK(options_.max_queue >= 1);
  UPDB_CHECK(options_.est_iteration_ms > 0.0);
  // Service-created caches register in the effective registry (the
  // injected one or metrics_'s private fallback), so their series join
  // the same JSON/Prometheus export as the service counters.
  if (options_.response_cache != nullptr) {
    response_cache_ = options_.response_cache;
  } else if (options_.response_cache_capacity > 0) {
    response_cache_ = std::make_shared<cache::ResponseCache>(
        options_.response_cache_capacity, &metrics_.registry());
  }
  if (options_.verdict_memo != nullptr) {
    verdict_memo_ = options_.verdict_memo;
  } else if (options_.verdict_memo_capacity > 0) {
    verdict_memo_ = std::make_shared<cache::VerdictMemo>(
        options_.verdict_memo_capacity, &metrics_.registry());
  }
  dispatcher_ = std::thread([this] { DispatcherMain(); });
}

QueryService::~QueryService() { Shutdown(); }

std::shared_ptr<const store::StoreSnapshot> QueryService::CurrentSnapshot()
    const {
  return pinned_ != nullptr ? pinned_ : store_->latest();
}

StatusOr<uint64_t> QueryService::Submit(QueryRequest request) {
  // Admission-time validation runs against the current snapshot; under
  // live updates execution may see a newer version, which re-validates
  // whatever can drift (see FilterBatch).
  const std::shared_ptr<const store::StoreSnapshot> snap = CurrentSnapshot();
  const Status valid = ValidateRequest(request, *snap);
  if (!valid.ok()) {
    metrics_.RecordInvalid();
    return valid;
  }

  // Canonicalize once when any cross-request cache is enabled; a request
  // whose query PDF has no line serialization keeps an empty key and
  // bypasses both caches.
  std::string cache_key;
  uint64_t query_token = 0;
  if (response_cache_ != nullptr || verdict_memo_ != nullptr) {
    StatusOr<CanonicalRequest> canon = CanonicalizeRequest(request);
    if (canon.ok()) {
      cache_key = std::move(canon->key);
      query_token = canon->query_token;
    }
  }

  // Response-cache fast path: a hit for (request, current version)
  // bypasses queueing and execution entirely. The cached payload is the
  // determinism contract's pure function of exactly that key, re-stamped
  // with a fresh ticket; the deterministic stats stay verbatim and the
  // wall-clock fields are zeroed (a hit waits in no queue and runs no
  // batch). Serving the version current at submission is
  // indistinguishable from the request having been dispatched before any
  // concurrent publish — the ordering the admission contract already
  // allows — and a publish mints a new version, i.e. a new key, so a
  // stale payload is unreachable by construction.
  if (response_cache_ != nullptr && !cache_key.empty()) {
    QueryResponse hit;
    if (response_cache_->Lookup(cache_key, snap->version(), &hit)) {
      const ResponseStatus status = hit.status;
      uint64_t hit_ticket = 0;
      size_t hit_depth = 0;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (stop_) return Status::FailedPrecondition("service is shut down");
        hit_ticket = next_ticket_++;
        hit.id = hit_ticket;
        hit.stats.cache_hit = true;
        hit.stats.queue_seconds = 0.0;
        hit.stats.exec_seconds = 0.0;
        // The ring write itself is lock-free; it sits here only because
        // the response is moved out on the next line.
        RecordAudit(options_.audit_log, hit, 0.0);
        done_.emplace(hit_ticket, std::move(hit));
        ++admitted_;
        ++completed_;  // never enters pending_: Flush's invariant holds
        hit_depth = pending_.size();
      }
      metrics_.RecordAdmitted(hit_depth);
      metrics_.RecordCompleted(status, 0.0);
      if (options_.trace != nullptr) {
        const obs::TraceArg args[1] = {{"ticket", hit_ticket}};
        options_.trace->RecordInstant("cache_hit", "service", args, 1);
      }
      done_cv_.notify_all();
      return hit_ticket;
    }
  }

  uint64_t ticket = 0;
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return Status::FailedPrecondition("service is shut down");
    if (pending_.size() >= options_.max_queue) {
      metrics_.RecordRejected();
      return Status::ResourceExhausted("admission queue full");
    }
    ticket = next_ticket_++;
    Pending p;
    p.ticket = ticket;
    p.request = std::move(request);
    p.response.id = ticket;
    p.response.kind = p.request.kind;
    p.cache_key = std::move(cache_key);
    p.query_token = query_token;
    pending_.push_back(std::move(p));
    ++admitted_;
    depth = pending_.size();
  }
  metrics_.RecordAdmitted(depth);
  if (options_.trace != nullptr) {
    const obs::TraceArg args[2] = {{"ticket", ticket},
                                   {"queue_depth", depth}};
    options_.trace->RecordInstant("submit", "service", args, 2);
  }
  queue_cv_.notify_one();
  return ticket;
}

QueryResponse QueryService::Take(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return done_.find(ticket) != done_.end(); });
  auto it = done_.find(ticket);
  QueryResponse response = std::move(it->second);
  done_.erase(it);
  return response;
}

void QueryService::Flush() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [&] { return completed_ == admitted_; });
}

void QueryService::Pause() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void QueryService::Resume() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  queue_cv_.notify_all();
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void QueryService::DispatcherMain() {
  // Per-round storage, reused across rounds: the flat job list, and one
  // stats slot and one wall-clock window per job.
  std::vector<Job> jobs;
  std::vector<QueryStats> runs;
  std::vector<JobWindow> windows;
  for (;;) {
    std::vector<Pending> round;
    uint64_t batch_seq_base = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] {
        return stop_ || (!paused_ && !pending_.empty());
      });
      // On stop, keep draining (even when paused) and exit once empty.
      if (pending_.empty()) {
        if (stop_) return;
        continue;
      }
      const size_t take = std::min(
          pending_.size(), options_.num_workers * options_.batch_size);
      round.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        round.push_back(std::move(pending_.front()));
        pending_.pop_front();
        round.back().queue_seconds = round.back().since_submit.ElapsedSeconds();
      }
      const size_t num_batches =
          (take + options_.batch_size - 1) / options_.batch_size;
      batch_seq_base = next_batch_seq_;
      next_batch_seq_ += num_batches;
      metrics_.RecordQueueDepth(pending_.size());
    }

    // One snapshot per round: every batch of this round executes against
    // the same version, acquired after the round's composition is fixed.
    const std::shared_ptr<const store::StoreSnapshot> snap =
        CurrentSnapshot();

    // Filter phase: per batch, in parallel across batches.
    const size_t bs = options_.batch_size;
    const size_t num_batches = (round.size() + bs - 1) / bs;
    pool_.ParallelFor(
        num_batches, options_.num_workers, [&](size_t b, size_t /*worker*/) {
          const size_t begin = b * bs;
          const size_t count = std::min(bs, round.size() - begin);
          FilterBatch(*snap, round.data() + begin, count,
                      batch_seq_base + b);
          metrics_.RecordBatch(count);
        });

    // Job phase: every engine run of the round is one job, in request
    // then candidate order.
    jobs.clear();
    for (size_t r = 0; r < round.size(); ++r) {
      Pending& p = round[r];
      p.first_job = jobs.size();
      for (size_t c = 0; c < p.num_jobs; ++c) jobs.push_back(Job{r, c});
    }
    runs.assign(jobs.size(), QueryStats{});
    windows.assign(jobs.size(), JobWindow{});
    const Stopwatch phase_clock;
    const uint64_t phase_start_ns =
        options_.trace != nullptr ? options_.trace->NowNs() : 0;
    pool_.ParallelFor(
        jobs.size(), options_.num_workers, [&](size_t j, size_t /*worker*/) {
          const Job& job = jobs[j];
          windows[j].start = phase_clock.ElapsedSeconds();
          RunJob(*snap, round[job.request], job.candidate, runs[j]);
          windows[j].end = phase_clock.ElapsedSeconds();
        });

    // Finish phase, in request order.
    for (size_t r = 0; r < round.size(); ++r) {
      Pending& p = round[r];
      if (!p.engine.has_value()) continue;
      FinishRequest(
          p, std::span<const QueryStats>(runs).subspan(p.first_job, p.num_jobs),
          std::span<const JobWindow>(windows).subspan(p.first_job,
                                                      p.num_jobs),
          phase_start_ns);
    }

    // Record completed responses for later identical requests before
    // handing them out (outside mu_: inserts copy payloads and only take
    // the cache's stripe locks). Inserts key on the version the response
    // actually executed against; kRejected never reaches here and
    // kInvalid is snapshot-churn-specific, so only kOk/kExpired — the
    // reproducible terminal states — are cached.
    if (response_cache_ != nullptr) {
      for (const Pending& p : round) {
        if (!p.cache_key.empty() &&
            (p.response.status == ResponseStatus::kOk ||
             p.response.status == ResponseStatus::kExpired)) {
          response_cache_->Insert(p.cache_key, p.response.snapshot_version,
                                  p.response);
        }
      }
    }

    // Audit before the completion lock: the ring's record path is
    // mutex-free and the responses are final here.
    for (const Pending& p : round) {
      RecordAudit(options_.audit_log, p.response,
                  p.since_submit.ElapsedSeconds());
    }

    {
      std::lock_guard<std::mutex> lock(mu_);
      for (Pending& p : round) {
        metrics_.RecordCompleted(p.response.status,
                                 p.since_submit.ElapsedSeconds());
        done_.emplace(p.ticket, std::move(p.response));
      }
      completed_ += round.size();
    }
    done_cv_.notify_all();
  }
}

IdcaConfig QueryService::CompileBudget(const QueryBudget& budget,
                                       int* iterations_granted) const {
  IdcaConfig cfg = options_.base_config;
  // The service owns the coarse-grained (batch-level) parallelism; engine
  // runs stay serial so workers never contend for the shared pool. The
  // engine-level index filter is bypassed too — the service already feeds
  // the engine index-filtered candidates, and the linear filter computes
  // the identical influence set, so the payload cannot change.
  cfg.num_threads = 1;
  cfg.use_index_filter = false;
  cfg.collect_stats = true;
  cfg.trace = options_.trace;
  int granted = budget.max_iterations;
  if (budget.deadline_ms > 0.0) {
    const double by_deadline =
        std::floor(budget.deadline_ms / options_.est_iteration_ms);
    if (by_deadline < static_cast<double>(granted)) {
      // A deadline shorter than one estimated iteration compiles to an
      // explicit zero-iteration grant — NOT to an unexecuted request: the
      // engine still runs its complete-domination filter, every payload
      // field carries the valid filter-phase bracket (vacuous-or-better,
      // kUndecided where a predicate applies), and the response
      // terminates kExpired. The max with 0 also keeps a sub-millisecond
      // deadline from going negative through the floor/int conversion.
      granted = std::max(0, static_cast<int>(by_deadline));
    }
  }
  cfg.max_iterations = granted;
  cfg.uncertainty_epsilon = budget.uncertainty_epsilon;
  *iterations_granted = granted;
  return cfg;
}

void QueryService::AttachMemo(IdcaConfig* cfg, const Pending& p,
                              uint64_t snapshot_version) const {
  if (verdict_memo_ == nullptr || p.cache_key.empty()) return;
  cfg->verdict_memo = verdict_memo_.get();
  cfg->memo_context =
      cache::VerdictMemo::MixContext(snapshot_version, p.query_token);
}

void QueryService::CompileEngine(const store::StoreSnapshot& snap,
                                 Pending& p) const {
  IdcaConfig cfg = CompileBudget(p.request.budget, &p.iterations_granted);
  AttachMemo(&cfg, p, snap.version());
  p.engine.emplace(*snap.db(), cfg);
}

void QueryService::FilterBatch(const store::StoreSnapshot& snap,
                               Pending* batch, size_t count,
                               uint64_t batch_seq) const {
  const UncertainDatabase& db = *snap.db();
  obs::TraceSpan batch_span(options_.trace, "batch", "service");
  batch_span.AddArg("batch_seq", batch_seq);
  batch_span.AddArg("count", count);
  batch_span.AddArg("version", snap.version());
  // Group same-kind requests; the RkNN ones share one filter pass.
  // Requests whose admission-time validation no longer holds against this
  // round's snapshot (live updates landed in between) terminate as
  // kInvalid; requests against an empty snapshot complete with empty
  // payloads.
  std::vector<Pending*> knn, rknn;
  for (size_t i = 0; i < count; ++i) {
    Pending& p = batch[i];
    p.response.snapshot_version = snap.version();
    p.response.stats.batch = batch_seq;
    p.response.stats.queue_seconds = p.queue_seconds;
    if (options_.trace != nullptr) {
      // Queue wait reconstructed backwards from batch start: the span
      // ends now and began when the request was admitted. The recorder
      // clamps start AND duration consistently, so a wait measured
      // against the request's own stopwatch can never overstate itself
      // or precede the recorder's epoch on the trace timeline.
      const obs::TraceArg args[1] = {{"ticket", p.ticket}};
      options_.trace->RecordBackdatedSpan(
          "queue_wait", "service", options_.trace->NowNs(),
          static_cast<uint64_t>(p.queue_seconds * 1e9), args, 1);
    }
    if (!db.empty() && p.request.query->bounds().dim() != db.dim()) {
      p.response.status = ResponseStatus::kInvalid;
      continue;
    }
    switch (p.request.kind) {
      case QueryKind::kThresholdKnn:
        if (!db.empty()) knn.push_back(&p);
        break;
      case QueryKind::kThresholdRknn:
        if (!db.empty()) rknn.push_back(&p);
        break;
      case QueryKind::kInverseRanking: {
        // The target is a stable store id; re-translate it against this
        // round's snapshot so churn between admission and execution can
        // never re-bind the request to whichever object inherited the
        // dense slot. A target no longer live terminates as kInvalid.
        const StatusOr<ObjectId> dense = snap.DenseId(p.request.target);
        if (!dense.ok()) {
          p.response.status = ResponseStatus::kInvalid;
        } else {
          p.dense_target = *dense;
          p.num_jobs = 1;
          CompileEngine(snap, p);
        }
        break;
      }
      case QueryKind::kExpectedRank:
        if (!db.empty()) {
          p.num_jobs = 1;
          CompileEngine(snap, p);
        }
        break;
    }
  }
  if (!knn.empty()) FilterThreshold(snap, knn, /*reverse=*/false);
  if (!rknn.empty()) FilterThreshold(snap, rknn, /*reverse=*/true);
}

void QueryService::FilterThreshold(const store::StoreSnapshot& snap,
                                   std::span<Pending* const> requests,
                                   bool reverse) const {
  const LpNorm& norm = options_.base_config.norm;
  const UncertainDatabase& db = *snap.db();
  const std::vector<MinDistScan> scans = ShardScans(snap.index(), norm);

  // The direct query path's candidate filters (queries.h) over the
  // snapshot's shards: one KnnCandidates per kNN request, one
  // RknnCandidates pass with the batch's RkNN requests as probes. Each
  // scans every shard and reduces in fixed shard order, and returns
  // exactly the candidates a solo run would, in ascending id order — for
  // every num_shards and every batch.
  const uint64_t filter_start_ns =
      options_.trace != nullptr ? options_.trace->NowNs() : 0;
  const size_t count = requests.size();
  std::vector<std::vector<ObjectId>> candidates;
  if (reverse) {
    std::vector<DominatorProbe> probes(count);
    for (size_t r = 0; r < count; ++r) {
      const QueryRequest& req = requests[r]->request;
      probes[r] = DominatorProbe{&req.query->bounds(), req.k};
    }
    candidates = RknnCandidates(db, probes, scans,
                                options_.base_config.criterion, norm);
  } else {
    candidates.reserve(count);
    for (size_t r = 0; r < count; ++r) {
      const QueryRequest& req = requests[r]->request;
      candidates.push_back(
          KnnCandidates(db, req.query->bounds(), req.k, scans, norm));
    }
  }

  if (options_.trace != nullptr) {
    const obs::TraceArg args[1] = {{"requests", count}};
    options_.trace->RecordSpan(reverse ? "rknn_filter" : "knn_filter",
                               "service", filter_start_ns,
                               options_.trace->NowNs() - filter_start_ns,
                               args, 1);
  }

  // One refinement job per candidate, each writing its own payload slot.
  for (size_t r = 0; r < count; ++r) {
    Pending& p = *requests[r];
    p.candidates = std::move(candidates[r]);
    p.num_jobs = p.candidates.size();
    p.response.threshold.resize(p.candidates.size());
    CompileEngine(snap, p);
  }
}

void QueryService::RunJob(const store::StoreSnapshot& snap, Pending& p,
                          size_t candidate, QueryStats& run) const {
  const QueryRequest& req = p.request;
  switch (req.kind) {
    case QueryKind::kThresholdKnn:
    case QueryKind::kThresholdRknn:
      p.response.threshold[candidate] = RefineThresholdCandidate(
          *p.engine, *req.query, p.candidates[candidate],
          IdcaPredicate{req.k, req.tau},
          /*reverse=*/req.kind == QueryKind::kThresholdRknn, &run);
      break;
    case QueryKind::kInverseRanking: {
      const IdcaResult result =
          p.engine->ComputeDomCount(p.dense_target, *req.query);
      p.response.rank_bounds = result.bounds;
      run = QueryStats{result.influence_count, result.iterations_run,
                       result.counters};
      break;
    }
    case QueryKind::kExpectedRank:
      // Delegate to the direct query path (serial here: the compiled
      // num_threads is 1) so the payload cannot diverge from
      // ExpectedRankOrder.
      p.response.expected =
          ExpectedRankOrder(*snap.db(), *req.query, p.engine->config(), &run);
      break;
  }
}

void QueryService::FinishRequest(Pending& p,
                                 std::span<const QueryStats> runs,
                                 std::span<const JobWindow> windows,
                                 uint64_t phase_start_ns) const {
  const QueryStats stats = SumRunStats(runs);
  // The request's execution window: its first job's start to its last
  // job's end (empty when it had no jobs).
  JobWindow exec = windows.empty() ? JobWindow{} : windows.front();
  for (const JobWindow& w : windows) {
    exec.start = std::min(exec.start, w.start);
    exec.end = std::max(exec.end, w.end);
  }
  const QueryBudget& budget = p.request.budget;
  QueryResponse& response = p.response;
  bool unresolved = false;
  switch (p.request.kind) {
    case QueryKind::kThresholdKnn:
    case QueryKind::kThresholdRknn:
      unresolved = std::any_of(
          response.threshold.begin(), response.threshold.end(),
          [](const ThresholdQueryResult& t) {
            return t.decision == PredicateDecision::kUndecided;
          });
      break;
    case QueryKind::kInverseRanking:
      unresolved = response.rank_bounds.TotalUncertainty() >
                   budget.uncertainty_epsilon;
      break;
    case QueryKind::kExpectedRank: {
      double total_width = 0.0;
      for (const ExpectedRankEntry& entry : response.expected) {
        total_width += entry.expected_rank.width();
      }
      unresolved = total_width > budget.uncertainty_epsilon;
      break;
    }
  }
  // kExpired when the deadline cut the iteration grant below the
  // requested budget and the answer is still unresolved.
  const int granted = p.iterations_granted;
  response.status = granted < budget.max_iterations && unresolved
                        ? ResponseStatus::kExpired
                        : ResponseStatus::kOk;
  response.stats.iterations_granted = granted;
  response.stats.candidates = stats.candidates;
  response.stats.idca_iterations = stats.idca_iterations;
  response.stats.ugf_multiplies = stats.counters.ugf_multiplies;
  response.stats.verdict_cache_hits = stats.counters.verdict_cache_hits;
  response.stats.verdict_cache_misses = stats.counters.verdict_cache_misses;
  response.stats.exec_seconds = exec.end - exec.start;

  if (options_.trace != nullptr) {
    const obs::TraceArg args[3] = {
        {"ticket", p.ticket},
        {"candidates", stats.candidates},
        {"jobs", runs.size()}};
    options_.trace->RecordSpan(
        QueryKindName(p.request.kind), "exec",
        phase_start_ns + static_cast<uint64_t>(exec.start * 1e9),
        static_cast<uint64_t>((exec.end - exec.start) * 1e9), args, 3);
  }
}

}  // namespace service
}  // namespace updb
