// Copyright 2026 The updb Authors.
// The repo benchmark runner: one seeded workload against
// service::QueryService, measured from outside through public calls and
// the counters the API already returns (nothing under src/ is
// instrumented for it).
//
//   perfbench_runner --workload <paper10k|rknn1k|churn_hot> --seed <n>
//                    --seconds <s> --trace <0|1> --workdir <dir>
//
// --trace 0 (end-to-end run):
//   1. open-loop phase: one generator thread sends the trace at seeded
//      paced arrival times (bench_stats.h) for --seconds, one collector
//      thread redeems tickets in submission order. Latency runs from the
//      *scheduled* send time, so generator lateness and queueing both count
//      (coordinated-omission free). Rounds complete in FIFO order, so
//      in-order Take() sees each completion; response-cache hits complete
//      inside Submit() and are timed at its return. The trace is sent in
//      kSegments consecutive segments;
//   2. set-up and capacity, measured in the gaps before each segment and
//      after the last, so they sample the same stretch of host time as the
//      open loop: set-up is the median of many timed set-ups, capacity the
//      requests over the seconds of all closed-loop drains (a fixed pool
//      prefix admitted into a paused service before Resume() + Flush());
//   3. a fixed host-speed probe at both ends of every gap, while no service
//      exists. Every time and rate of the run is reported at the reference
//      host speed (HostProbe), so the host's drift does not read as a
//      change of the program.
// --trace 1 (per-layer run): the same open-loop phase, then a fixed sample
//   of the pool replayed serially (one request in flight) against two idle
//   1-worker services on one snapshot — one plain, one with an
//   obs::TraceRecorder attached, alternating request by request — plus an
//   IDCA re-run of every sampled response. Per-layer times never mix into
//   the end-to-end numbers.
//
// Oracles (any failure counts in `failed`, sets "correct": false and makes
// the exit code non-zero): every response well-formed (0 <= lb <= ub <= 1,
// decisions agree with bracket and tau); on pinned workloads the open-loop
// digests equal the capacity phase's and the deterministic quality counts
// repeat exactly; the IDCA re-runs reproduce each sampled payload bit for
// bit; on churn_hot a sample is replayed pinned to the version its
// response names.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}; every line before it is a human-readable "metric" line or a
// "#" fact line.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_stats.h"
#include "updb.h"

namespace {

using namespace updb;
using service::QueryKind;
using service::QueryRequest;
using service::QueryResponse;
using service::QueryService;
using service::QueryServiceOptions;
using service::ResponseStatus;
using Clock = std::chrono::steady_clock;

// Shared service settings: 2 workers x batch 8 leave room on a 4-core host
// for the generator, the collector and (churn_hot) the writer.
constexpr size_t kWorkers = 2;
constexpr size_t kBatchSize = 8;
// The open loop is sent in kSegments pieces; one capacity drain and a share
// of the set-ups run before each piece and after the last.
constexpr int kSegments = 4;
constexpr int kGaps = kSegments + 1;
// Set-ups per run: enough for kSetupBudgetS of set-up time, within bounds,
// so a sub-millisecond set-up still gets a steady median.
constexpr int kMinSetups = 16;
constexpr int kMaxSetups = 320;
constexpr double kSetupBudgetS = 0.3;
constexpr double kTau = 0.5;

// churn_hot: hot pool of query objects, each asked with several k values,
// so exact repeats can hit the response cache and same-query/different-k
// requests can share verdicts through the memo.
constexpr size_t kHotQueries = 16;
constexpr size_t kHotKs = 3;
constexpr size_t kMutationsPerBatch = 32;
constexpr double kPublishIntervalS = 1.0;
constexpr size_t kResponseCacheEntries = 4096;
constexpr size_t kVerdictMemoSlots = size_t{1} << 18;
constexpr size_t kSnapshotRetention = 256;
constexpr size_t kPinnedReplaySample = 24;

/// One benchmark workload. Rates and limits are constants fixed from the
/// seed commit's measured capacity — never derived at run time — so a
/// faster program meets the same offered load.
struct Workload {
  const char* name;
  size_t num_objects;
  double max_extent;
  double query_extent;
  // Exact kind mix: per block of 10 consecutive requests.
  int knn_tenths;
  int rknn_tenths;
  int inverse_tenths;
  size_t k_max;
  int max_iterations;
  double deadline_fraction;
  double deadline_ms;
  double offered_qps;
  double latency_limit_ms;
  size_t capacity_prefix;
  size_t traced_sample;
  bool churn;  // live durable store + writer + caches + hot pool
};

const Workload kWorkloads[] = {
    // The paper's default synthetic set-up (Section VII): IDCA dominates.
    // Runnable by name, but not in BENCHMARK.json: a third workload does
    // not fit the benchmark's time budget at a run length long enough to
    // average out the host's speed drift (README.md).
    {"paper10k", 10000, 0.004, 0.004, 7, 0, 3, 10, 4, 0.25, 15.0,
     /*offered_qps=*/8.0, /*latency_limit_ms=*/250.0,
     /*capacity_prefix=*/100, /*traced_sample=*/40, false},
    // RkNN candidate filtering (near O(N^2) in the service) dominates;
    // kNN and inverse ranking keep IDCA and the deadline budgets busy.
    {"rknn1k", 1000, 0.01, 0.01, 6, 2, 2, 10, 4, 0.25, 15.0,
     /*offered_qps=*/7.5, /*latency_limit_ms=*/300.0,
     /*capacity_prefix=*/100, /*traced_sample=*/30, false},
    // Writes beside reads: durable store publishes + both caches. The
    // capacity prefix holds every hot-pool entry 4 times.
    {"churn_hot", 2000, 0.01, 0.01, 10, 0, 0, 10, 4, 0.0, 0.0,
     /*offered_qps=*/20.0, /*latency_limit_ms=*/100.0,
     /*capacity_prefix=*/192, /*traced_sample=*/40, true},
};

const QueryKind kKinds[] = {QueryKind::kThresholdKnn,
                            QueryKind::kThresholdRknn,
                            QueryKind::kInverseRanking};

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------- host-speed probe

// Single-thread speed on a shared host drifts by tens of percent over
// minutes, unevenly across cores, and a whole run can sit in a slow or a
// fast stretch. The probe is fixed work that no change to the program can
// alter: a dependent pointer chase over 1 MiB plus a dependent fma sweep
// over 32 KiB, run on kWorkers threads at once for kProbeSeconds. Its rate
// over kReferenceProbeRate is the host speed at that moment; a run's speed
// is the mean over all its probes. Times are reported multiplied by it and
// rates divided by it: on a host that runs the probe at the reference rate
// they read as measured.
constexpr double kProbeSeconds = 0.25;
// Probe units per second (all threads) on the 4-core Xeon host the
// benchmark was defined on, in a typical stretch.
constexpr double kReferenceProbeRate = 27000.0;

class HostProbe {
 public:
  HostProbe() : next_(size_t{1} << 18), sweep_(kWorkers) {
    for (uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
    Rng rng(Mix(kProbeSeed, 0));
    for (size_t i = next_.size() - 1; i > 0; --i) {
      std::swap(next_[i], next_[rng.NextBounded(i + 1)]);
    }
  }

  /// Probe units per second over all threads. The probe threads allocate
  /// nothing, so probing leaves the process's memory as it was.
  double Measure() {
    std::atomic<uint64_t> units{0};
    std::vector<std::thread> threads;
    const auto t0 = Clock::now();
    for (size_t t = 0; t < kWorkers; ++t) {
      sweep_[t].assign(4096, 1.0 + static_cast<double>(t));
      threads.emplace_back([&, t] {
        std::vector<double>& a = sweep_[t];
        uint32_t cur = static_cast<uint32_t>(t);
        uint64_t n = 0;
        while (SecondsSince(t0) < kProbeSeconds) {
          for (int i = 0; i < 2000; ++i) cur = next_[cur];
          for (int r = 0; r < 4; ++r) {
            for (size_t i = 1; i < a.size(); ++i) {
              a[i] = std::fma(a[i - 1], 0.999, a[i] * 0.5);
            }
          }
          ++n;
        }
        // Keeps the work observable so it cannot be optimised away.
        sink_ += cur + static_cast<uint64_t>(a.back() > 1e300);
        units += n;
      });
    }
    for (std::thread& th : threads) th.join();
    return static_cast<double>(units.load()) / SecondsSince(t0);
  }

 private:
  static constexpr uint64_t kProbeSeed = 99;
  std::vector<uint32_t> next_;
  std::vector<std::vector<double>> sweep_;  // one per probe thread
  std::atomic<uint64_t> sink_{0};
};

// ------------------------------------------------------------- oracle

/// Collects oracle failures (from the generator and collector threads
/// alike); the first few are printed to stderr.
class Oracle {
 public:
  void Fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_ < 10) std::fprintf(stderr, "oracle: %s\n", what.c_str());
    ++failures_;
  }
  size_t failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  mutable std::mutex mu_;
  size_t failures_ = 0;
};

bool InUnit(double lb, double ub) {
  return lb >= 0.0 && lb <= ub && ub <= 1.0;
}

/// Well-formedness of one executed response; empty when it holds.
std::string CheckWellFormed(const QueryRequest& req,
                            const QueryResponse& resp) {
  if (resp.status != ResponseStatus::kOk &&
      resp.status != ResponseStatus::kExpired) {
    return std::string("terminal status ") +
           service::ResponseStatusName(resp.status);
  }
  if (resp.kind != req.kind) return "kind mismatch";
  if (req.kind == QueryKind::kInverseRanking) {
    const CountDistributionBounds& b = resp.rank_bounds;
    if (b.num_ranks() == 0) return "empty rank bounds";
    for (size_t r = 0; r < b.num_ranks(); ++r) {
      if (!InUnit(b.lb(r), b.ub(r))) return "rank bracket outside [0,1]";
    }
    return "";
  }
  ObjectId prev = kInvalidObjectId;
  for (const ThresholdQueryResult& e : resp.threshold) {
    const ProbabilityBounds& p = e.prob;
    if (!InUnit(p.lb, p.ub)) return "threshold bracket outside [0,1]";
    const PredicateDecision want =
        p.lb > req.tau    ? PredicateDecision::kTrue
        : p.ub <= req.tau ? PredicateDecision::kFalse
                          : PredicateDecision::kUndecided;
    if (e.decision != want) return "decision disagrees with bracket/tau";
    if (prev != kInvalidObjectId && e.id <= prev) return "ids not ascending";
    prev = e.id;
  }
  if (resp.stats.candidates != resp.threshold.size()) {
    return "candidate count != payload size";
  }
  return "";
}

/// Digest of a response with its ticket replaced by the trace index, so
/// responses of different services to the same trace entry compare equal.
uint64_t IndexedDigest(QueryResponse resp, size_t index) {
  resp.id = index;
  return service::ResponseDigest(resp);
}

// ------------------------------------------------------------- inputs

// The database and the request pool come from fixed per-workload seeds
// (the paper's default database seed), so every run serves the same work;
// --seed drives what an open-loop run varies: request order, paced
// arrival times and, on churn_hot, the hot-pool draws and the mutation
// stream.
constexpr uint64_t kDatabaseSeed = 42;
constexpr uint64_t kPoolSeed = 7;

struct Inputs {
  /// Open-loop requests in send order.
  std::vector<QueryRequest> trace;
  /// Digest index of trace[i]: its pool index on pinned workloads (equal
  /// to the capacity phase's index for the same request), i on churn_hot.
  std::vector<size_t> key;
  std::vector<double> schedule;  // seconds from the open-loop start
  /// The capacity phase's fixed prefix; capacity[j] has digest index j.
  std::vector<QueryRequest> capacity;
};

service::TraceConfig BaseTraceConfig(const Workload& w) {
  service::TraceConfig base;
  base.k_max = w.k_max;
  base.tau = kTau;
  base.query_extent = w.query_extent;
  base.budget.max_iterations = w.max_iterations;
  base.deadline_fraction = w.deadline_fraction;
  base.deadline_ms = w.deadline_ms;
  base.expected_rank_weight = 0.0;
  return base;
}

void Shuffle(std::vector<size_t>* v, Rng& rng) {
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.NextBounded(i)]);
  }
}

/// Request pool of a pinned workload: exact kind shares per block of 10
/// requests, so the mix cannot drift.
std::vector<QueryRequest> MakePool(const Workload& w,
                                   const UncertainDatabase& db,
                                   size_t count) {
  const int tenths[] = {w.knn_tenths, w.rknn_tenths, w.inverse_tenths};
  const size_t blocks = (count + 9) / 10;
  std::vector<std::vector<QueryRequest>> per_kind(3);
  for (int k = 0; k < 3; ++k) {
    if (tenths[k] == 0) continue;
    service::TraceConfig cfg = BaseTraceConfig(w);
    cfg.num_requests = blocks * static_cast<size_t>(tenths[k]);
    cfg.seed = Mix(kPoolSeed, 20 + k);
    cfg.knn_weight = k == 0 ? 1.0 : 0.0;
    cfg.rknn_weight = k == 1 ? 1.0 : 0.0;
    cfg.inverse_weight = k == 2 ? 1.0 : 0.0;
    per_kind[k] = service::MakeTrace(db, cfg);
  }
  Rng rng(Mix(kPoolSeed, 30));
  std::vector<QueryRequest> out;
  out.reserve(blocks * 10);
  size_t next[3] = {0, 0, 0};
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<size_t> slots;
    for (size_t k = 0; k < 3; ++k) slots.insert(slots.end(), tenths[k], k);
    Shuffle(&slots, rng);
    for (size_t k : slots) out.push_back(per_kind[k][next[k]++]);
  }
  out.resize(count);
  return out;
}

/// churn_hot's hot pool: kHotQueries query objects, each asked with kHotKs
/// distinct k values.
std::vector<QueryRequest> MakeHotPool(const Workload& w,
                                      const UncertainDatabase& db) {
  service::TraceConfig cfg = BaseTraceConfig(w);
  cfg.num_requests = kHotQueries;
  cfg.seed = Mix(kPoolSeed, 11);
  cfg.knn_weight = 1.0;
  cfg.rknn_weight = 0.0;
  cfg.inverse_weight = 0.0;
  Rng rng(Mix(kPoolSeed, 12));
  std::vector<QueryRequest> pool;
  for (const QueryRequest& q : service::MakeTrace(db, cfg)) {
    std::set<size_t> ks;
    while (ks.size() < kHotKs) ks.insert(1 + rng.NextBounded(w.k_max));
    for (size_t k : ks) {
      QueryRequest r = q;
      r.k = k;
      pool.push_back(r);
    }
  }
  return pool;
}

Inputs MakeInputs(const Workload& w, const UncertainDatabase& db,
                  double seconds, uint64_t seed) {
  Inputs in;
  const size_t n = static_cast<size_t>(w.offered_qps * seconds);
  const size_t total = std::max(n, w.capacity_prefix);
  Rng rng(Mix(seed, 40));
  if (w.churn) {
    // Every hot-pool entry is asked equally often (the same multiset in
    // every run); a uniform shuffle still repeats keys within a publish
    // interval, so the response cache keeps its hits. The capacity prefix
    // is the same in every run: each entry equally often, in an order
    // fixed by the pool seed.
    const std::vector<QueryRequest> hot = MakeHotPool(w, db);
    std::vector<size_t> order;
    for (size_t i = 0; i < w.capacity_prefix; ++i) {
      order.push_back(i % hot.size());
    }
    Rng fixed(Mix(kPoolSeed, 41));
    Shuffle(&order, fixed);
    for (size_t j : order) in.capacity.push_back(hot[j]);
    order.clear();
    for (size_t i = 0; i < n; ++i) order.push_back(i % hot.size());
    Shuffle(&order, rng);
    for (size_t j : order) in.trace.push_back(hot[j]);
    for (size_t i = 0; i < n; ++i) in.key.push_back(i);
  } else {
    const std::vector<QueryRequest> pool = MakePool(w, db, total);
    in.capacity.assign(pool.begin(), pool.begin() + w.capacity_prefix);
    for (size_t i = 0; i < n; ++i) in.key.push_back(i);
    Shuffle(&in.key, rng);
    for (size_t j : in.key) in.trace.push_back(pool[j]);
  }
  std::vector<double> uniforms(n);
  for (double& u : uniforms) u = rng.NextDouble();
  in.schedule = perfbench::PacedSchedule(uniforms, w.offered_qps);
  return in;
}

// -------------------------------------------------------------- set-up

struct Setup {
  std::shared_ptr<const UncertainDatabase> db;
  std::shared_ptr<store::VersionedObjectStore> store;
  /// The snapshot published by set-up (version 1): what the capacity
  /// phase and every pinned service serve.
  std::shared_ptr<const store::StoreSnapshot> initial;
  std::string wal_dir;  // churn_hot only
  double seconds = 0.0;
};

QueryServiceOptions ServiceOptions(const Workload& w) {
  QueryServiceOptions o;
  o.num_workers = kWorkers;
  o.batch_size = kBatchSize;
  if (w.churn) {
    o.response_cache_capacity = kResponseCacheEntries;
    o.verdict_memo_capacity = kVerdictMemoSlots;
  }
  return o;
}

/// The live store on churn_hot's open loop; the set-up snapshot otherwise.
std::unique_ptr<QueryService> MakeService(const Workload& w, const Setup& s,
                                          QueryServiceOptions o, bool live) {
  if (w.churn && live) return std::make_unique<QueryService>(s.store, o);
  return std::make_unique<QueryService>(s.initial, o);
}

/// One timed set-up: database generation, store seeding with its bulk
/// index build (a durable Open into `wal_dir` on churn_hot), and service
/// construction.
bool TimedSetup(const Workload& w, const std::string& wal_dir, Setup* out) {
  const auto t0 = Clock::now();
  workload::SyntheticConfig cfg;
  cfg.num_objects = w.num_objects;
  cfg.max_extent = w.max_extent;
  cfg.seed = kDatabaseSeed;
  out->db = std::make_shared<const UncertainDatabase>(
      workload::MakeSyntheticDatabase(cfg));
  if (w.churn) {
    store::StoreOptions so;
    so.snapshot_retention = kSnapshotRetention;
    so.durability.wal_dir = wal_dir;
    so.durability.fsync = store::FsyncPolicy::kEveryPublish;
    auto opened = store::VersionedObjectStore::Open(*out->db, so);
    if (!opened.ok()) {
      std::fprintf(stderr, "durable open failed: %s\n",
                   opened.status().ToString().c_str());
      return false;
    }
    out->store = std::move(*opened);
    out->wal_dir = wal_dir;
  } else {
    out->store = std::make_shared<store::VersionedObjectStore>(*out->db);
  }
  out->initial = out->store->latest();
  {
    std::unique_ptr<QueryService> svc =
        MakeService(w, *out, ServiceOptions(w), /*live=*/true);
    out->seconds = SecondsSince(t0);
  }
  return true;
}

/// Times `count` further set-ups whose results are discarded.
bool TimeSetups(const Workload& w, int count, const std::string& workdir,
                std::vector<double>* seconds) {
  for (int r = 0; r < count; ++r) {
    Setup scratch;
    const std::string dir = workdir + "/wal-" + std::to_string(seconds->size());
    if (!TimedSetup(w, dir, &scratch)) return false;
    seconds->push_back(scratch.seconds);
    scratch.store.reset();
    if (w.churn) std::filesystem::remove_all(dir);
  }
  return true;
}

// ----------------------------------------------------- per-request outcome

/// What the benchmark keeps of one open-loop request.
struct Outcome {
  QueryKind kind = QueryKind::kThresholdKnn;
  bool failed = false;
  double latency_s = 0.0;
  double queue_s = 0.0;
  bool cache_hit = false;
  bool expired = false;
  bool has_deadline = false;
  uint64_t digest = 0;
  uint64_t version = 0;
  size_t candidates = 0;
  size_t answers = 0;
  size_t undecided = 0;
  size_t qualified = 0;
  uint64_t idca_iterations = 0;
  uint64_t ugf_multiplies = 0;
  uint64_t verdict_hits = 0;
  uint64_t verdict_misses = 0;
};

Outcome Summarize(const QueryRequest& req, QueryResponse resp, size_t index,
                  Oracle* oracle) {
  Outcome o;
  o.kind = req.kind;
  o.has_deadline = req.budget.deadline_ms > 0.0;
  const std::string bad = CheckWellFormed(req, resp);
  if (!bad.empty()) {
    oracle->Fail("request " + std::to_string(index) + ": " + bad);
    o.failed = true;
  }
  o.queue_s = resp.stats.queue_seconds;
  o.cache_hit = resp.stats.cache_hit;
  o.expired = resp.status == ResponseStatus::kExpired;
  o.version = resp.snapshot_version;
  o.candidates = resp.stats.candidates;
  o.answers = resp.threshold.size();
  for (const ThresholdQueryResult& e : resp.threshold) {
    o.undecided += e.decision == PredicateDecision::kUndecided;
    o.qualified += e.decision == PredicateDecision::kTrue;
  }
  o.idca_iterations = resp.stats.idca_iterations;
  o.ugf_multiplies = resp.stats.ugf_multiplies;
  o.verdict_hits = resp.stats.verdict_cache_hits;
  o.verdict_misses = resp.stats.verdict_cache_misses;
  o.digest = IndexedDigest(std::move(resp), index);
  return o;
}

// ------------------------------------------------------- capacity phase

struct CapacityResult {
  std::vector<double> qps;  // one per drain
  size_t drained = 0;       // requests over all drains
  double seconds = 0.0;     // Resume() -> Flush() over all drains
  std::vector<Outcome> outcomes;  // of the first drain
};

/// Drains the fixed prefix `drains` times, each in a fresh paused service
/// on the set-up snapshot with the whole prefix admitted before Resume();
/// every drain must reproduce the first one's digests.
void RunCapacity(const Workload& w, const Setup& s,
                 const std::vector<QueryRequest>& prefix, int drains,
                 CapacityResult* r, Oracle* oracle) {
  for (int rep = 0; rep < drains; ++rep) {
    QueryServiceOptions o = ServiceOptions(w);
    o.start_paused = true;
    o.max_queue = prefix.size();
    std::unique_ptr<QueryService> svc = MakeService(w, s, o, /*live=*/false);
    std::vector<uint64_t> tickets;
    for (const QueryRequest& req : prefix) {
      StatusOr<uint64_t> t = svc->Submit(req);
      if (!t.ok()) {
        oracle->Fail("capacity submit: " + t.status().ToString());
        return;
      }
      tickets.push_back(*t);
    }
    const auto t0 = Clock::now();
    svc->Resume();
    svc->Flush();
    const double seconds = SecondsSince(t0);
    r->qps.push_back(static_cast<double>(prefix.size()) / seconds);
    r->drained += prefix.size();
    r->seconds += seconds;
    const bool first = r->outcomes.empty();
    for (size_t i = 0; i < tickets.size(); ++i) {
      Outcome o = Summarize(prefix[i], svc->Take(tickets[i]), i, oracle);
      if (first) {
        r->outcomes.push_back(o);
      } else if (o.digest != r->outcomes[i].digest) {
        oracle->Fail("capacity drain differs from the first at request " +
                     std::to_string(i));
      }
    }
  }
}

// ------------------------------------------------------ churn_hot writer

struct WriterStats {
  std::vector<double> apply_us;
  std::vector<double> publish_ms;
  std::vector<double> drain_ms;
  std::vector<double> build_ms;
  size_t mutations = 0;
  size_t failed = 0;
};

/// Applies one 32-mutation batch and publishes it at a fixed cadence
/// until stopped; times each Apply and each Publish() as the writer sees
/// them (fsync included).
class Writer {
 public:
  Writer(store::VersionedObjectStore* st, uint64_t seed, double max_extent)
      : store_(st), rng_(seed) {
    cfg_.mutations_per_batch = kMutationsPerBatch;
    cfg_.max_extent = max_extent;
    thread_ = std::thread([this] { Main(); });
  }
  ~Writer() { Stop(); }
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }
  const WriterStats& stats() const { return stats_; }

 private:
  void Main() {
    auto tick = Clock::now();
    for (;;) {
      tick += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(kPublishIntervalS));
      {
        std::unique_lock<std::mutex> lock(mu_);
        if (cv_.wait_until(lock, tick, [this] { return stop_; })) return;
      }
      const std::vector<store::Mutation> batch = workload::MakeMutationBatch(
          store_->LiveIds(), store_->dim(), cfg_, rng_);
      for (const store::Mutation& m : batch) {
        const auto t0 = Clock::now();
        const StatusOr<ObjectId> applied = store_->Apply(m);
        stats_.apply_us.push_back(SecondsSince(t0) * 1e6);
        stats_.failed += !applied.ok();
        ++stats_.mutations;
      }
      store::PublishStats ps;
      const auto t0 = Clock::now();
      store_->Publish(&ps);
      stats_.publish_ms.push_back(SecondsSince(t0) * 1e3);
      stats_.drain_ms.push_back(ps.drain_ms);
      stats_.build_ms.push_back(ps.build_ms);
    }
  }

  store::VersionedObjectStore* const store_;
  Rng rng_;
  workload::ChurnConfig cfg_;
  WriterStats stats_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

// ------------------------------------------------------ open-loop phase

struct OpenLoopResult {
  std::vector<Outcome> outcomes;
  std::vector<double> lag_s;
  double send_span_s = 0.0;
  size_t rejected = 0;
  uint64_t batches = 0;
  double batched_requests = 0.0;
  uint64_t response_cache_hits = 0;
  uint64_t response_cache_misses = 0;
  uint64_t response_cache_evictions = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;
  uint64_t memo_inserts = 0;
  /// Full responses of every `keep_every`-th request (pinned replay).
  std::map<size_t, QueryResponse> kept;
};

/// Sends trace entries [lo, hi) on their schedule, shifted so that entry
/// lo's slot starts now, into `r` (whose outcomes and lags span the whole
/// trace).
void RunOpenLoopSegment(QueryService& svc, const Inputs& in, size_t lo,
                        size_t hi, double rate_qps, size_t keep_every,
                        OpenLoopResult* out, Oracle* oracle) {
  OpenLoopResult& r = *out;
  const double shift_s = static_cast<double>(lo) / rate_qps;

  struct Sent {
    size_t index = 0;
    uint64_t ticket = 0;
    double submit_return_s = 0.0;
  };
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> sent;
  bool done_sending = false;
  const auto start = Clock::now() + std::chrono::milliseconds(5);

  std::thread collector([&] {
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done_sending || !sent.empty(); });
        if (sent.empty()) return;
        s = sent.front();
        sent.pop_front();
      }
      QueryResponse resp = svc.Take(s.ticket);
      const double taken_s = SecondsSince(start);
      const double done_s =
          resp.stats.cache_hit ? s.submit_return_s : taken_s;
      if (keep_every > 0 && s.index % keep_every == 0) {
        r.kept.emplace(s.index, resp);
      }
      Outcome o = Summarize(in.trace[s.index], std::move(resp),
                            in.key[s.index], oracle);
      o.latency_s = done_s - (in.schedule[s.index] - shift_s);
      r.outcomes[s.index] = o;
    }
  });

  for (size_t i = lo; i < hi; ++i) {
    const double due_s = in.schedule[i] - shift_s;
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due_s)));
    r.lag_s[i] = SecondsSince(start) - due_s;
    StatusOr<uint64_t> t = svc.Submit(in.trace[i]);
    const double returned_s = SecondsSince(start);
    if (!t.ok()) {
      r.outcomes[i].kind = in.trace[i].kind;
      r.outcomes[i].failed = true;
      r.rejected += t.status().code() == StatusCode::kResourceExhausted;
      oracle->Fail("open-loop submit " + std::to_string(i) + ": " +
                   t.status().ToString());
      continue;
    }
    {
      std::lock_guard<std::mutex> lock(mu);
      sent.push_back({i, *t, returned_s});
    }
    cv.notify_one();
  }
  r.send_span_s += SecondsSince(start);
  {
    std::lock_guard<std::mutex> lock(mu);
    done_sending = true;
  }
  cv.notify_one();
  collector.join();
}

/// Adds one segment's service-side counters to the open loop's.
void AddServiceCounters(QueryService& svc, OpenLoopResult* out) {
  OpenLoopResult& r = *out;
  const service::MetricsSnapshot m = svc.metrics().Snapshot();
  r.batches += m.batches;
  r.batched_requests += m.mean_batch_fill * static_cast<double>(m.batches);
  if (svc.response_cache() != nullptr) {
    r.response_cache_hits += svc.response_cache()->hits();
    r.response_cache_misses += svc.response_cache()->misses();
    r.response_cache_evictions += svc.response_cache()->evictions();
  }
  if (svc.verdict_memo() != nullptr) {
    r.memo_hits += svc.verdict_memo()->hits();
    r.memo_misses += svc.verdict_memo()->misses();
    r.memo_inserts += svc.verdict_memo()->inserts();
  }
}

/// churn_hot: replays each kept response's request against a 1-worker
/// service pinned to the version the response names; the digests must
/// match.
void CheckPinnedReplays(const Setup& s, const Inputs& in,
                        const OpenLoopResult& ol, Oracle* oracle) {
  for (const auto& [index, resp] : ol.kept) {
    std::shared_ptr<const store::StoreSnapshot> snap =
        s.store->snapshot(resp.snapshot_version);
    if (snap == nullptr) {
      oracle->Fail("version " + std::to_string(resp.snapshot_version) +
                   " no longer retained");
      continue;
    }
    QueryServiceOptions o;
    QueryService pinned(snap, o);
    StatusOr<uint64_t> t = pinned.Submit(in.trace[index]);
    if (!t.ok()) {
      oracle->Fail("pinned replay submit: " + t.status().ToString());
      continue;
    }
    if (IndexedDigest(pinned.Take(*t), index) != IndexedDigest(resp, index)) {
      oracle->Fail("pinned replay of request " + std::to_string(index) +
                   " differs from its live response");
    }
  }
}

// --------------------------------------------------------- traced run

struct SerialRecord {
  QueryKind kind = QueryKind::kThresholdKnn;
  double rt_s = 0.0;
  double queue_s = 0.0;
  double exec_s = 0.0;
  QueryResponse response;
};

/// One request in flight against an idle service: the Submit -> Take
/// round trip timed from outside, plus the wall-clock stats the response
/// carries. False when the request was not admitted.
bool TimeOne(QueryService& svc, const QueryRequest& req, SerialRecord* rec,
             Oracle* oracle) {
  rec->kind = req.kind;
  const auto t0 = Clock::now();
  StatusOr<uint64_t> t = svc.Submit(req);
  if (!t.ok()) {
    oracle->Fail("serial submit: " + t.status().ToString());
    return false;
  }
  rec->response = svc.Take(*t);
  rec->rt_s = SecondsSince(t0);
  rec->queue_s = rec->response.stats.queue_seconds;
  rec->exec_s = rec->response.stats.exec_seconds;
  return true;
}

/// IDCA re-run of one response, from outside the service: the engine
/// config the service's budget compilation produces (serial, no engine
/// index filter, stats on, the granted iteration budget), one run per
/// candidate id the response names.
struct Rerun {
  double filter_s = 0.0;
  double refine_s = 0.0;
  size_t runs = 0;
  uint64_t iterations = 0;
  uint64_t influence = 0;
  IdcaCounters counters;
  bool reproduced = true;
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

Rerun RerunIdca(const store::StoreSnapshot& snap, const QueryRequest& req,
                const QueryResponse& resp) {
  IdcaConfig cfg;
  cfg.num_threads = 1;
  cfg.use_index_filter = false;
  cfg.collect_stats = true;
  cfg.max_iterations = resp.stats.iterations_granted;
  cfg.uncertainty_epsilon = req.budget.uncertainty_epsilon;
  const IdcaEngine engine(*snap.db(), cfg);
  Rerun out;
  auto account = [&out](const IdcaResult& r) {
    const double filter =
        r.iterations.empty() ? r.seconds : r.iterations[0].cumulative_seconds;
    out.filter_s += filter;
    out.refine_s += r.seconds - filter;
    ++out.runs;
    const uint64_t iters = r.iterations.empty() ? 0 : r.iterations.size() - 1;
    out.iterations += iters;
    out.influence += r.influence_count;
    out.counters += r.counters;
    return iters;
  };
  uint64_t iterations = 0;
  if (req.kind == QueryKind::kInverseRanking) {
    const StatusOr<ObjectId> dense = snap.DenseId(req.target);
    if (!dense.ok()) {
      out.reproduced = false;
      return out;
    }
    const IdcaResult r = engine.ComputeDomCount(*dense, *req.query);
    iterations += account(r);
    const CountDistributionBounds& a = r.bounds;
    const CountDistributionBounds& b = resp.rank_bounds;
    out.reproduced = a.num_ranks() == b.num_ranks();
    for (size_t k = 0; out.reproduced && k < a.num_ranks(); ++k) {
      out.reproduced = SameBits(a.lb(k), b.lb(k)) && SameBits(a.ub(k), b.ub(k));
    }
  } else {
    const IdcaPredicate pred{req.k, req.tau};
    const bool reverse = req.kind == QueryKind::kThresholdRknn;
    for (const ThresholdQueryResult& e : resp.threshold) {
      const IdcaResult r =
          reverse ? engine.ComputeDomCountOfQuery(*req.query, e.id, pred)
                  : engine.ComputeDomCount(e.id, *req.query, pred);
      iterations += account(r);
      out.reproduced = out.reproduced &&
                       SameBits(r.predicate_prob.lb, e.prob.lb) &&
                       SameBits(r.predicate_prob.ub, e.prob.ub) &&
                       r.decision == e.decision;
    }
  }
  out.reproduced = out.reproduced &&
                   iterations == resp.stats.idca_iterations &&
                   out.counters.ugf_multiplies == resp.stats.ugf_multiplies;
  return out;
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::vector<Metric>* into, const std::string& name, double value,
           const char* unit) {
    into->push_back({name, value, unit});
    std::printf("metric %-44s %.6g %s\n", name.c_str(), value, unit);
  }
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
};

double Fraction(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<double> Millis(const std::vector<double>& seconds) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (double s : seconds) ms.push_back(s * 1e3);
  return ms;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".bench_build/perfbench-work";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--workload") {
      a->workload = v;
    } else if (key == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (key == "--seconds") {
      a->seconds = std::strtod(v, nullptr);
    } else if (key == "--trace") {
      a->trace = std::atoi(v);
    } else if (key == "--workdir") {
      a->workdir = v;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0.0 &&
         (a->trace == 0 || a->trace == 1);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  const Workload* wp = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) wp = &w;
  }
  if (wp == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Workload& w = *wp;
  std::filesystem::create_directories(args.workdir);

  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("# host nproc=%u kernel_dispatch=%s workers=%zu batch=%zu\n",
              std::thread::hardware_concurrency(), gf::ActiveKernelName(),
              kWorkers, kBatchSize);
  std::printf(
      "# objects=%zu max_extent=%g mix(knn/rknn/inverse)=%d/%d/%d k=[1,%zu] "
      "tau=%g max_iterations=%d deadline=%gms@%g offered_qps=%g "
      "latency_limit_ms=%g capacity_prefix=%zu\n",
      w.num_objects, w.max_extent, w.knn_tenths, w.rknn_tenths,
      w.inverse_tenths, w.k_max, kTau, w.max_iterations, w.deadline_ms,
      w.deadline_fraction, w.offered_qps, w.latency_limit_ms,
      w.capacity_prefix);
  if (w.churn) {
    std::printf(
        "# store=durable fsync=%s mutations_per_publish=%zu "
        "publish_interval_s=%g hot_pool=%zux%zu response_cache=%zu "
        "verdict_memo=%zu\n",
        store::FsyncPolicyName(store::FsyncPolicy::kEveryPublish),
        kMutationsPerBatch, kPublishIntervalS, kHotQueries, kHotKs,
        kResponseCacheEntries, kVerdictMemoSlots);
  } else {
    std::printf("# store=in-memory pinned caches=off\n");
  }

  Oracle oracle;
  Report report;
  size_t attempted = 0;

  // The open loop runs in kSegments pieces, each against a fresh service;
  // set-ups and one capacity drain fill the gap before each piece and after
  // the last, so all three sample the same stretch of host time, and the
  // host-speed probe runs at both ends of every gap, when no service exists.
  Setup setup;
  std::vector<double> setup_seconds;
  if (!TimedSetup(w, args.workdir + "/wal-live", &setup)) return 1;
  setup_seconds.push_back(setup.seconds);
  const Inputs in = MakeInputs(w, *setup.db, args.seconds, args.seed);
  const bool timed = args.trace == 0;
  const int setups = std::clamp(
      static_cast<int>(kSetupBudgetS / std::max(setup.seconds, 1e-6)),
      kMinSetups, kMaxSetups);
  const int setups_per_gap = timed ? setups / kGaps : 0;
  const int drains_per_gap = timed ? 1 : 0;
  HostProbe probe;
  std::vector<double> probe_rates;

  CapacityResult cap;
  OpenLoopResult ol;
  ol.outcomes.resize(in.schedule.size());
  ol.lag_s.resize(in.schedule.size());
  WriterStats writer_stats;
  const size_t n = in.schedule.size();
  const size_t keep_every =
      w.churn ? std::max<size_t>(1, n / kPinnedReplaySample) : 0;
  for (int seg = 0; seg <= kSegments; ++seg) {
    if (timed) probe_rates.push_back(probe.Measure());
    if (!TimeSetups(w, setups_per_gap, args.workdir, &setup_seconds)) {
      return 1;
    }
    RunCapacity(w, setup, in.capacity, drains_per_gap, &cap, &oracle);
    if (timed) probe_rates.push_back(probe.Measure());
    if (seg == kSegments) break;
    std::unique_ptr<QueryService> svc =
        MakeService(w, setup, ServiceOptions(w), /*live=*/true);
    std::unique_ptr<Writer> writer;
    if (w.churn) {
      writer = std::make_unique<Writer>(
          setup.store.get(), Mix(kPoolSeed, 50 + seg), w.max_extent);
    }
    RunOpenLoopSegment(*svc, in, n * seg / kSegments,
                       n * (seg + 1) / kSegments, w.offered_qps, keep_every,
                       &ol, &oracle);
    if (writer != nullptr) {
      writer->Stop();
      const WriterStats& ws = writer->stats();
      for (auto [into, from] :
           {std::pair{&writer_stats.apply_us, &ws.apply_us},
            std::pair{&writer_stats.publish_ms, &ws.publish_ms},
            std::pair{&writer_stats.drain_ms, &ws.drain_ms},
            std::pair{&writer_stats.build_ms, &ws.build_ms}}) {
        into->insert(into->end(), from->begin(), from->end());
      }
      writer_stats.mutations += ws.mutations;
      writer_stats.failed += ws.failed;
    }
    AddServiceCounters(*svc, &ol);
  }
  if (writer_stats.failed > 0) oracle.Fail("writer mutation failed");
  attempted += ol.outcomes.size();
  if (w.churn) CheckPinnedReplays(setup, in, ol, &oracle);
  attempted += cap.outcomes.size() * cap.qps.size();
  for (double q : cap.qps) std::printf("# capacity drain qps=%.3f\n", q);
  std::printf("# setups timed=%zu\n", setup_seconds.size());
  // Host speed relative to the reference (1 on the end-to-end run when the
  // probe ran at kReferenceProbeRate; the traced run does not probe).
  const double speed =
      timed ? perfbench::Mean(probe_rates) / kReferenceProbeRate : 1.0;
  if (timed) {
    std::printf("# host_speed=%.4f probe_rates=", speed);
    for (double r : probe_rates) std::printf(" %.0f", r);
    std::printf("\n");
  }

  // Pinned workloads: the open loop must reproduce the capacity phase
  // response for response, and the quality counts with it.
  if (!w.churn && args.trace == 0) {
    std::map<size_t, const Outcome*> by_key;
    for (size_t i = 0; i < ol.outcomes.size(); ++i) {
      by_key[in.key[i]] = &ol.outcomes[i];
    }
    size_t cap_undecided = 0, ol_undecided = 0, cap_iters = 0, ol_iters = 0;
    size_t cap_expired = 0, ol_expired = 0;
    for (size_t i = 0; i < cap.outcomes.size(); ++i) {
      auto it = by_key.find(i);
      if (it == by_key.end()) continue;
      const Outcome& a = cap.outcomes[i];
      const Outcome& b = *it->second;
      if (a.digest != b.digest) {
        oracle.Fail("request " + std::to_string(i) +
                    ": open-loop digest differs from capacity phase");
      }
      cap_undecided += a.undecided;
      ol_undecided += b.undecided;
      cap_iters += a.idca_iterations;
      ol_iters += b.idca_iterations;
      cap_expired += a.expired;
      ol_expired += b.expired;
    }
    if (cap_undecided != ol_undecided || cap_iters != ol_iters ||
        cap_expired != ol_expired) {
      oracle.Fail("quality counts did not repeat between phases");
    }
  }

  // ----------------------------------------------- open-loop aggregates
  std::vector<double> all_ms;
  std::map<QueryKind, std::vector<double>> kind_ms;
  std::vector<double> queue_ms;
  size_t slo_met = 0, answers = 0, undecided = 0, qualified = 0;
  size_t executed = 0, expired = 0, deadline_reqs = 0, deadline_met = 0;
  std::map<QueryKind, std::vector<double>> kind_candidates;
  std::vector<double> ugf;
  uint64_t vhits = 0, vmisses = 0;
  std::set<uint64_t> versions;
  for (const Outcome& o : ol.outcomes) {
    if (o.failed) continue;
    const double ms = o.latency_s * 1e3;
    all_ms.push_back(ms);
    kind_ms[o.kind].push_back(ms);
    slo_met += ms <= w.latency_limit_ms;
    answers += o.answers;
    undecided += o.undecided;
    qualified += o.qualified;
    versions.insert(o.version);
    if (o.has_deadline) {
      ++deadline_reqs;
      deadline_met += ms <= w.deadline_ms;
    }
    if (o.cache_hit) continue;
    ++executed;
    expired += o.expired;
    queue_ms.push_back(o.queue_s * 1e3);
    kind_candidates[o.kind].push_back(static_cast<double>(o.candidates));
    ugf.push_back(static_cast<double>(o.ugf_multiplies));
    vhits += o.verdict_hits;
    vmisses += o.verdict_misses;
  }
  const double sent = static_cast<double>(ol.outcomes.size());

  std::vector<double> lag_ms = Millis(ol.lag_s);
  std::printf("# open_loop sent=%zu rejected=%zu send_span_s=%.3f "
              "samples=%zu\n",
              ol.outcomes.size(), ol.rejected, ol.send_span_s, all_ms.size());

  if (args.trace == 0) {
    // Times and rates at the reference host speed (HostProbe); the same
    // figures as measured on this run's host follow as "raw" lines.
    const double setup_s = perfbench::Median(setup_seconds);
    const double p50_ms = perfbench::Percentile(all_ms, 50);
    const double p95_ms = perfbench::Percentile(all_ms, 95);
    const double qps = Fraction(static_cast<double>(cap.drained), cap.seconds);
    std::vector<Metric>* e = &report.end_to_end;
    report.Add(e, "setup_s", setup_s * speed, "s");
    report.Add(e, "latency_p50_ms", p50_ms * speed, "ms");
    report.Add(e, "latency_p95_ms", p95_ms * speed, "ms");
    report.Add(e, "capacity_qps", qps / speed, "1/s");
    report.Add(e, "slo_met_fraction",
               Fraction(static_cast<double>(slo_met), sent), "fraction");
    report.Add(e, "undecided_fraction",
               Fraction(static_cast<double>(undecided),
                        static_cast<double>(answers)),
               "fraction");
    report.Add(e, "peak_rss_mb", PeakRssMb(), "MB");
    // Per-kind latency (at the reference host speed) and write-path
    // latency (as measured: Publish() waits on fsync) of the kinds a
    // workload has; not every workload has them, and on a few dozen
    // samples per run they spread too far to carry a bound, so they are
    // printed here and reported as per-layer metrics in the traced run.
    for (QueryKind k : kKinds) {
      if (kind_ms[k].empty()) continue;
      const std::string kn = service::QueryKindName(k);
      std::printf("metric %-44s %.6g ms\n", (kn + "_p50_ms").c_str(),
                  perfbench::Percentile(kind_ms[k], 50) * speed);
      std::printf("metric %-44s %.6g ms\n", (kn + "_p95_ms").c_str(),
                  perfbench::Percentile(kind_ms[k], 95) * speed);
    }
    if (w.churn) {
      std::printf("metric %-44s %.6g ms\n", "publish_p50_ms",
                  perfbench::Percentile(writer_stats.publish_ms, 50));
      std::printf("metric %-44s %.6g ms\n", "publish_p95_ms",
                  perfbench::Percentile(writer_stats.publish_ms, 95));
    }
    std::printf("raw setup_s=%.6g latency_p50_ms=%.6g latency_p95_ms=%.6g "
                "capacity_qps=%.6g\n",
                setup_s, p50_ms, p95_ms, qps);
  } else {
    std::vector<Metric>* l = &report.per_layer;
    // service (open loop, under load)
    report.Add(l, "service.queue_wait_ms.p50",
               perfbench::Percentile(queue_ms, 50), "ms");
    report.Add(l, "service.queue_wait_ms.p95",
               perfbench::Percentile(queue_ms, 95), "ms");
    for (QueryKind k : kKinds) {
      const std::string kn = service::QueryKindName(k);
      report.Add(l, "service.latency_ms." + kn + ".p50",
                 perfbench::Percentile(kind_ms[k], 50), "ms");
      report.Add(l, "service.latency_ms." + kn + ".p95",
                 perfbench::Percentile(kind_ms[k], 95), "ms");
    }
    report.Add(l, "service.batch_fill_mean",
               Fraction(ol.batched_requests, static_cast<double>(ol.batches)),
               "count");
    report.Add(l, "service.expired_fraction",
               Fraction(static_cast<double>(expired),
                        static_cast<double>(executed)),
               "fraction");
    report.Add(l, "service.deadline_met_fraction",
               Fraction(static_cast<double>(deadline_met),
                        static_cast<double>(deadline_reqs)),
               "fraction");
    for (QueryKind k : kKinds) {
      report.Add(l,
                 std::string("candidate_gen.candidates.") +
                     service::QueryKindName(k) + ".mean",
                 perfbench::Mean(kind_candidates[k]), "count");
    }
    report.Add(l, "candidate_gen.qualified_per_candidate",
               Fraction(static_cast<double>(qualified),
                        static_cast<double>(answers)),
               "fraction");
    report.Add(l, "domination.verdict_cache_hit_fraction",
               Fraction(static_cast<double>(vhits),
                        static_cast<double>(vhits + vmisses)),
               "fraction");
    report.Add(l, "gf.ugf_multiplies.mean", perfbench::Mean(ugf), "count");

    // store (churn_hot writer; 0 on pinned workloads)
    const store::WalStats wal = setup.store->wal_stats();
    report.Add(l, "store.apply_us.p50",
               perfbench::Percentile(writer_stats.apply_us, 50), "us");
    report.Add(l, "store.publish_p50_ms",
               perfbench::Percentile(writer_stats.publish_ms, 50), "ms");
    report.Add(l, "store.publish_p95_ms",
               perfbench::Percentile(writer_stats.publish_ms, 95), "ms");
    report.Add(l, "store.publish_drain_ms.p50",
               perfbench::Percentile(writer_stats.drain_ms, 50), "ms");
    report.Add(l, "store.publish_build_ms.p50",
               perfbench::Percentile(writer_stats.build_ms, 50), "ms");
    report.Add(l, "store.versions_served",
               static_cast<double>(versions.size()), "count");
    report.Add(l, "wal.bytes_per_mutation",
               Fraction(static_cast<double>(wal.appended_bytes),
                        static_cast<double>(writer_stats.mutations)),
               "B");
    report.Add(l, "wal.fsyncs", static_cast<double>(wal.fsyncs), "count");
    report.Add(l, "checkpoint.writes",
               static_cast<double>(wal.checkpoint_writes), "count");

    // cache (churn_hot; 0 where the caches are off)
    report.Add(l, "response_cache.hit_fraction",
               Fraction(static_cast<double>(ol.response_cache_hits),
                        static_cast<double>(ol.response_cache_hits +
                                            ol.response_cache_misses)),
               "fraction");
    report.Add(l, "response_cache.evictions",
               static_cast<double>(ol.response_cache_evictions), "count");
    report.Add(l, "verdict_memo.hit_fraction",
               Fraction(static_cast<double>(ol.memo_hits),
                        static_cast<double>(ol.memo_hits + ol.memo_misses)),
               "fraction");
    report.Add(l, "verdict_memo.inserts",
               static_cast<double>(ol.memo_inserts), "count");

    // harness validity
    report.Add(l, "bench.generator_lag_ms.p95",
               perfbench::Percentile(lag_ms, 95), "ms");
    report.Add(l, "bench.achieved_offered_qps",
               Fraction(sent, ol.send_span_s), "1/s");

    // ---------------------------------------- serial replay (attribution)
    const std::shared_ptr<const store::StoreSnapshot> snap =
        setup.store->latest();
    const std::vector<QueryRequest> sample(
        in.capacity.begin(),
        in.capacity.begin() + std::min(w.traced_sample, in.capacity.size()));
    // Two idle 1-worker services on one snapshot, one with a span recorder;
    // the plain and traced replays alternate request by request so both
    // see the same host speed.
    QueryServiceOptions so;
    so.num_workers = 1;
    so.batch_size = kBatchSize;
    QueryService plain_svc(snap, so);
    obs::TraceRecorder recorder(size_t{1} << 18);
    so.trace = &recorder;
    QueryService traced_svc(snap, so);
    std::vector<SerialRecord> plain, traced;
    for (const QueryRequest& req : sample) {
      SerialRecord a, b;
      if (!TimeOne(plain_svc, req, &a, &oracle) ||
          !TimeOne(traced_svc, req, &b, &oracle)) {
        break;  // keeps plain[i] / traced[i] aligned with sample[i]
      }
      plain.push_back(std::move(a));
      traced.push_back(std::move(b));
    }
    attempted += 2 * sample.size();

    // Filter spans in record order: with one request in flight, the i-th
    // knn_filter (rknn_filter) span belongs to the i-th kNN (RkNN) request.
    std::map<QueryKind, std::vector<double>> filter_spans;
    for (const obs::TraceEvent& ev : recorder.Events()) {
      if (std::strcmp(ev.name, "knn_filter") == 0) {
        filter_spans[QueryKind::kThresholdKnn].push_back(ev.dur_ns * 1e-9);
      } else if (std::strcmp(ev.name, "rknn_filter") == 0) {
        filter_spans[QueryKind::kThresholdRknn].push_back(ev.dur_ns * 1e-9);
      }
    }

    struct KindLayers {
      std::vector<double> exec_ms, unattributed_ms, candgen_ms, filter_ms,
          refine_ms;
      double candgen_sum = 0.0, rt_sum = 0.0, filter_sum = 0.0,
             refine_sum = 0.0;
    };
    std::map<QueryKind, KindLayers> layers;
    std::map<QueryKind, size_t> span_cursor;
    double residual_sum = 0.0, rt_total = 0.0;
    std::vector<double> rt_plain, rt_traced;
    uint64_t runs = 0, iterations = 0, influence = 0;
    uint64_t pairs_eval = 0, pairs_frozen = 0, dom_tests = 0;
    for (size_t i = 0; i < plain.size() && i < traced.size(); ++i) {
      const SerialRecord& a = plain[i];
      const SerialRecord& b = traced[i];
      rt_plain.push_back(a.rt_s);
      rt_traced.push_back(b.rt_s);
      if (IndexedDigest(a.response, i) != IndexedDigest(b.response, i)) {
        oracle.Fail("traced replay payload differs from untraced replay");
      }
      const std::string bad = CheckWellFormed(sample[i], a.response);
      if (!bad.empty()) oracle.Fail("serial replay: " + bad);
      const Rerun rr = RerunIdca(*snap, sample[i], a.response);
      if (!rr.reproduced) {
        oracle.Fail("IDCA re-run does not reproduce serial response " +
                    std::to_string(i));
      }
      runs += rr.runs;
      iterations += rr.iterations;
      influence += rr.influence;
      pairs_eval += rr.counters.pairs_evaluated;
      pairs_frozen += rr.counters.pairs_frozen;
      dom_tests += rr.counters.domination_tests;

      double candgen = 0.0;
      auto spans = filter_spans.find(a.kind);
      if (spans != filter_spans.end()) {
        size_t& cur = span_cursor[a.kind];
        if (cur < spans->second.size()) candgen = spans->second[cur];
        ++cur;
      }
      KindLayers& kl = layers[a.kind];
      kl.exec_ms.push_back(a.exec_s * 1e3);
      kl.unattributed_ms.push_back((a.rt_s - a.queue_s - a.exec_s) * 1e3);
      kl.candgen_ms.push_back(candgen * 1e3);
      kl.filter_ms.push_back(rr.filter_s * 1e3);
      kl.refine_ms.push_back(rr.refine_s * 1e3);
      kl.candgen_sum += candgen;
      kl.rt_sum += b.rt_s;  // same pass as the span
      kl.filter_sum += rr.filter_s;
      kl.refine_sum += rr.refine_s;
      const perfbench::StageSum st = perfbench::AccountStages(
          a.rt_s, {a.queue_s, candgen, rr.filter_s, rr.refine_s});
      residual_sum += st.residual;
      rt_total += st.round_trip;
    }
    for (QueryKind k : {QueryKind::kThresholdKnn, QueryKind::kThresholdRknn}) {
      const size_t want = layers[k].exec_ms.size();
      if (filter_spans[k].size() != want) {
        std::printf("# trace cross-check: %zu %s filter spans for %zu "
                    "requests\n",
                    filter_spans[k].size(), service::QueryKindName(k), want);
      }
    }
    for (QueryKind k : kKinds) {
      const std::string kn = service::QueryKindName(k);
      KindLayers& kl = layers[k];
      report.Add(l, "service.exec_ms." + kn + ".p50",
                 perfbench::Median(kl.exec_ms), "ms");
      report.Add(l, "service.unattributed_ms." + kn + ".p50",
                 perfbench::Median(kl.unattributed_ms), "ms");
      if (k != QueryKind::kInverseRanking) {
        report.Add(l, "candidate_gen.ms." + kn + ".p50",
                   perfbench::Median(kl.candgen_ms), "ms");
        report.Add(l, "candidate_gen.share_of_rtt." + kn,
                   Fraction(kl.candgen_sum, kl.rt_sum), "fraction");
      }
      report.Add(l, "idca.filter_ms." + kn, perfbench::Median(kl.filter_ms),
                 "ms");
      report.Add(l, "idca.refine_ms." + kn, perfbench::Median(kl.refine_ms),
                 "ms");
      report.Add(l, "idca.filter_share." + kn,
                 Fraction(kl.filter_sum, kl.filter_sum + kl.refine_sum),
                 "fraction");
    }
    const double nreq = static_cast<double>(plain.size());
    report.Add(l, "idca.iterations.mean",
               Fraction(static_cast<double>(iterations),
                        static_cast<double>(runs)),
               "count");
    report.Add(l, "idca.influence_objects.mean",
               Fraction(static_cast<double>(influence),
                        static_cast<double>(runs)),
               "count");
    report.Add(l, "idca.pairs_evaluated",
               Fraction(static_cast<double>(pairs_eval), nreq), "count");
    report.Add(l, "idca.pairs_frozen",
               Fraction(static_cast<double>(pairs_frozen), nreq), "count");
    report.Add(l, "domination.tests.mean",
               Fraction(static_cast<double>(dom_tests), nreq), "count");
    report.Add(l, "stage.residual_fraction",
               Fraction(residual_sum, rt_total), "fraction");
    report.Add(l, "bench.trace_overhead",
               Fraction(perfbench::Median(rt_traced),
                        perfbench::Median(rt_plain)) -
                   1.0,
               "fraction");
    report.Add(l, "trace.dropped_events",
               static_cast<double>(recorder.dropped()), "count");
  }

  if (!setup.wal_dir.empty()) {
    setup.store.reset();
    std::filesystem::remove_all(setup.wal_dir);
  }

  const size_t failed = oracle.failures();
  std::printf("metric %-44s %.6g fraction\n", "error_rate",
              Fraction(static_cast<double>(failed),
                       static_cast<double>(attempted)));
  const bool correct = failed == 0;
  const std::vector<Metric>& out =
      args.trace == 0 ? report.end_to_end : report.per_layer;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}
