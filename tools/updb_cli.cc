// updb command-line driver: generate datasets, inspect them, and run the
// paper's queries without writing C++.
//
//   updb_cli generate --kind=synthetic|iip --n=10000 --extent=0.004
//            --model=uniform|gaussian|discrete --samples=1000 --seed=42
//            --out=data.updb
//   updb_cli info --db=data.updb
//   updb_cli domcount --db=data.updb --b=17 --qx=0.5 --qy=0.5
//            --qextent=0.004 --iterations=6 --threads=1 --seed=7
//   (--threads: 1 = serial, 0 = all hardware threads; results are
//    identical for every value — also accepted by knn/rknn.
//    --seed drives query-object generation and is echoed in the output
//    header, so any run is reproducible from its logged command line.)
//   updb_cli knn --db=data.updb --k=5 --tau=0.5 --qx=0.5 --qy=0.5
//            --qextent=0.004 --seed=7
//   updb_cli rknn --db=data.updb --k=5 --tau=0.5 --qx=0.5 --qy=0.5
//            --qextent=0.004 --seed=7
//   updb_cli serve --n=400 --extent=0.02 --requests=100 --workers=2
//            --batch=8 --queue=256 --qps=0 --iterations=6 --seed=1
//            [--shards=4] [--db=data.updb]
//            [--deadline-ms=20 --deadline-fraction=0.5]
//            [--metrics-out=metrics.json] [--prom-out=metrics.prom]
//            [--trace-out=trace.json]
//            [--response-cache=256] [--verdict-memo=65536]
//            [--admin-port=8080 --admin-linger-ms=0]
//            [--audit-capacity=256 --audit-threshold-ms=50
//             --audit-sample-every=64]
//            [--churn --churn-batches=8 --churn-per-batch=16
//             --churn-interval-ms=20 --churn-seed=2]
//   (serve-bench mode: generates — or loads — a database into a versioned
//    store (sharded --shards ways; payloads are shard-count-invariant),
//    builds a mixed query trace from --seed, replays it at --qps offered
//    load (0 = as fast as possible) against the concurrent QueryService,
//    and prints a determinism digest of all responses plus the metrics
//    JSON — to stdout, or to --metrics-out so the digest stays
//    machine-greppable on its own. The metrics JSON has four sections:
//    "service" (the ServiceMetrics snapshot), "store" (per-shard live
//    object counts plus publish drain/build latency aggregates), "wal"
//    (append/fsync/checkpoint counters) and "recovery" (the startup
//    recovery report, or {"recovered": false}). --prom-out additionally
//    writes the unified registry as a Prometheus text exposition, and
//    --trace-out records a structured span tree of the whole run —
//    submit, queue wait, batch execution, IDCA phases, store publishes,
//    WAL fsyncs and checkpoints — as Chrome trace-event JSON loadable in
//    Perfetto. Payloads are bit-identical with tracing on or off. With
//    --churn a writer thread concurrently applies seed-deterministic
//    mutation batches and publishes new versions while the trace replays;
//    the summary then reports the span of snapshot versions the responses
//    were served from. --response-cache=N enables the versioned
//    full-response cache (N entries) and --verdict-memo=N the
//    snapshot-scoped domination-verdict memo (N 16-byte slots); their
//    hit/miss/eviction series join the unified registry. With the
//    response cache on and a quiet store (no churn, no load-shed
//    rejections) the run replays the trace a second time through a fresh
//    service sharing the populated caches and exits 2 unless the warm
//    response sequence digests bit-identically to the first.
//    --admin-port=P starts the live introspection plane on 127.0.0.1:P
//    (0 picks an ephemeral port, echoed as `# admin listening ...`):
//    /metrics, /healthz, /readyz, /statusz and /requestz — the
//    slow-request audit log, tuned by --audit-capacity (ring slots),
//    --audit-threshold-ms (latency above which every request is recorded)
//    and --audit-sample-every (1-in-N sample of the fast remainder).
//    --admin-linger-ms keeps the admin plane up that long after the
//    replay finishes so external probes can scrape a quiesced process.
//    Payloads are bit-identical with the admin plane on or off.)
//   updb_cli mutate --db=data.updb --out=data2.updb --batches=4
//            --per-batch=32 --insert-w=0.4 --update-w=0.4 --remove-w=0.2
//            --extent=0.01 --model=uniform --samples=64 --seed=1
//            [--compact-fraction=0.25] [--shards=4]
//            [--metrics-out=store_metrics.json] [--prom-out=metrics.prom]
//            [--trace-out=trace.json]
//            [--wal-dir=walr --fsync=never|every_publish|every_batch
//             --checkpoint-every=8]
//   (replays a seed-deterministic mutation trace against the store — one
//    publish per batch, logging per-publish delta size, compactions and
//    drain/build latency — and writes the final published snapshot to
//    --out; --metrics-out dumps the store/wal/recovery sections of the
//    same metrics JSON as serve, and --prom-out/--trace-out work as in
//    serve.)
//   updb_cli recover --wal-dir=walr [--shards=4] [--out=recovered.updb]
//   (rebuilds the store from the newest valid checkpoint plus the WAL
//    tail in --wal-dir, prints a single-line JSON report — recovered
//    version, records replayed, truncated-tail bytes, data-loss flag and
//    per-file warnings — and optionally saves the recovered latest
//    snapshot to --out. Exit 0 on success, 1 when nothing recoverable.)
//
//   Durability (--wal-dir on serve/mutate): every mutation is appended to
//   per-shard CRC32C-framed WAL segments in --wal-dir before it is
//   acknowledged, and publishes write periodic checkpoints
//   (--checkpoint-every, default 8 publishes). --fsync picks the flush
//   policy: "never" (OS-buffered), "every_publish" (default; each
//   published version is durable) or "every_batch" (each acknowledged
//   batch is durable). If --wal-dir already holds WAL or checkpoint data
//   the command first RECOVERS that history — the --db/--n seed is
//   ignored — and then continues appending to the same log, so a killed
//   run can simply be re-executed.
//
//   Numeric flags take a non-negative, finite number written out in full
//   (integers for counts, seeds and ports); any other value prints the
//   usage and exits 2.

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <system_error>
#include <thread>

#include "gf/kernels.h"
#include "updb.h"

namespace {

using namespace updb;

/// Minimal --key=value argument map.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const size_t eq = arg.find('=');
      if (eq == std::string::npos) {
        values_[arg.substr(2)] = "1";
      } else {
        values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double value = 0.0;
    if (!ParseWhole(it->second, value) || !std::isfinite(value) ||
        value < 0.0) {
      throw BadFlag{key, it->second, "a non-negative finite number"};
    }
    return value;
  }
  size_t GetSize(const std::string& key, size_t fallback) const {
    auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    size_t value = 0;
    if (!ParseWhole(it->second, value)) {
      throw BadFlag{key, it->second, "a non-negative integer"};
    }
    return value;
  }

  /// A numeric flag whose value does not parse; main() reports it and
  /// exits 2.
  struct BadFlag {
    std::string key;
    std::string value;
    const char* expected;
  };

 private:
  /// std::from_chars over the whole of `text` (no sign for unsigned
  /// types, no leading space, no trailing characters, no overflow).
  template <class T>
  static bool ParseWhole(const std::string& text, T& value) {
    const char* end = text.data() + text.size();
    const std::from_chars_result r = std::from_chars(text.data(), end, value);
    return r.ec == std::errc() && r.ptr == end;
  }

  std::map<std::string, std::string> values_;
};

workload::ObjectModel ParseModel(const std::string& s) {
  if (s == "gaussian") return workload::ObjectModel::kGaussian;
  if (s == "discrete") return workload::ObjectModel::kDiscrete;
  return workload::ObjectModel::kUniform;
}

int Generate(const Args& args) {
  const std::string out = args.Get("out", "data.updb");
  UncertainDatabase db;
  uint64_t seed = 0;
  if (args.Get("kind", "synthetic") == "iip") {
    workload::IipConfig cfg;
    cfg.num_objects = args.GetSize("n", cfg.num_objects);
    cfg.max_extent = args.GetDouble("extent", cfg.max_extent);
    cfg.model = ParseModel(args.Get("model", "gaussian"));
    cfg.samples_per_object = args.GetSize("samples", 1000);
    cfg.seed = args.GetSize("seed", cfg.seed);
    seed = cfg.seed;
    db = workload::MakeIipLikeDataset(cfg);
  } else {
    workload::SyntheticConfig cfg;
    cfg.num_objects = args.GetSize("n", cfg.num_objects);
    cfg.max_extent = args.GetDouble("extent", cfg.max_extent);
    cfg.model = ParseModel(args.Get("model", "uniform"));
    cfg.samples_per_object = args.GetSize("samples", 1000);
    cfg.seed = args.GetSize("seed", cfg.seed);
    seed = cfg.seed;
    db = workload::MakeSyntheticDatabase(cfg);
  }
  const Status status = io::SaveDatabase(db, out);
  if (!status.ok()) {
    std::fprintf(stderr, "save failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("seed=%llu wrote %zu objects to %s\n",
              static_cast<unsigned long long>(seed), db.size(), out.c_str());
  return 0;
}

StatusOr<UncertainDatabase> LoadDb(const Args& args) {
  return io::LoadDatabase(args.Get("db", "data.updb"));
}

int Info(const Args& args) {
  StatusOr<UncertainDatabase> db = LoadDb(args);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  double max_extent = 0.0, total_extent = 0.0;
  size_t uncertain_existence = 0;
  for (const UncertainObject& o : db->objects()) {
    for (size_t i = 0; i < o.dim(); ++i) {
      max_extent = std::max(max_extent, o.mbr().side(i).length());
      total_extent += o.mbr().side(i).length();
    }
    uncertain_existence += !o.existentially_certain();
  }
  const RTree index = BuildRTree(db->objects());
  std::printf("objects:              %zu\n", db->size());
  std::printf("dimensionality:       %zu\n", db->dim());
  std::printf("max extent:           %.6f\n", max_extent);
  std::printf("mean extent:          %.6f\n",
              total_extent / (static_cast<double>(db->size() * db->dim())));
  std::printf("existentially uncertain objects: %zu\n", uncertain_existence);
  std::printf("r-tree height:        %zu\n", index.height());
  return 0;
}

/// Seed for query-object generation: --seed, default 7 (the historical
/// hard-wired value). Echoed in every command's output header.
uint64_t QuerySeed(const Args& args) {
  return static_cast<uint64_t>(args.GetSize("seed", 7));
}

std::shared_ptr<const Pdf> QueryObjectFromArgs(const Args& args, Rng& rng) {
  const Point center{args.GetDouble("qx", 0.5), args.GetDouble("qy", 0.5)};
  return workload::MakeQueryObject(center,
                                   args.GetDouble("qextent", 0.004),
                                   workload::ObjectModel::kUniform, 0, rng);
}

int DomCount(const Args& args) {
  StatusOr<UncertainDatabase> db = LoadDb(args);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const ObjectId b = static_cast<ObjectId>(args.GetSize("b", 0));
  if (b >= db->size()) {
    std::fprintf(stderr, "--b out of range (database has %zu objects)\n",
                 db->size());
    return 1;
  }
  const uint64_t seed = QuerySeed(args);
  Rng rng(seed);
  const auto q = QueryObjectFromArgs(args, rng);
  IdcaConfig config;
  config.max_iterations = static_cast<int>(args.GetSize("iterations", 6));
  config.num_threads = static_cast<int>(args.GetSize("threads", 1));
  IdcaEngine engine(*db, config);
  const IdcaResult result = engine.ComputeDomCount(b, *q);
  std::printf("seed=%llu kernel=%s complete dominators: %zu, "
              "influence objects: %zu, %.3f ms\n",
              static_cast<unsigned long long>(seed), gf::ActiveKernelName(),
              result.complete_domination_count, result.influence_count,
              result.seconds * 1e3);
  for (size_t k = 0; k < result.bounds.num_ranks(); ++k) {
    if (result.bounds.ub(k) < 1e-9) continue;
    std::printf("P(DomCount = %zu) in [%.4f, %.4f]\n", k,
                result.bounds.lb(k), result.bounds.ub(k));
  }
  return 0;
}

int ThresholdQuery(const Args& args, bool reverse) {
  StatusOr<UncertainDatabase> db = LoadDb(args);
  if (!db.ok()) {
    std::fprintf(stderr, "%s\n", db.status().ToString().c_str());
    return 1;
  }
  const uint64_t seed = QuerySeed(args);
  Rng rng(seed);
  const auto q = QueryObjectFromArgs(args, rng);
  const size_t k = args.GetSize("k", 5);
  const double tau = args.GetDouble("tau", 0.5);
  IdcaConfig config;
  config.max_iterations = static_cast<int>(args.GetSize("iterations", 8));
  config.num_threads = static_cast<int>(args.GetSize("threads", 1));
  const RTree index = BuildRTree(db->objects());
  QueryStats stats;
  const auto results =
      reverse
          ? ProbabilisticThresholdRknn(*db, index, *q, k, tau, config, &stats)
          : ProbabilisticThresholdKnn(*db, index, *q, k, tau, config, &stats);
  std::printf("seed=%llu %s query, k=%zu tau=%.2f: %zu candidates, %.3f ms\n",
              static_cast<unsigned long long>(seed), reverse ? "RkNN" : "kNN",
              k, tau, stats.candidates, stats.seconds * 1e3);
  for (const auto& r : results) {
    if (r.decision == PredicateDecision::kFalse) continue;
    std::printf("object %u: P in [%.4f, %.4f] -> %s\n", r.id, r.prob.lb,
                r.prob.ub,
                r.decision == PredicateDecision::kTrue ? "IN" : "UNDECIDED");
  }
  return 0;
}

/// Store half of the metrics JSON: per-shard live object counts plus the
/// drain/build publish-latency aggregates.
std::string StoreMetricsJson(const store::VersionedObjectStore& s) {
  const store::PublishMetrics pm = s.publish_metrics();
  const std::vector<size_t> counts = s.ShardLiveCounts();
  const double publishes =
      pm.publishes > 0 ? static_cast<double>(pm.publishes) : 1.0;
  char buf[256];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf), "\"num_shards\": %zu, ",
                s.num_shards());
  out += buf;
  out += "\"shard_live_counts\": [";
  for (size_t i = 0; i < counts.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%zu", i > 0 ? ", " : "", counts[i]);
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "], \"publishes\": %llu, "
                "\"publish_drain_ms\": {\"mean\": %.6g, \"max\": %.6g}, "
                "\"publish_build_ms\": {\"mean\": %.6g, \"max\": %.6g}}",
                static_cast<unsigned long long>(pm.publishes),
                pm.total_drain_ms / publishes, pm.max_drain_ms,
                pm.total_build_ms / publishes, pm.max_build_ms);
  out += buf;
  return out;
}

/// Builds the store for serve/mutate, honoring --wal-dir / --fsync /
/// --checkpoint-every. Without --wal-dir: a plain in-memory store seeded
/// from `db`. With --wal-dir on a fresh directory: a durable store seeded
/// from `db`. With --wal-dir on a directory that already holds WAL or
/// checkpoint data: the persisted history is recovered (`db` is ignored),
/// the recovery report is printed as a `# recovery ...` line, and
/// durability is re-attached so the run continues the existing log.
StatusOr<std::shared_ptr<store::VersionedObjectStore>> MakeStore(
    const Args& args, const UncertainDatabase& db, store::StoreOptions sopts,
    store::RecoveryReport* report_out, bool* did_recover) {
  if (did_recover != nullptr) *did_recover = false;
  const std::string wal_dir = args.Get("wal-dir", "");
  if (wal_dir.empty()) {
    return std::make_shared<store::VersionedObjectStore>(db, sopts);
  }
  const StatusOr<store::FsyncPolicy> fsync =
      store::ParseFsyncPolicy(args.Get("fsync", "every_publish"));
  if (!fsync.ok()) return fsync.status();
  sopts.durability.wal_dir = wal_dir;
  sopts.durability.fsync = *fsync;
  sopts.durability.checkpoint_every =
      std::max<uint64_t>(args.GetSize("checkpoint-every", 8), 1);

  StatusOr<std::unique_ptr<store::VersionedObjectStore>> opened =
      store::VersionedObjectStore::Open(db, sopts);
  if (opened.ok()) {
    return std::shared_ptr<store::VersionedObjectStore>(std::move(*opened));
  }
  if (opened.status().code() != StatusCode::kFailedPrecondition) {
    return opened.status();
  }
  // The directory already holds store data: recover and continue.
  store::RecoveryReport local_report;
  store::RecoveryReport& report =
      report_out != nullptr ? *report_out : local_report;
  StatusOr<std::unique_ptr<store::VersionedObjectStore>> recovered =
      store::RecoverStore(wal_dir, sopts, &report);
  if (!recovered.ok()) return recovered.status();
  if (did_recover != nullptr) *did_recover = true;
  std::printf("# recovery %s\n", report.ToJson().c_str());
  const Status attached = (*recovered)->AttachDurability(sopts.durability);
  if (!attached.ok()) return attached;
  return std::shared_ptr<store::VersionedObjectStore>(std::move(*recovered));
}

/// "recovery" section of the metrics JSON: whether this process recovered
/// an existing WAL directory at startup, and the report when it did.
std::string RecoveryMetricsJson(bool did_recover,
                                const store::RecoveryReport& report) {
  if (!did_recover) return "{\"recovered\": false}";
  return "{\"recovered\": true, \"report\": " + report.ToJson() + "}";
}

/// Shared tail of serve/mutate: write the trace (--trace-out) and the
/// Prometheus exposition (--prom-out) when requested. Returns false on an
/// unwritable path.
bool WriteObsOutputs(const Args& args, const obs::TraceRecorder* trace,
                     const obs::MetricsRegistry& registry) {
  const std::string trace_out = args.Get("trace-out", "");
  if (!trace_out.empty() && trace != nullptr) {
    const Status written = trace->WriteChromeJson(trace_out);
    if (!written.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", trace_out.c_str(),
                   written.ToString().c_str());
      return false;
    }
    std::printf("# trace written to %s (%zu events, %llu dropped)\n",
                trace_out.c_str(), trace->size(),
                static_cast<unsigned long long>(trace->dropped()));
  }
  const std::string prom_out = args.Get("prom-out", "");
  if (!prom_out.empty()) {
    std::FILE* f = std::fopen(prom_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", prom_out.c_str());
      return false;
    }
    const std::string text = registry.ToPrometheus();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("# prometheus metrics written to %s\n", prom_out.c_str());
  }
  return true;
}

int Recover(const Args& args) {
  const std::string wal_dir = args.Get("wal-dir", "");
  if (wal_dir.empty()) {
    std::fprintf(stderr, "recover requires --wal-dir\n");
    return 2;
  }
  store::StoreOptions sopts;
  sopts.num_shards = std::max<size_t>(args.GetSize("shards", 1), 1);
  store::RecoveryReport report;
  StatusOr<std::unique_ptr<store::VersionedObjectStore>> recovered =
      store::RecoverStore(wal_dir, sopts, &report);
  if (!recovered.ok()) {
    std::fprintf(stderr, "recover failed: %s\n",
                 recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.ToJson().c_str());
  const std::string out = args.Get("out", "");
  if (!out.empty()) {
    const Status saved =
        io::SaveDatabase(*(*recovered)->latest()->db(), out);
    if (!saved.ok()) {
      std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "# wrote recovered version %llu (%zu objects) to %s\n",
                 static_cast<unsigned long long>((*recovered)->version()),
                 (*recovered)->latest()->size(), out.c_str());
  }
  return 0;
}

int Serve(const Args& args) {
  // Store seed: load --db when given, otherwise generate a synthetic
  // database in memory from the logged parameters.
  UncertainDatabase db;
  if (args.Get("db", "").empty()) {
    workload::SyntheticConfig cfg;
    cfg.num_objects = args.GetSize("n", 400);
    cfg.max_extent = args.GetDouble("extent", 0.02);
    cfg.model = ParseModel(args.Get("model", "uniform"));
    cfg.samples_per_object = args.GetSize("samples", 64);
    cfg.seed = args.GetSize("dbseed", cfg.seed);
    db = workload::MakeSyntheticDatabase(cfg);
  } else {
    StatusOr<UncertainDatabase> loaded = LoadDb(args);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    db = std::move(loaded).value();
  }

  const uint64_t seed = static_cast<uint64_t>(args.GetSize("seed", 1));
  service::TraceConfig tcfg;
  tcfg.num_requests = args.GetSize("requests", 100);
  tcfg.seed = seed;
  tcfg.k_max = args.GetSize("kmax", 10);
  tcfg.tau = args.GetDouble("tau", 0.5);
  tcfg.query_extent = args.GetDouble("qextent", 0.02);
  tcfg.budget.max_iterations =
      static_cast<int>(args.GetSize("iterations", 6));
  tcfg.budget.uncertainty_epsilon = args.GetDouble("epsilon", 0.0);
  tcfg.deadline_ms = args.GetDouble("deadline-ms", 0.0);
  tcfg.deadline_fraction =
      tcfg.deadline_ms > 0.0 ? args.GetDouble("deadline-fraction", 1.0) : 0.0;
  const std::vector<service::QueryRequest> trace =
      service::MakeTrace(db, tcfg);

  service::QueryServiceOptions opts;
  opts.num_workers = std::max<size_t>(args.GetSize("workers", 2), 1);
  opts.batch_size = std::max<size_t>(args.GetSize("batch", 8), 1);
  opts.max_queue = std::max<size_t>(args.GetSize("queue", 256), 1);
  const double est_iter_ms = args.GetDouble("est-iter-ms", 5.0);
  opts.est_iteration_ms = est_iter_ms > 0.0 ? est_iter_ms : 5.0;
  const double qps = args.GetDouble("qps", 0.0);
  const bool churn = !args.Get("churn", "").empty();

  // Observability: one process-wide registry unifies the service, store,
  // WAL, checkpoint and recovery series; --trace-out enables the span
  // recorder (null recorder = near-zero cost when absent).
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const std::string trace_out = args.Get("trace-out", "");
  obs::TraceRecorder trace_recorder;
  obs::TraceRecorder* tracer =
      trace_out.empty() ? nullptr : &trace_recorder;
  if (tracer != nullptr) tracer->RegisterGauges(&registry);
  opts.metrics_registry = &registry;
  opts.trace = tracer;

  // Live introspection plane (--admin-port) + slow-request audit log.
  // The audit log is created whenever the admin plane is on (or auditing
  // is explicitly tuned): its record path is lock-free and it never
  // changes a payload, so leaving it on costs a ring write per request.
  const bool admin_enabled = !args.Get("admin-port", "").empty();
  std::unique_ptr<obs::RequestAuditLog> audit_log;
  if (admin_enabled || !args.Get("audit-capacity", "").empty()) {
    obs::AuditLogOptions audit_opts;
    audit_opts.capacity = args.GetSize("audit-capacity", 256);
    audit_opts.slow_threshold_seconds =
        args.GetDouble("audit-threshold-ms", 50.0) / 1e3;
    audit_opts.sample_every = args.GetSize("audit-sample-every", 64);
    audit_opts.registry = &registry;
    audit_log = std::make_unique<obs::RequestAuditLog>(audit_opts);
    opts.audit_log = audit_log.get();
  }

  store::StoreOptions sopts;
  sopts.num_shards = std::max<size_t>(args.GetSize("shards", 1), 1);
  sopts.metrics_registry = &registry;
  sopts.trace = tracer;

  // Cross-request caching: the caches are built here (not via the
  // capacity options) so the warm oracle pass below can share them with
  // a second service instance.
  std::shared_ptr<cache::ResponseCache> response_cache;
  const size_t response_cache_cap = args.GetSize("response-cache", 0);
  if (response_cache_cap > 0) {
    response_cache = std::make_shared<cache::ResponseCache>(
        response_cache_cap, &registry);
    opts.response_cache = response_cache;
  }
  std::shared_ptr<cache::VerdictMemo> verdict_memo;
  const size_t verdict_memo_cap = args.GetSize("verdict-memo", 0);
  if (verdict_memo_cap > 0) {
    verdict_memo =
        std::make_shared<cache::VerdictMemo>(verdict_memo_cap, &registry);
    opts.verdict_memo = verdict_memo;
  }

  std::printf("# updb serve — seed=%llu db_objects=%zu requests=%zu "
              "workers=%zu batch=%zu queue=%zu qps=%.3g iterations=%d "
              "shards=%zu churn=%d wal_dir=%s fsync=%s "
              "response_cache=%zu verdict_memo=%zu kernel=%s\n",
              static_cast<unsigned long long>(seed), db.size(),
              trace.size(), opts.num_workers, opts.batch_size,
              opts.max_queue, qps, tcfg.budget.max_iterations,
              sopts.num_shards, churn ? 1 : 0,
              args.Get("wal-dir", "-").c_str(),
              args.Get("fsync", "every_publish").c_str(),
              response_cache_cap, verdict_memo_cap,
              gf::ActiveKernelName());

  store::RecoveryReport recovery_report;
  bool did_recover = false;
  StatusOr<std::shared_ptr<store::VersionedObjectStore>> made =
      MakeStore(args, db, sopts, &recovery_report, &did_recover);
  if (!made.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<store::VersionedObjectStore> object_store =
      std::move(made).value();
  service::QueryService svc(object_store, opts);

  // Admin plane: store-backed readiness + /statusz over this service,
  // /metrics from the unified registry, /requestz from the audit ring.
  // Declared after svc/audit_log so it stops (and its thread joins)
  // before anything it reads is torn down.
  std::unique_ptr<obs::AdminServer> admin;
  if (admin_enabled) {
    obs::AdminServerOptions aopts = service::MakeAdminOptions(
        &svc, object_store.get(), did_recover ? &recovery_report : nullptr);
    aopts.port = static_cast<uint16_t>(args.GetSize("admin-port", 0));
    aopts.registry = &registry;
    aopts.audit_log = audit_log.get();
    aopts.build_info = "updb_cli serve";
    admin = std::make_unique<obs::AdminServer>(std::move(aopts));
    const Status started = admin->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "admin server failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
    // Flushed immediately so external probes can pick the port up while
    // the replay is still running.
    std::printf("# admin listening on 127.0.0.1:%u\n", admin->port());
    std::fflush(stdout);
  }

  // --churn: a writer thread applies seed-deterministic mutation batches
  // and publishes new versions while the trace replays.
  std::thread writer;
  if (churn) {
    const size_t churn_batches = args.GetSize("churn-batches", 8);
    const uint64_t churn_seed =
        static_cast<uint64_t>(args.GetSize("churn-seed", seed + 1));
    workload::ChurnConfig ccfg;
    ccfg.mutations_per_batch = args.GetSize("churn-per-batch", 16);
    ccfg.max_extent = args.GetDouble("churn-extent",
                                     args.GetDouble("extent", 0.02));
    ccfg.model = ParseModel(args.Get("model", "uniform"));
    ccfg.samples_per_object = args.GetSize("samples", 64);
    const double interval_ms = args.GetDouble("churn-interval-ms", 20.0);
    writer = std::thread([object_store, churn_batches, churn_seed, ccfg,
                          interval_ms] {
      Rng rng(churn_seed);
      const size_t dim = std::max<size_t>(object_store->dim(), 1);
      for (size_t b = 0; b < churn_batches; ++b) {
        const std::vector<store::Mutation> batch =
            workload::MakeMutationBatch(object_store->LiveIds(), dim, ccfg,
                                        rng);
        const Status status = workload::ApplyMutationBatch(*object_store,
                                                           batch);
        if (!status.ok()) {
          std::fprintf(stderr, "churn apply failed: %s\n",
                       status.ToString().c_str());
        }
        object_store->Publish();
        if (interval_ms > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(interval_ms));
        }
      }
    });
  }

  const service::ReplayResult result =
      service::ReplayTrace(svc, trace, qps);
  if (writer.joinable()) writer.join();
  if (object_store->durable() && !object_store->wal_status().ok()) {
    std::fprintf(stderr, "wal error: %s\n",
                 object_store->wal_status().ToString().c_str());
  }

  size_t by_status[4] = {0, 0, 0, 0};
  uint64_t min_version = ~uint64_t{0}, max_version = 0;
  for (const service::QueryResponse& r : result.responses) {
    ++by_status[static_cast<size_t>(r.status)];
    // Never-executed stubs carry version 0; executed responses (kInvalid
    // included — execution-time invalidation stamps the round's version)
    // name a published version, since the store seeds at version 1.
    if (r.snapshot_version == 0) continue;
    min_version = std::min(min_version, r.snapshot_version);
    max_version = std::max(max_version, r.snapshot_version);
  }
  if (min_version > max_version) min_version = max_version;
  std::printf("# ok=%zu expired=%zu rejected=%zu invalid=%zu "
              "wall_seconds=%.3f\n",
              by_status[0], by_status[1], by_status[2], by_status[3],
              result.wall_seconds);
  std::printf("# versions_served=[%llu, %llu] store_version=%llu "
              "live_objects=%zu mutations=%llu\n",
              static_cast<unsigned long long>(min_version),
              static_cast<unsigned long long>(max_version),
              static_cast<unsigned long long>(object_store->version()),
              object_store->live_size(),
              static_cast<unsigned long long>(
                  object_store->total_mutations()));
  std::printf("# response_digest=%016llx\n",
              static_cast<unsigned long long>(
                  service::ResponseDigest(result.responses)));

  // Cached≡recomputed oracle: replay the trace once more through a fresh
  // service *sharing* the populated caches — tickets restart at 0, so
  // the warm response sequence must digest bit-identically to the first
  // pass, with every executed request served from the cache. Skipped
  // under churn (the store version advanced, so recomputation is the
  // correct behavior) and under load shedding (rejection is
  // load-dependent, not part of the determinism contract).
  int exit_code = 0;
  if (response_cache != nullptr) {
    std::printf("# response_cache hits=%llu misses=%llu evictions=%llu "
                "entries=%zu\n",
                static_cast<unsigned long long>(response_cache->hits()),
                static_cast<unsigned long long>(response_cache->misses()),
                static_cast<unsigned long long>(response_cache->evictions()),
                response_cache->size());
    if (!churn && result.rejected == 0) {
      service::QueryService warm_svc(object_store, opts);
      const service::ReplayResult warm =
          service::ReplayTrace(warm_svc, trace, /*qps=*/0.0);
      const uint64_t first = service::ResponseDigest(result.responses);
      const uint64_t second = service::ResponseDigest(warm.responses);
      size_t warm_hits = 0;
      for (const service::QueryResponse& r : warm.responses) {
        warm_hits += r.stats.cache_hit ? 1 : 0;
      }
      std::printf("# cache_oracle digests=%s warm_hits=%zu/%zu\n",
                  first == second ? "match" : "MISMATCH", warm_hits,
                  warm.responses.size());
      if (first != second) {
        std::fprintf(stderr,
                     "FAIL: cached response payloads diverge from "
                     "recomputation (%016llx vs %016llx)\n",
                     static_cast<unsigned long long>(first),
                     static_cast<unsigned long long>(second));
        exit_code = 2;
      }
    }
  }
  if (verdict_memo != nullptr) {
    std::printf("# verdict_memo hits=%llu misses=%llu inserts=%llu "
                "evictions=%llu slots=%zu\n",
                static_cast<unsigned long long>(verdict_memo->hits()),
                static_cast<unsigned long long>(verdict_memo->misses()),
                static_cast<unsigned long long>(verdict_memo->inserts()),
                static_cast<unsigned long long>(verdict_memo->evictions()),
                verdict_memo->capacity());
  }

  const std::string metrics_json =
      "{\"service\": " + svc.metrics().Snapshot().ToJson() +
      ", \"store\": " + StoreMetricsJson(*object_store) + ", \"wal\": " +
      object_store->wal_stats().ToJson(object_store->wal_status()) +
      ", \"recovery\": " +
      RecoveryMetricsJson(did_recover, recovery_report) + "}";
  const std::string metrics_out = args.Get("metrics-out", "");
  if (metrics_out.empty()) {
    std::printf("%s\n", metrics_json.c_str());
  } else {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", metrics_json.c_str());
    std::fclose(f);
    std::printf("# metrics written to %s\n", metrics_out.c_str());
  }
  if (!WriteObsOutputs(args, tracer, registry)) return 1;

  // Keep the admin plane scrapeable after the replay quiesces (CI curls
  // the endpoints of a finished run before the process exits).
  const double linger_ms = args.GetDouble("admin-linger-ms", 0.0);
  if (admin != nullptr && linger_ms > 0.0) {
    std::printf("# admin lingering for %.0f ms\n", linger_ms);
    std::fflush(stdout);
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(linger_ms));
  }
  return exit_code;
}

int Mutate(const Args& args) {
  StatusOr<UncertainDatabase> loaded = LoadDb(args);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
    return 1;
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Default();
  const std::string trace_out = args.Get("trace-out", "");
  obs::TraceRecorder trace_recorder;
  obs::TraceRecorder* trace =
      trace_out.empty() ? nullptr : &trace_recorder;

  store::StoreOptions sopts;
  sopts.compact_delta_fraction = args.GetDouble("compact-fraction", 0.25);
  sopts.num_shards = std::max<size_t>(args.GetSize("shards", 1), 1);
  sopts.metrics_registry = &registry;
  sopts.trace = trace;
  store::RecoveryReport recovery_report;
  bool did_recover = false;
  StatusOr<std::shared_ptr<store::VersionedObjectStore>> made =
      MakeStore(args, *loaded, sopts, &recovery_report, &did_recover);
  if (!made.ok()) {
    std::fprintf(stderr, "store open failed: %s\n",
                 made.status().ToString().c_str());
    return 1;
  }
  store::VersionedObjectStore& object_store = **made;

  const uint64_t seed = static_cast<uint64_t>(args.GetSize("seed", 1));
  workload::ChurnConfig ccfg;
  ccfg.mutations_per_batch = args.GetSize("per-batch", 32);
  ccfg.insert_weight = args.GetDouble("insert-w", 0.4);
  ccfg.update_weight = args.GetDouble("update-w", 0.4);
  ccfg.remove_weight = args.GetDouble("remove-w", 0.2);
  ccfg.max_extent = args.GetDouble("extent", 0.01);
  ccfg.model = ParseModel(args.Get("model", "uniform"));
  ccfg.samples_per_object = args.GetSize("samples", 64);
  const size_t batches = args.GetSize("batches", 4);
  const size_t dim = std::max<size_t>(object_store.dim(), 1);

  std::printf("# updb mutate — seed=%llu objects=%zu batches=%zu "
              "per_batch=%zu weights=%.2f/%.2f/%.2f compact_fraction=%.2f "
              "shards=%zu\n",
              static_cast<unsigned long long>(seed),
              object_store.live_size(), batches, ccfg.mutations_per_batch,
              ccfg.insert_weight, ccfg.update_weight, ccfg.remove_weight,
              sopts.compact_delta_fraction, sopts.num_shards);
  std::printf("version,live,delta_entries,compacted,drain_ms,build_ms\n");
  Rng rng(seed);
  for (size_t b = 0; b < batches; ++b) {
    const std::vector<store::Mutation> batch = workload::MakeMutationBatch(
        object_store.LiveIds(), dim, ccfg, rng);
    const Status status = workload::ApplyMutationBatch(object_store, batch);
    if (!status.ok()) {
      std::fprintf(stderr, "apply failed: %s\n", status.ToString().c_str());
      return 1;
    }
    store::PublishStats stats;
    const auto snap = object_store.Publish(&stats);
    std::printf("%llu,%zu,%zu,%d,%.3f,%.3f\n",
                static_cast<unsigned long long>(snap->version()),
                snap->size(), snap->index().delta_entries(),
                snap->index().compacted() ? 1 : 0, stats.drain_ms,
                stats.build_ms);
  }
  if (object_store.durable() && !object_store.wal_status().ok()) {
    std::fprintf(stderr, "wal error: %s\n",
                 object_store.wal_status().ToString().c_str());
    return 1;
  }
  const std::string metrics_out = args.Get("metrics-out", "");
  if (!metrics_out.empty()) {
    std::FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    const std::string metrics_json =
        "{\"store\": " + StoreMetricsJson(object_store) + ", \"wal\": " +
        object_store.wal_stats().ToJson(object_store.wal_status()) +
        ", \"recovery\": " +
        RecoveryMetricsJson(did_recover, recovery_report) + "}";
    std::fprintf(f, "%s\n", metrics_json.c_str());
    std::fclose(f);
    std::printf("# metrics written to %s\n", metrics_out.c_str());
  }
  if (!WriteObsOutputs(args, trace, registry)) return 1;

  // Never default to the input path — a forgotten --out must not clobber
  // the source dataset.
  const std::string out = args.Get("out", "mutated.updb");
  const Status saved =
      io::SaveDatabase(*object_store.latest()->db(), out);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("# wrote %zu objects (version %llu) to %s\n",
              object_store.latest()->size(),
              static_cast<unsigned long long>(object_store.version()),
              out.c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: updb_cli "
               "<generate|info|domcount|knn|rknn|serve|mutate|recover> "
               "[--key=value ...]\n(see header of tools/updb_cli.cc; "
               "serve/mutate take --wal-dir/--fsync for durability,\n"
               "recover rebuilds from a WAL directory and prints a JSON "
               "report)\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv);
  try {
    if (command == "generate") return Generate(args);
    if (command == "info") return Info(args);
    if (command == "domcount") return DomCount(args);
    if (command == "knn") return ThresholdQuery(args, /*reverse=*/false);
    if (command == "rknn") return ThresholdQuery(args, /*reverse=*/true);
    if (command == "serve") return Serve(args);
    if (command == "mutate") return Mutate(args);
    if (command == "recover") return Recover(args);
  } catch (const Args::BadFlag& bad) {
    std::fprintf(stderr, "updb_cli: --%s=%s: expected %s\n", bad.key.c_str(),
                 bad.value.c_str(), bad.expected);
  }
  return Usage();
}
