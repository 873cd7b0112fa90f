// Service benchmark: closed-loop throughput and tail latency of the
// concurrent QueryService over worker count x batch size, plus the latency
// of one request in flight at 1 and 2 workers, with a built-in determinism
// oracle — every run must produce bit-identical responses (equal digests)
// or the binary exits 2.
//
// Closed loop: the whole trace is admitted up front (queue sized to hold
// it), so workers are never starved and the measured rate is the service's
// capacity at that configuration. One request in flight: the trace is sent
// one request at a time (Submit, then Take), so every dispatch round holds
// a single request, and only spreading its engine runs over the workers
// can use a second worker. Every configuration runs kRepeats times; the
// closed-loop rows give median/min/max over the repeats, the one-in-flight
// rows give percentiles over the pooled per-request latencies. CSV to
// stdout; pass a path argument to also write the summary JSON (the format
// committed as BENCH_service_throughput.json). UPDB_BENCH_SCALE scales the
// database and trace sizes.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "updb.h"

namespace updb {
namespace {

using bench::Spread;
using bench::SpreadOf;

constexpr int kRepeats = 3;

struct Run {
  double seconds = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  /// One-in-flight runs: every request's submit-to-take latency.
  std::vector<double> latencies_ms;
  uint64_t digest = 0;
};

uint64_t SubmitOrDie(service::QueryService& svc,
                     const service::QueryRequest& req) {
  const StatusOr<uint64_t> ticket = svc.Submit(req);
  if (!ticket.ok()) {
    std::fprintf(stderr, "submit failed: %s\n",
                 ticket.status().ToString().c_str());
    std::exit(1);
  }
  return *ticket;
}

/// The whole trace admitted while paused, then drained.
Run ClosedLoop(const std::shared_ptr<const UncertainDatabase>& db,
               const std::vector<service::QueryRequest>& trace,
               size_t workers, size_t batch) {
  service::QueryServiceOptions opts;
  opts.num_workers = workers;
  opts.batch_size = batch;
  opts.max_queue = trace.size();
  // Pause admission while the trace loads so every configuration
  // executes the identical closed-loop backlog.
  opts.start_paused = true;
  service::QueryService svc(db, opts);
  std::vector<uint64_t> tickets;
  tickets.reserve(trace.size());
  for (const service::QueryRequest& req : trace) {
    tickets.push_back(SubmitOrDie(svc, req));
  }
  Stopwatch timer;
  svc.Resume();
  svc.Flush();
  Run run;
  run.seconds = timer.ElapsedSeconds();
  std::vector<service::QueryResponse> responses;
  responses.reserve(tickets.size());
  for (uint64_t t : tickets) responses.push_back(svc.Take(t));
  const service::MetricsSnapshot m = svc.metrics().Snapshot();
  run.p50_ms = m.latency_p50_ms;
  run.p95_ms = m.latency_p95_ms;
  run.p99_ms = m.latency_p99_ms;
  run.digest = service::ResponseDigest(
      std::span<const service::QueryResponse>(responses));
  return run;
}

/// The trace sent one request at a time.
Run OneInFlight(const std::shared_ptr<const UncertainDatabase>& db,
                const std::vector<service::QueryRequest>& trace,
                size_t workers) {
  service::QueryServiceOptions opts;
  opts.num_workers = workers;
  service::QueryService svc(db, opts);
  std::vector<service::QueryResponse> responses;
  responses.reserve(trace.size());
  Run run;
  Stopwatch total;
  for (const service::QueryRequest& req : trace) {
    Stopwatch timer;
    responses.push_back(svc.Take(SubmitOrDie(svc, req)));
    run.latencies_ms.push_back(timer.ElapsedSeconds() * 1e3);
  }
  run.seconds = total.ElapsedSeconds();
  run.digest = service::ResponseDigest(
      std::span<const service::QueryResponse>(responses));
  return run;
}

/// Nearest-rank percentile of `v` (not empty).
double Percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::max<size_t>(rank, 1) - 1];
}

void PrintSpread(std::FILE* f, const char* key, const Spread& s,
                 const char* sep) {
  std::fprintf(f, "\"%s\": {\"median\": %.3f, \"min\": %.3f, \"max\": %.3f}%s",
               key, s.median, s.min, s.max, sep);
}

}  // namespace
}  // namespace updb

int main(int argc, char** argv) {
  using namespace updb;
  bench::PrintBanner("bench_service_throughput",
                     "QueryService closed-loop throughput vs workers/batch, "
                     "one-in-flight latency vs workers");
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# hardware_threads=%u repeats=%d\n", hw, kRepeats);

  workload::SyntheticConfig dbcfg;
  dbcfg.num_objects = bench::Scaled(300);
  dbcfg.max_extent = 0.03;
  dbcfg.seed = 11;
  auto db = std::make_shared<const UncertainDatabase>(
      workload::MakeSyntheticDatabase(dbcfg));

  service::TraceConfig tcfg;
  tcfg.num_requests = bench::Scaled(80);
  tcfg.seed = 23;
  tcfg.query_extent = 0.03;
  tcfg.k_max = 6;
  tcfg.budget.max_iterations = 4;
  tcfg.deadline_fraction = 0.25;  // a quarter of the load is deadline-bound
  tcfg.deadline_ms = 15.0;
  const std::vector<service::QueryRequest> trace =
      service::MakeTrace(*db, tcfg);

  struct ClosedRow {
    size_t workers = 0;
    size_t batch = 0;
    Spread seconds, qps, p50_ms, p95_ms, p99_ms;
  };
  struct InFlightRow {
    size_t workers = 0;
    size_t samples = 0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    Spread seconds;
  };
  std::vector<ClosedRow> closed;
  std::vector<InFlightRow> in_flight;
  std::vector<uint64_t> digests;

  std::printf("series,workers,batch,repeat,seconds,throughput_qps,p50_ms,"
              "p95_ms,p99_ms,digest\n");
  for (size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (size_t batch : {size_t{1}, size_t{8}}) {
      std::vector<double> seconds, qps, p50, p95, p99;
      for (int rep = 0; rep < kRepeats; ++rep) {
        const Run run = ClosedLoop(db, trace, workers, batch);
        seconds.push_back(run.seconds);
        qps.push_back(static_cast<double>(trace.size()) / run.seconds);
        p50.push_back(run.p50_ms);
        p95.push_back(run.p95_ms);
        p99.push_back(run.p99_ms);
        digests.push_back(run.digest);
        std::printf("service_throughput,%zu,%zu,%d,%.3f,%.2f,%.2f,%.2f,%.2f,"
                    "%016llx\n",
                    workers, batch, rep, run.seconds, qps.back(), run.p50_ms,
                    run.p95_ms, run.p99_ms,
                    static_cast<unsigned long long>(run.digest));
      }
      closed.push_back(ClosedRow{workers, batch, SpreadOf(seconds),
                                 SpreadOf(qps), SpreadOf(p50), SpreadOf(p95),
                                 SpreadOf(p99)});
    }
  }

  std::printf("series,workers,repeat,seconds,p50_ms,p95_ms,digest\n");
  for (size_t workers : {size_t{1}, size_t{2}}) {
    std::vector<double> seconds, pooled;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const Run run = OneInFlight(db, trace, workers);
      seconds.push_back(run.seconds);
      pooled.insert(pooled.end(), run.latencies_ms.begin(),
                    run.latencies_ms.end());
      digests.push_back(run.digest);
      std::printf("one_in_flight,%zu,%d,%.3f,%.3f,%.3f,%016llx\n", workers,
                  rep, run.seconds, Percentile(run.latencies_ms, 50),
                  Percentile(run.latencies_ms, 95),
                  static_cast<unsigned long long>(run.digest));
    }
    in_flight.push_back(InFlightRow{workers, pooled.size(),
                                    Percentile(pooled, 50),
                                    Percentile(pooled, 95),
                                    SpreadOf(seconds)});
  }

  const bool deterministic =
      std::all_of(digests.begin(), digests.end(),
                  [&](uint64_t d) { return d == digests[0]; });
  std::printf("series,deterministic\nservice_determinism,%s\n",
              deterministic ? "yes" : "NO");

  if (argc > 1) {
    std::FILE* f = std::fopen(argv[1], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", argv[1]);
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_service_throughput\",\n");
    std::fprintf(f, "  \"hardware_threads\": %u,\n", hw);
    std::fprintf(f,
                 "  \"note\": \"series: closed loop (whole trace admitted "
                 "before Resume); latencies therefore include backlog wait "
                 "and p50/p95/p99 mostly reflect drain order — compare them "
                 "across configurations, not to open-loop service latency. "
                 "one_in_flight: the trace sent one request at a time, "
                 "latency per request from Submit to Take, percentiles over "
                 "all repeats pooled. Responses are bit-identical across "
                 "all runs (see digest).\",\n");
    std::fprintf(f, "  \"db_objects\": %zu,\n", db->size());
    std::fprintf(f, "  \"requests\": %zu,\n", trace.size());
    std::fprintf(f, "  \"iteration_budget\": %d,\n",
                 tcfg.budget.max_iterations);
    std::fprintf(f, "  \"repeats\": %d,\n", kRepeats);
    std::fprintf(f, "  \"deterministic\": %s,\n",
                 deterministic ? "true" : "false");
    std::fprintf(f, "  \"response_digest\": \"%016llx\",\n",
                 static_cast<unsigned long long>(digests[0]));
    std::fprintf(f, "  \"series\": [\n");
    for (size_t i = 0; i < closed.size(); ++i) {
      const ClosedRow& r = closed[i];
      std::fprintf(f, "    {\"workers\": %zu, \"batch\": %zu, ", r.workers,
                   r.batch);
      PrintSpread(f, "seconds", r.seconds, ", ");
      PrintSpread(f, "throughput_qps", r.qps, ", ");
      PrintSpread(f, "p50_ms", r.p50_ms, ", ");
      PrintSpread(f, "p95_ms", r.p95_ms, ", ");
      PrintSpread(f, "p99_ms", r.p99_ms, "");
      std::fprintf(f, "}%s\n", i + 1 < closed.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"one_in_flight\": [\n");
    for (size_t i = 0; i < in_flight.size(); ++i) {
      const InFlightRow& r = in_flight[i];
      std::fprintf(f,
                   "    {\"workers\": %zu, \"samples\": %zu, \"p50_ms\": "
                   "%.3f, \"p95_ms\": %.3f, ",
                   r.workers, r.samples, r.p50_ms, r.p95_ms);
      PrintSpread(f, "seconds", r.seconds, "");
      std::fprintf(f, "}%s\n", i + 1 < in_flight.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
  }
  return deterministic ? 0 : 2;
}
