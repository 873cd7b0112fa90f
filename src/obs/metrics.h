// Copyright 2026 The updb Authors.
// Process-wide metrics substrate of the observability layer (ROADMAP:
// unified observability): counters, gauges and log-bucketed bounded-memory
// histograms owned by a MetricsRegistry that exports every registered
// series as one JSON dump and one Prometheus text exposition.
//
// Hot-path contract: recording is lock-free. Counters add into
// cache-line-aligned striped atomics (a thread picks its stripe once and
// keeps it), gauges are single atomics, and histograms add into per-bucket
// atomics plus CAS-maintained sum/min/max cells — no mutex is taken on any
// Record/Add/Set path. The registry's mutex guards registration and export
// only, so get-or-create happens at component construction, never per
// observation.
//
// Memory contract: a histogram's footprint is fixed at construction
// (`buckets` cells), independent of the number of recorded samples — this
// is what replaced ServiceMetrics' exact-retention latency vector.
// Quantiles interpolate within the containing bucket; with bucket edges
// le_i = min * growth^i the relative quantile error is bounded by
// growth - 1 (default 0.2) for values inside [min, min * growth^buckets].
// The observed max/min are tracked exactly, so Quantile(1.0) and the
// reported maximum are not subject to the bucket error.
//
// Determinism: nothing here feeds back into query execution. All recorded
// quantities are wall-clock observations outside the determinism contract,
// exactly as service/metrics.h documents for the serving layer.

#ifndef UPDB_OBS_METRICS_H_
#define UPDB_OBS_METRICS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace updb {
namespace obs {

/// Escapes a Prometheus label *value* per the text exposition format:
/// backslash -> \\, double quote -> \", newline -> \n. Use when building
/// a {label="value"} series suffix from non-literal text.
std::string EscapeLabelValue(const std::string& value);

/// Escapes text for a JSON string literal: quotes, backslashes and every
/// control byte (the admin plane's and the store's JSON reports).
std::string JsonEscape(const std::string& in);

/// Builds a labeled series key — name{k1="v1",k2="v2"} with every value
/// escaped — suitable for MetricsRegistry::Counter/Gauge/Histogram, whose
/// series keys keep the label suffix verbatim. Labels are emitted in the
/// given order; an empty list returns the bare name.
std::string LabeledSeries(
    const std::string& name,
    std::initializer_list<std::pair<const char*, std::string>> labels);

/// Monotonic counter. Add() is wait-free on x86: each thread picks one of
/// kStripes cache-line-aligned atomics by a cheap per-thread hash, so
/// concurrent recorders do not contend on one line. Value() sums the
/// stripes (racy-exact: every Add lands in exactly one stripe).
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t n = 1) {
    stripes_[StripeIndex()].value.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Stripe& s : stripes_) {
      total += s.value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 8;

  struct alignas(64) Stripe {
    std::atomic<uint64_t> value{0};
  };

  static size_t StripeIndex();

  Stripe stripes_[kStripes];
};

/// Last-write-wins instantaneous value with atomic Set/Add/SetMax.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t v) { value_.fetch_add(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if it is below (CAS loop, never lowers).
  void SetMax(int64_t v) {
    int64_t cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Bucket layout of a histogram: `buckets` cells with upper edges
/// le_i = min * growth^i for i = 1..buckets-1; cell 0 absorbs everything
/// at or below `min` and the last cell everything above the largest edge.
struct HistogramOptions {
  /// Upper edge of the first bucket. The default covers 10 microseconds
  /// when recording seconds.
  double min = 1e-5;
  /// Geometric bucket growth; the relative quantile error bound is
  /// growth - 1. Must be > 1.
  double growth = 1.2;
  /// Fixed cell count (= the histogram's entire memory footprint). The
  /// defaults span 1e-5 * 1.2^99, about 10 microseconds to 13 minutes in
  /// seconds units.
  size_t buckets = 100;
};

/// Point-in-time copy of a histogram, with quantile interpolation.
struct HistogramSnapshot {
  uint64_t count = 0;
  double sum = 0.0;
  /// Exact observed extremes (not bucket-quantized).
  double min = 0.0;
  double max = 0.0;
  /// Inclusive upper edge of each bucket; the last entry is +infinity.
  std::vector<double> upper_edges;
  std::vector<uint64_t> counts;

  double Mean() const { return count > 0 ? sum / static_cast<double>(count) : 0.0; }
  /// Quantile q in [0, 1] by rank walk + linear interpolation within the
  /// containing bucket, clamped to the exact [min, max]. 0 when empty.
  double Quantile(double q) const;
};

/// Log-bucketed bounded-memory histogram. Record() is lock-free: one
/// branchless-ish upper-edge binary search, one atomic bucket increment,
/// one atomic sum add and two CAS-loop extreme updates.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value);

  HistogramSnapshot Snapshot() const;
  const HistogramOptions& options() const { return options_; }

 private:
  const HistogramOptions options_;
  std::vector<double> upper_edges_;  // size buckets - 1; last bucket open
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> any_{false};
};

/// Named metrics, get-or-create by name (Prometheus-client style): the
/// first Counter()/Gauge()/Histogram() call for a name creates and owns
/// the metric, later calls return the same object, so components sharing a
/// registry share series. Returned pointers are stable for the registry's
/// lifetime. Names must follow Prometheus conventions
/// ([a-zA-Z_:][a-zA-Z0-9_:]*); an optional {label="value"} suffix is kept
/// verbatim as part of the series key and emitted as-is in the exposition.
///
/// Components take a MetricsRegistry* option: nullptr means "create a
/// private registry" (test isolation), while a process wires every
/// component to Default() to get one unified export.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry (what updb_cli wires everywhere).
  static MetricsRegistry& Default();

  obs::Counter* Counter(const std::string& name, const std::string& help);
  obs::Gauge* Gauge(const std::string& name, const std::string& help);
  obs::Histogram* Histogram(const std::string& name, const std::string& help,
                            HistogramOptions options = {});

  /// One JSON object keyed by series name. Counters/gauges map to their
  /// value; histograms to {count, sum, mean, min, max, p50, p95, p99}.
  std::string ToJson() const;

  /// Prometheus text exposition (# HELP / # TYPE, histogram
  /// _bucket{le=...}/_sum/_count series), sorted by series name.
  std::string ToPrometheus() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };

  struct Entry {
    Kind kind = Kind::kCounter;
    std::string help;
    std::unique_ptr<obs::Counter> counter;
    std::unique_ptr<obs::Gauge> gauge;
    std::unique_ptr<obs::Histogram> histogram;
  };

  /// Sorted (name, entry) view for the exporters; holds mu_.
  std::vector<std::pair<std::string, const Entry*>> SortedEntries() const;

  mutable std::mutex mu_;
  /// unique_ptr values keep metric addresses stable across rehashes.
  std::vector<std::pair<std::string, std::unique_ptr<Entry>>> entries_;
};

}  // namespace obs
}  // namespace updb

#endif  // UPDB_OBS_METRICS_H_
