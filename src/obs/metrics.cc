#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>

namespace updb {
namespace obs {

namespace {

/// Appends printf-formatted text to `out` (metric values are short).
template <typename... Args>
void Appendf(std::string& out, const char* fmt, Args... args) {
  char buf[192];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  out += buf;
}

/// Splits "name{label=...}" into the bare name and the label suffix (empty
/// when the series carries no labels).
void SplitSeries(const std::string& series, std::string* name,
                 std::string* labels) {
  const size_t brace = series.find('{');
  if (brace == std::string::npos) {
    *name = series;
    labels->clear();
  } else {
    *name = series.substr(0, brace);
    *labels = series.substr(brace);
  }
}

/// "name{le="0.1"}" — merges a histogram bucket label into an existing
/// label set when the series already has one.
std::string BucketSeries(const std::string& name, const std::string& labels,
                         const std::string& le) {
  if (labels.empty()) return name + "_bucket{le=\"" + le + "\"}";
  std::string merged = labels;
  merged.insert(merged.size() - 1, ",le=\"" + le + "\"");
  return name + "_bucket" + merged;
}

/// Escapes HELP text per the exposition format: only backslash and
/// newline (double quotes are legal in HELP, unlike in label values).
std::string EscapeHelp(const std::string& help) {
  std::string out;
  out.reserve(help.size());
  for (const char c : help) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (const char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string LabeledSeries(
    const std::string& name,
    std::initializer_list<std::pair<const char*, std::string>> labels) {
  if (labels.size() == 0) return name;
  std::string out = name + "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key;
    out += "=\"" + EscapeLabelValue(value) + "\"";
  }
  out += "}";
  return out;
}

size_t Counter::StripeIndex() {
  // One atomic fetch_add per thread lifetime; the stripe choice itself
  // never changes afterwards.
  static std::atomic<size_t> next{0};
  thread_local const size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

namespace {

/// Degenerate layouts collapse to a sane default rather than asserting:
/// the histogram is telemetry, never control flow.
HistogramOptions SanitizeHistogramOptions(HistogramOptions o) {
  if (o.buckets < 1) o.buckets = 1;
  if (o.growth <= 1.0) o.growth = 2.0;
  if (o.min <= 0.0) o.min = 1e-9;
  return o;
}

}  // namespace

Histogram::Histogram(HistogramOptions options)
    : options_(SanitizeHistogramOptions(options)) {
  upper_edges_.reserve(options_.buckets - 1);
  double edge = options_.min;
  for (size_t i = 0; i + 1 < options_.buckets; ++i) {
    upper_edges_.push_back(edge);
    edge *= options_.growth;
  }
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(options_.buckets);
  for (size_t i = 0; i < options_.buckets; ++i) counts_[i].store(0);
}

void Histogram::Record(double value) {
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(upper_edges_.begin(), upper_edges_.end(), value) -
      upper_edges_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  if (!any_.exchange(true, std::memory_order_relaxed)) {
    // First recorder seeds both extremes; racers fall through to the CAS
    // loops below, which only ever tighten.
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (value < lo && !min_.compare_exchange_weak(
                           lo, value, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (value > hi && !max_.compare_exchange_weak(
                           hi, value, std::memory_order_relaxed)) {
  }
}

HistogramSnapshot Histogram::Snapshot() const {
  HistogramSnapshot s;
  s.counts.reserve(options_.buckets);
  for (size_t i = 0; i < options_.buckets; ++i) {
    s.counts.push_back(counts_[i].load(std::memory_order_relaxed));
  }
  s.count = count_.load(std::memory_order_relaxed);
  s.sum = sum_.load(std::memory_order_relaxed);
  if (any_.load(std::memory_order_relaxed)) {
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
  }
  s.upper_edges = upper_edges_;
  s.upper_edges.push_back(std::numeric_limits<double>::infinity());
  return s;
}

double HistogramSnapshot::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::min(std::max(q, 0.0), 1.0);
  // Nearest-rank walk over the cumulative counts.
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(count) + 0.5));
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    if (seen + counts[i] < rank) {
      seen += counts[i];
      continue;
    }
    // Interpolate within bucket i between its lower and upper edge; the
    // open-ended extremes fall back to the exactly-tracked min/max.
    const double lo = i == 0 ? min : upper_edges[i - 1];
    const double hi =
        i + 1 == counts.size() ? max : std::min(upper_edges[i], max);
    const double frac = static_cast<double>(rank - seen) /
                        static_cast<double>(counts[i]);
    const double v = lo + (hi - lo) * frac;
    return std::min(std::max(v, min), max);
  }
  return max;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter* MetricsRegistry::Counter(const std::string& name,
                                  const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, e] : entries_) {
    if (n == name && e->kind == Kind::kCounter) return e->counter.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kCounter;
  entry->help = help;
  entry->counter = std::make_unique<obs::Counter>();
  obs::Counter* out = entry->counter.get();
  entries_.emplace_back(name, std::move(entry));
  return out;
}

Gauge* MetricsRegistry::Gauge(const std::string& name,
                              const std::string& help) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, e] : entries_) {
    if (n == name && e->kind == Kind::kGauge) return e->gauge.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kGauge;
  entry->help = help;
  entry->gauge = std::make_unique<obs::Gauge>();
  obs::Gauge* out = entry->gauge.get();
  entries_.emplace_back(name, std::move(entry));
  return out;
}

Histogram* MetricsRegistry::Histogram(const std::string& name,
                                      const std::string& help,
                                      HistogramOptions options) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [n, e] : entries_) {
    if (n == name && e->kind == Kind::kHistogram) return e->histogram.get();
  }
  auto entry = std::make_unique<Entry>();
  entry->kind = Kind::kHistogram;
  entry->help = help;
  entry->histogram = std::make_unique<obs::Histogram>(options);
  obs::Histogram* out = entry->histogram.get();
  entries_.emplace_back(name, std::move(entry));
  return out;
}

std::vector<std::pair<std::string, const MetricsRegistry::Entry*>>
MetricsRegistry::SortedEntries() const {
  std::vector<std::pair<std::string, const Entry*>> sorted;
  sorted.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    sorted.emplace_back(name, entry.get());
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return sorted;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{";
  bool first = true;
  for (const auto& [name, entry] : SortedEntries()) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": ";
    switch (entry->kind) {
      case Kind::kCounter:
        Appendf(out, "%llu",
                static_cast<unsigned long long>(entry->counter->Value()));
        break;
      case Kind::kGauge:
        Appendf(out, "%lld", static_cast<long long>(entry->gauge->Value()));
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot s = entry->histogram->Snapshot();
        Appendf(out,
                "{\"count\": %llu, \"sum\": %.6g, \"mean\": %.6g, "
                "\"min\": %.6g, \"max\": %.6g, \"p50\": %.6g, "
                "\"p95\": %.6g, \"p99\": %.6g}",
                static_cast<unsigned long long>(s.count), s.sum, s.Mean(),
                s.min, s.max, s.Quantile(0.50), s.Quantile(0.95),
                s.Quantile(0.99));
        break;
      }
    }
  }
  out += "}";
  return out;
}

std::string MetricsRegistry::ToPrometheus() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Group by bare metric name first: labeled series of one family
  // ("foo{a=..}", "foo{b=..}") must share a single # HELP/# TYPE pair —
  // repeating them per series is a spec violation scrapers reject.
  std::vector<std::pair<std::string, const Entry*>> sorted = SortedEntries();
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     std::string an, al, bn, bl;
                     SplitSeries(a.first, &an, &al);
                     SplitSeries(b.first, &bn, &bl);
                     return an != bn ? an < bn : al < bl;
                   });
  std::string out;
  std::string last_family;
  for (const auto& [series, entry] : sorted) {
    std::string name, labels;
    SplitSeries(series, &name, &labels);
    if (name != last_family) {
      last_family = name;
      out += "# HELP " + name + " " + EscapeHelp(entry->help) + "\n";
      switch (entry->kind) {
        case Kind::kCounter:
          out += "# TYPE " + name + " counter\n";
          break;
        case Kind::kGauge:
          out += "# TYPE " + name + " gauge\n";
          break;
        case Kind::kHistogram:
          out += "# TYPE " + name + " histogram\n";
          break;
      }
    }
    switch (entry->kind) {
      case Kind::kCounter:
        Appendf(out, "%s %llu\n", series.c_str(),
                static_cast<unsigned long long>(entry->counter->Value()));
        break;
      case Kind::kGauge:
        Appendf(out, "%s %lld\n", series.c_str(),
                static_cast<long long>(entry->gauge->Value()));
        break;
      case Kind::kHistogram: {
        const HistogramSnapshot s = entry->histogram->Snapshot();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < s.counts.size(); ++i) {
          cumulative += s.counts[i];
          char le[48];
          if (i + 1 == s.counts.size()) {
            std::snprintf(le, sizeof(le), "+Inf");
          } else {
            std::snprintf(le, sizeof(le), "%.6g", s.upper_edges[i]);
          }
          Appendf(out, "%s %llu\n", BucketSeries(name, labels, le).c_str(),
                  static_cast<unsigned long long>(cumulative));
        }
        Appendf(out, "%s_sum%s %.6g\n", name.c_str(), labels.c_str(), s.sum);
        Appendf(out, "%s_count%s %llu\n", name.c_str(), labels.c_str(),
                static_cast<unsigned long long>(s.count));
        break;
      }
    }
  }
  return out;
}

}  // namespace obs
}  // namespace updb
