#include "uncertain/pdf.h"

#include <algorithm>
#include <cmath>

namespace updb {

double NormalCdf(double z) { return 0.5 * std::erfc(-z * M_SQRT1_2); }

double Pdf::ConditionalMedian(const Rect& region, size_t axis) const {
  UPDB_DCHECK(axis < region.dim());
  const double total = Mass(region);
  UPDB_DCHECK(total > 0.0);
  double lo = region.side(axis).lo();
  double hi = region.side(axis).hi();
  // Bisect the split coordinate until the lower half carries half the mass
  // (or the interval is numerically exhausted). The lower half is a
  // per-thread scratch rect: a fresh copy per call would allocate once per
  // decomposition split.
  thread_local Rect lower;
  lower = region;
  for (int iter = 0; iter < 64 && hi - lo > 0.0; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;  // numeric fixpoint
    lower.side(axis) = Interval(region.side(axis).lo(), mid);
    const double m = Mass(lower);
    if (m < 0.5 * total) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

// ---------------------------------------------------------------- Uniform

UniformPdf::UniformPdf(Rect bounds) : bounds_(std::move(bounds)) {
  UPDB_CHECK(bounds_.dim() >= 1);
}

double UniformPdf::Mass(const Rect& region) const {
  UPDB_DCHECK(region.dim() == bounds_.dim());
  double frac = 1.0;
  for (size_t i = 0; i < bounds_.dim(); ++i) {
    const Interval& b = bounds_.side(i);
    const Interval& r = region.side(i);
    if (b.degenerate()) {
      // All mass of this dimension sits on the point b.lo().
      if (!r.Contains(b.lo())) return 0.0;
      continue;
    }
    const double lo = std::max(b.lo(), r.lo());
    const double hi = std::min(b.hi(), r.hi());
    if (hi <= lo) return 0.0;
    frac *= (hi - lo) / b.length();
  }
  return frac;
}

Point UniformPdf::Sample(Rng& rng) const {
  Point p(bounds_.dim());
  for (size_t i = 0; i < bounds_.dim(); ++i) {
    p[i] = rng.Uniform(bounds_.side(i).lo(), bounds_.side(i).hi());
  }
  return p;
}

double UniformPdf::Density(const Point& p) const {
  if (!bounds_.Contains(p)) return 0.0;
  const double vol = bounds_.Volume();
  UPDB_DCHECK(vol > 0.0);  // density undefined for degenerate bounds
  return 1.0 / vol;
}

double UniformPdf::ConditionalMedian(const Rect& region, size_t axis) const {
  UPDB_DCHECK(axis < bounds_.dim());
  // Conditional on the region, the distribution along `axis` is uniform on
  // the intersection with the bounds, so the median is its midpoint.
  const Interval& b = bounds_.side(axis);
  const Interval& r = region.side(axis);
  const double lo = std::max(b.lo(), r.lo());
  const double hi = std::min(b.hi(), r.hi());
  UPDB_DCHECK(lo <= hi);
  return 0.5 * (lo + hi);
}

std::unique_ptr<Pdf> UniformPdf::Clone() const {
  return std::make_unique<UniformPdf>(bounds_);
}

// ------------------------------------------------------ TruncatedGaussian

TruncatedGaussianPdf::TruncatedGaussianPdf(Rect bounds,
                                           std::vector<double> mean,
                                           std::vector<double> sigma)
    : bounds_(std::move(bounds)),
      mean_(std::move(mean)),
      sigma_(std::move(sigma)) {
  UPDB_CHECK(bounds_.dim() == mean_.size());
  UPDB_CHECK(bounds_.dim() == sigma_.size());
  dim_norm_.resize(bounds_.dim());
  for (size_t i = 0; i < bounds_.dim(); ++i) {
    UPDB_CHECK(sigma_[i] >= 0.0);
    const Interval& b = bounds_.side(i);
    if (sigma_[i] == 0.0) {
      UPDB_CHECK(b.Contains(mean_[i]));
      dim_norm_[i] = 1.0;
    } else {
      dim_norm_[i] = DimCdf(i, b.hi()) - DimCdf(i, b.lo());
      UPDB_CHECK(dim_norm_[i] > 0.0);
    }
  }
}

double TruncatedGaussianPdf::DimCdf(size_t i, double x) const {
  return NormalCdf((x - mean_[i]) / sigma_[i]);
}

double TruncatedGaussianPdf::DimMass(size_t i, double lo, double hi) const {
  const Interval& b = bounds_.side(i);
  if (sigma_[i] == 0.0) {
    return (lo <= mean_[i] && mean_[i] <= hi) ? 1.0 : 0.0;
  }
  const double clo = std::max(lo, b.lo());
  const double chi = std::min(hi, b.hi());
  if (chi <= clo) return 0.0;
  return (DimCdf(i, chi) - DimCdf(i, clo)) / dim_norm_[i];
}

double TruncatedGaussianPdf::Mass(const Rect& region) const {
  UPDB_DCHECK(region.dim() == bounds_.dim());
  double mass = 1.0;
  for (size_t i = 0; i < bounds_.dim(); ++i) {
    mass *= DimMass(i, region.side(i).lo(), region.side(i).hi());
    if (mass == 0.0) return 0.0;
  }
  return mass;
}

Point TruncatedGaussianPdf::Sample(Rng& rng) const {
  Point p(bounds_.dim());
  for (size_t i = 0; i < bounds_.dim(); ++i) {
    const Interval& b = bounds_.side(i);
    if (sigma_[i] == 0.0) {
      p[i] = mean_[i];
      continue;
    }
    // Inverse-CDF sampling restricted to the truncation interval, by
    // bisection on the monotone per-dimension CDF.
    const double target =
        DimCdf(i, b.lo()) + rng.NextDouble() * dim_norm_[i];
    double lo = b.lo(), hi = b.hi();
    for (int iter = 0; iter < 64 && hi - lo > 0.0; ++iter) {
      const double mid = 0.5 * (lo + hi);
      if (mid <= lo || mid >= hi) break;
      if (DimCdf(i, mid) < target) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    p[i] = 0.5 * (lo + hi);
  }
  return p;
}

double TruncatedGaussianPdf::Density(const Point& p) const {
  if (!bounds_.Contains(p)) return 0.0;
  double d = 1.0;
  for (size_t i = 0; i < bounds_.dim(); ++i) {
    UPDB_DCHECK(sigma_[i] > 0.0);  // no density for degenerate dims
    const double z = (p[i] - mean_[i]) / sigma_[i];
    d *= std::exp(-0.5 * z * z) /
         (sigma_[i] * std::sqrt(2.0 * M_PI) * dim_norm_[i]);
  }
  return d;
}

double TruncatedGaussianPdf::ConditionalMedian(const Rect& region,
                                               size_t axis) const {
  UPDB_DCHECK(axis < bounds_.dim());
  if (sigma_[axis] == 0.0) return mean_[axis];
  // Direct 1-d bisection on the per-dimension CDF — cheaper and more
  // accurate than the generic multi-dimensional Mass() bisection.
  const Interval& b = bounds_.side(axis);
  const Interval& r = region.side(axis);
  double lo = std::max(b.lo(), r.lo());
  double hi = std::min(b.hi(), r.hi());
  UPDB_DCHECK(lo <= hi);
  const double target = 0.5 * (DimCdf(axis, lo) + DimCdf(axis, hi));
  for (int iter = 0; iter < 64 && hi - lo > 0.0; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    if (DimCdf(axis, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

std::unique_ptr<Pdf> TruncatedGaussianPdf::Clone() const {
  return std::make_unique<TruncatedGaussianPdf>(bounds_, mean_, sigma_);
}

// ---------------------------------------------------------------- Mixture

MixturePdf::MixturePdf(std::vector<std::unique_ptr<Pdf>> components,
                       std::vector<double> weights)
    : components_(std::move(components)), weights_(std::move(weights)) {
  UPDB_CHECK(!components_.empty());
  UPDB_CHECK(components_.size() == weights_.size());
  double total = 0.0;
  for (double w : weights_) {
    UPDB_CHECK(w > 0.0);
    total += w;
  }
  // An overflowed sum would normalize every weight to 0.
  UPDB_CHECK(std::isfinite(total));
  for (double& w : weights_) w /= total;
  bounds_ = components_[0]->bounds();
  for (size_t i = 1; i < components_.size(); ++i) {
    UPDB_CHECK(components_[i]->bounds().dim() == bounds_.dim());
    bounds_ = Rect::Hull(bounds_, components_[i]->bounds());
  }
}

double MixturePdf::Mass(const Rect& region) const {
  double m = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    m += weights_[i] * components_[i]->Mass(region);
  }
  return m;
}

Point MixturePdf::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  for (size_t i = 0; i < components_.size(); ++i) {
    if (u < weights_[i] || i + 1 == components_.size()) {
      return components_[i]->Sample(rng);
    }
    u -= weights_[i];
  }
  return components_.back()->Sample(rng);  // unreachable
}

double MixturePdf::Density(const Point& p) const {
  double d = 0.0;
  for (size_t i = 0; i < components_.size(); ++i) {
    d += weights_[i] * components_[i]->Density(p);
  }
  return d;
}

std::unique_ptr<Pdf> MixturePdf::Clone() const {
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.reserve(components_.size());
  for (const auto& c : components_) comps.push_back(c->Clone());
  return std::make_unique<MixturePdf>(std::move(comps), weights_);
}

// ----------------------------------------------------------- Discrete

DiscreteSamplePdf::DiscreteSamplePdf(std::vector<Point> samples)
    : DiscreteSamplePdf(std::move(samples), {}) {}

DiscreteSamplePdf::DiscreteSamplePdf(std::vector<Point> samples,
                                     std::vector<double> weights)
    : samples_(std::move(samples)), weights_(std::move(weights)) {
  UPDB_CHECK(!samples_.empty());
  if (weights_.empty()) {
    weights_.assign(samples_.size(), 1.0 / static_cast<double>(samples_.size()));
  } else {
    UPDB_CHECK(weights_.size() == samples_.size());
    double total = 0.0;
    for (double w : weights_) {
      UPDB_CHECK(w > 0.0);
      total += w;
    }
    // An overflowed sum would normalize every weight to 0.
    UPDB_CHECK(std::isfinite(total));
    for (double& w : weights_) w /= total;
  }
  bounds_ = Rect::FromPoint(samples_[0]);
  for (size_t i = 1; i < samples_.size(); ++i) {
    UPDB_CHECK(samples_[i].dim() == bounds_.dim());
    bounds_ = Rect::Hull(bounds_, Rect::FromPoint(samples_[i]));
  }
}

bool DiscreteSamplePdf::InRegion(const Point& p, const Rect& region) const {
  return region.Contains(p);
}

double DiscreteSamplePdf::Mass(const Rect& region) const {
  UPDB_DCHECK(region.dim() == bounds_.dim());
  double m = 0.0;
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (InRegion(samples_[i], region)) m += weights_[i];
  }
  return m;
}

Point DiscreteSamplePdf::Sample(Rng& rng) const {
  double u = rng.NextDouble();
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (u < weights_[i] || i + 1 == samples_.size()) return samples_[i];
    u -= weights_[i];
  }
  return samples_.back();  // unreachable
}

double DiscreteSamplePdf::ConditionalMedian(const Rect& region,
                                            size_t axis) const {
  // Weighted median coordinate of the samples inside the region, then
  // moved to the midpoint toward the adjacent distinct coordinate so the
  // split plane never carries a sample. The (coordinate, weight) list is a
  // per-thread scratch that keeps its capacity across calls.
  thread_local std::vector<std::pair<double, double>> coord_weight;
  coord_weight.clear();
  for (size_t i = 0; i < samples_.size(); ++i) {
    if (InRegion(samples_[i], region)) {
      coord_weight.emplace_back(samples_[i][axis], weights_[i]);
    }
  }
  UPDB_DCHECK(!coord_weight.empty());
  std::sort(coord_weight.begin(), coord_weight.end());
  double total = 0.0;
  for (const auto& [c, w] : coord_weight) total += w;
  double median = coord_weight.back().first;
  double acc = 0.0;
  for (const auto& [c, w] : coord_weight) {
    acc += w;
    if (acc >= 0.5 * total) {
      median = c;
      break;
    }
  }
  // Adjacent distinct coordinate above the median (prefer splitting the
  // upper gap; if the median is the maximum, split the gap below).
  for (const auto& entry : coord_weight) {
    if (entry.first > median) return 0.5 * (median + entry.first);
  }
  for (auto it = coord_weight.rbegin(); it != coord_weight.rend(); ++it) {
    if (it->first < median) return 0.5 * (median + it->first);
  }
  return median;  // single distinct coordinate: caller's split will fail
}

void DiscreteSamplePdf::ShrinkToSupport(Rect& region) const {
  // Every sample is tested against the region as given, so the hull grows
  // in a per-thread scratch box and replaces the sides at the end.
  thread_local std::vector<Interval> hull;
  hull.clear();
  for (const Point& p : samples_) {
    if (!InRegion(p, region)) continue;
    if (hull.empty()) {
      for (size_t i = 0; i < p.dim(); ++i) {
        hull.push_back(Interval::FromPoint(p[i]));
      }
      continue;
    }
    for (size_t i = 0; i < p.dim(); ++i) {
      hull[i] = Interval::Hull(hull[i], Interval::FromPoint(p[i]));
    }
  }
  if (!hull.empty()) region.Assign(hull);
}

std::unique_ptr<Pdf> DiscreteSamplePdf::Clone() const {
  return std::make_unique<DiscreteSamplePdf>(samples_, weights_);
}

}  // namespace updb
