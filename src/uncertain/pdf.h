// Copyright 2026 The updb Authors.
// Probability density models for uncertain attributes (Definition 1 of the
// paper). Every PDF is bounded by a rectangular uncertainty region
// (Section I-A): f(x) = 0 outside bounds() and the total mass inside is 1.
//
// The decomposition machinery (Section V) only needs three capabilities
// from a PDF: the bounding rect, the probability mass of a sub-rectangle,
// and a conditional median along an axis (for median splits). Sampling
// supports the Monte-Carlo comparison partner and the test suite.

#ifndef UPDB_UNCERTAIN_PDF_H_
#define UPDB_UNCERTAIN_PDF_H_

#include <memory>
#include <vector>

#include "common/random.h"
#include "geom/rect.h"

namespace updb {

/// Abstract bounded multi-dimensional probability density.
///
/// Mass() treats regions as closed rectangles. For discrete models a
/// sample lying exactly on a shared boundary of two query regions would be
/// counted by both; the decomposition machinery avoids this by always
/// splitting strictly between distinct sample coordinates (see
/// DiscreteSamplePdf::ConditionalMedian) and by shrinking subregions to
/// their support (ShrinkToSupport). Continuous models are indifferent
/// (boundaries carry zero mass).
///
/// ConditionalMedian and ShrinkToSupport run once per decomposition split
/// and allocate nothing once their per-thread scratch has grown, so IDCA's
/// refinement loop stays off the heap.
class Pdf {
 public:
  virtual ~Pdf() = default;

  /// Minimal bounding rectangle of the support (the uncertainty region).
  virtual const Rect& bounds() const = 0;

  /// P(X in region). `region` need not be contained in bounds(); mass
  /// outside the bounds is zero. Result is within [0, 1].
  virtual double Mass(const Rect& region) const = 0;

  /// Draws one realization of the object.
  virtual Point Sample(Rng& rng) const = 0;

  /// Density at `p`. Discrete models return 0 (no density exists); the
  /// value is used only by tests and diagnostics, never by the algorithms.
  virtual double Density(const Point& p) const = 0;

  /// Coordinate m on `axis` such that the mass of `region` restricted to
  /// {x : x_axis <= m} is (approximately) half of Mass(region). Requires
  /// Mass(region) > 0. The default implementation bisects on Mass() over
  /// a per-thread scratch copy of `region`.
  virtual double ConditionalMedian(const Rect& region, size_t axis) const;

  /// Shrinks `region` in place to the minimal bounding rectangle of the
  /// support inside it — the tightest region that still carries
  /// Mass(region). The decomposition shrinks every partition this way,
  /// which is what lets bounds on discrete objects converge to the exact
  /// result. Default: leaves `region` as it is (correct for continuous
  /// models with full support).
  virtual void ShrinkToSupport(Rect& /*region*/) const {}

  /// Deep copy.
  virtual std::unique_ptr<Pdf> Clone() const = 0;
};

/// Uniform distribution over its bounding rectangle. Degenerate
/// (zero-length) sides are allowed and concentrate mass on the slab.
class UniformPdf final : public Pdf {
 public:
  /// Requires a non-empty rect (dim >= 1).
  explicit UniformPdf(Rect bounds);

  const Rect& bounds() const override { return bounds_; }
  double Mass(const Rect& region) const override;
  Point Sample(Rng& rng) const override;
  double Density(const Point& p) const override;
  double ConditionalMedian(const Rect& region, size_t axis) const override;
  std::unique_ptr<Pdf> Clone() const override;

 private:
  Rect bounds_;
};

/// Axis-independent Gaussian truncated to (and renormalized within) a
/// bounding rectangle — the model used for the IIP iceberg objects in the
/// paper's real-data experiments.
class TruncatedGaussianPdf final : public Pdf {
 public:
  /// Gaussian with the given per-dimension means and standard deviations,
  /// truncated to `bounds`. Requires sigma[i] >= 0; sigma[i] == 0 forces a
  /// degenerate (point-mass) dimension whose bound side must contain
  /// mean[i]. Requires the truncated mass to be positive.
  TruncatedGaussianPdf(Rect bounds, std::vector<double> mean,
                       std::vector<double> sigma);

  const Rect& bounds() const override { return bounds_; }
  double Mass(const Rect& region) const override;
  Point Sample(Rng& rng) const override;
  double Density(const Point& p) const override;
  double ConditionalMedian(const Rect& region, size_t axis) const override;
  std::unique_ptr<Pdf> Clone() const override;

  /// Per-dimension means / standard deviations of the untruncated
  /// Gaussian (exposed for serialization and diagnostics).
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& sigma() const { return sigma_; }

 private:
  /// Untruncated per-dimension CDF at x.
  double DimCdf(size_t i, double x) const;
  /// Per-dimension truncated mass of [lo, hi] intersected with the bound.
  double DimMass(size_t i, double lo, double hi) const;

  Rect bounds_;
  std::vector<double> mean_;
  std::vector<double> sigma_;
  std::vector<double> dim_norm_;  // per-dim truncation normalizer
};

/// Convex mixture of component PDFs (models multi-modal / correlated
/// uncertainty; Section I-A allows arbitrary bounded PDFs).
class MixturePdf final : public Pdf {
 public:
  /// Requires at least one component, matching dimensions, and positive
  /// weights with a finite sum. Weights are normalized to sum to 1.
  MixturePdf(std::vector<std::unique_ptr<Pdf>> components,
             std::vector<double> weights);

  const Rect& bounds() const override { return bounds_; }
  double Mass(const Rect& region) const override;
  Point Sample(Rng& rng) const override;
  double Density(const Point& p) const override;
  std::unique_ptr<Pdf> Clone() const override;

  size_t num_components() const { return components_.size(); }

  /// Component PDFs / normalized weights (exposed for serialization and
  /// diagnostics, mirroring TruncatedGaussianPdf::mean()/sigma()).
  const std::vector<std::unique_ptr<Pdf>>& components() const {
    return components_;
  }
  const std::vector<double>& weights() const { return weights_; }

 private:
  std::vector<std::unique_ptr<Pdf>> components_;
  std::vector<double> weights_;  // normalized
  Rect bounds_;
};

/// Discrete distribution given by weighted sample points — the paper's
/// discrete uncertainty model ("a finite number of alternatives assigned
/// with probabilities", Section I-A), and the model the experiments use for
/// a fair comparison against the Monte-Carlo partner (1000 samples/object).
class DiscreteSamplePdf final : public Pdf {
 public:
  /// Uniformly weighted samples. Requires at least one sample.
  explicit DiscreteSamplePdf(std::vector<Point> samples);

  /// Weighted samples. Requires matching sizes and positive weights with a
  /// finite sum; weights are normalized to sum to 1.
  DiscreteSamplePdf(std::vector<Point> samples, std::vector<double> weights);

  const Rect& bounds() const override { return bounds_; }
  double Mass(const Rect& region) const override;
  Point Sample(Rng& rng) const override;
  double Density(const Point& /*p*/) const override { return 0.0; }

  /// Returns a coordinate strictly *between* distinct sample coordinates,
  /// adjacent to the weighted median — so splitting there never places a
  /// sample on a region boundary. Falls back to the median coordinate
  /// itself when the region holds a single distinct coordinate.
  double ConditionalMedian(const Rect& region, size_t axis) const override;

  /// Shrinks `region` to the MBR of the samples inside it; a region
  /// holding no sample stays as it is.
  void ShrinkToSupport(Rect& region) const override;

  std::unique_ptr<Pdf> Clone() const override;

  const std::vector<Point>& samples() const { return samples_; }
  const std::vector<double>& weights() const { return weights_; }

 private:
  bool InRegion(const Point& p, const Rect& region) const;

  std::vector<Point> samples_;
  std::vector<double> weights_;  // normalized
  Rect bounds_;
};

/// Standard normal CDF (exposed for tests of the Gaussian model).
double NormalCdf(double z);

}  // namespace updb

#endif  // UPDB_UNCERTAIN_PDF_H_
