#include "workload/generators.h"

#include <algorithm>
#include <cmath>

namespace updb {
namespace workload {

namespace {

/// Builds the PDF for one object given its uncertainty rectangle.
std::shared_ptr<const Pdf> MakeObjectPdf(const Rect& region, ObjectModel model,
                                         size_t samples_per_object, Rng& rng) {
  switch (model) {
    case ObjectModel::kUniform:
      return std::make_shared<UniformPdf>(region);
    case ObjectModel::kGaussian: {
      std::vector<double> mean(region.dim());
      std::vector<double> sigma(region.dim());
      for (size_t i = 0; i < region.dim(); ++i) {
        mean[i] = region.side(i).mid();
        // 2-sigma truncation: most of the Gaussian mass lies inside the
        // region, as after the tail-truncation preprocessing the paper
        // describes in Section I-A.
        sigma[i] = region.side(i).length() / 4.0;
      }
      // A fully degenerate region degrades to a point mass, which the
      // Gaussian model handles via sigma = 0.
      return std::make_shared<TruncatedGaussianPdf>(region, std::move(mean),
                                                    std::move(sigma));
    }
    case ObjectModel::kDiscrete: {
      UPDB_CHECK(samples_per_object >= 1);
      UniformPdf base(region);
      std::vector<Point> samples;
      samples.reserve(samples_per_object);
      for (size_t s = 0; s < samples_per_object; ++s) {
        samples.push_back(base.Sample(rng));
      }
      return std::make_shared<DiscreteSamplePdf>(std::move(samples));
    }
  }
  UPDB_CHECK(false);
  return nullptr;
}

/// Uncertainty rectangle with the given center and per-dimension extents,
/// clipped into the unit cube so datasets stay inside the data space.
Rect MakeRegion(const Point& center, const std::vector<double>& extents) {
  std::vector<Interval> sides;
  sides.reserve(center.dim());
  for (size_t i = 0; i < center.dim(); ++i) {
    const double lo = std::clamp(center[i] - 0.5 * extents[i], 0.0, 1.0);
    const double hi = std::clamp(center[i] + 0.5 * extents[i], 0.0, 1.0);
    sides.emplace_back(lo, hi);
  }
  return Rect(std::move(sides));
}

}  // namespace

UncertainDatabase MakeSyntheticDatabase(const SyntheticConfig& config) {
  UPDB_CHECK(config.dim >= 1);
  UPDB_CHECK(config.max_extent >= 0.0);
  Rng rng(config.seed);
  UncertainDatabase db;
  db.Reserve(config.num_objects);
  for (size_t n = 0; n < config.num_objects; ++n) {
    Point center(config.dim);
    std::vector<double> extents(config.dim);
    for (size_t i = 0; i < config.dim; ++i) {
      center[i] = rng.NextDouble();
      extents[i] = rng.Uniform(0.0, config.max_extent);
    }
    db.Add(MakeObjectPdf(MakeRegion(center, extents), config.model,
                         config.samples_per_object, rng));
  }
  return db;
}

UncertainDatabase MakeIipLikeDataset(const IipConfig& config) {
  UPDB_CHECK(config.num_clusters >= 1);
  Rng rng(config.seed);

  // Cluster seeds: drift corridors across the (normalized) North Atlantic
  // box. A slight bias toward the Labrador current edge (x near 0.3)
  // mimics the real sighting concentration without needing the raw data.
  std::vector<Point> seeds;
  seeds.reserve(config.num_clusters);
  for (size_t c = 0; c < config.num_clusters; ++c) {
    const double x = std::clamp(0.3 + 0.25 * rng.NextGaussian(), 0.0, 1.0);
    const double y = rng.NextDouble();
    seeds.push_back(Point{x, y});
  }

  // Staleness (days since last sighting) -> extent. Exponentially
  // distributed staleness, normalized so the maximum extent over the
  // dataset equals config.max_extent, as in Section VII.
  std::vector<double> staleness(config.num_objects);
  double max_staleness = 0.0;
  for (double& s : staleness) {
    s = rng.Exponential(1.0 / config.mean_staleness_days);
    max_staleness = std::max(max_staleness, s);
  }
  UPDB_CHECK(max_staleness > 0.0);

  UncertainDatabase db;
  for (size_t n = 0; n < config.num_objects; ++n) {
    const Point& seed = seeds[rng.NextBounded(config.num_clusters)];
    Point center{
        std::clamp(seed[0] + config.cluster_spread * rng.NextGaussian(), 0.0,
                   1.0),
        std::clamp(seed[1] + config.cluster_spread * rng.NextGaussian(), 0.0,
                   1.0)};
    const double extent =
        config.max_extent * (staleness[n] / max_staleness);
    std::vector<double> extents{extent, extent};
    db.Add(MakeObjectPdf(MakeRegion(center, extents), config.model,
                         config.samples_per_object, rng));
  }
  return db;
}

std::shared_ptr<const Pdf> MakeQueryObject(const Point& center, double extent,
                                           ObjectModel model,
                                           size_t samples_per_object,
                                           Rng& rng) {
  std::vector<double> extents(center.dim(), extent);
  return MakeObjectPdf(MakeRegion(center, extents), model, samples_per_object,
                       rng);
}

ObjectId PickByMinDistRank(const RTree& index, const Rect& r, size_t rank,
                           const LpNorm& norm) {
  UPDB_CHECK(rank >= 1 && rank <= index.size());
  ObjectId picked = kInvalidObjectId;
  size_t seen = 0;
  index.ScanByMinDist(
      r,
      [&](ObjectId id, double /*dist*/) {
        picked = id;
        return ++seen < rank;
      },
      norm);
  UPDB_CHECK(seen == rank);
  return picked;
}

}  // namespace workload
}  // namespace updb
