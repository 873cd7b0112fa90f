#include "io/dataset_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "core/idca.h"
#include "workload/generators.h"

namespace updb {
namespace {

using io::LoadDatabase;
using io::ParseObject;
using io::SaveDatabase;
using io::SerializeObject;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(SerializeObjectTest, UniformRoundTrip) {
  UncertainObject o(0,
                    std::make_shared<UniformPdf>(
                        Rect(Point{0.25, 0.5}, Point{0.75, 1.0})),
                    0.8);
  const StatusOr<std::string> line = SerializeObject(o);
  ASSERT_TRUE(line.ok());
  const StatusOr<io::ParsedObject> parsed = ParseObject(*line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->existence, 0.8);
  EXPECT_EQ(parsed->pdf->bounds(), o.mbr());
  EXPECT_NE(dynamic_cast<const UniformPdf*>(parsed->pdf.get()), nullptr);
}

TEST(SerializeObjectTest, GaussianRoundTripPreservesMass) {
  auto pdf = std::make_shared<TruncatedGaussianPdf>(
      Rect(Point{0.0, 0.0}, Point{1.0, 1.0}), std::vector<double>{0.4, 0.6},
      std::vector<double>{0.2, 0.1});
  UncertainObject o(0, pdf);
  const StatusOr<std::string> line = SerializeObject(o);
  ASSERT_TRUE(line.ok());
  const StatusOr<io::ParsedObject> parsed = ParseObject(*line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Same mass on a probe region.
  const Rect probe(Point{0.2, 0.3}, Point{0.7, 0.9});
  EXPECT_NEAR(parsed->pdf->Mass(probe), pdf->Mass(probe), 1e-12);
}

TEST(SerializeObjectTest, DiscreteRoundTripPreservesSamples) {
  auto pdf = std::make_shared<DiscreteSamplePdf>(
      std::vector<Point>{Point{0.1, 0.2}, Point{0.3, 0.4}},
      std::vector<double>{1.0, 3.0});
  UncertainObject o(0, pdf);
  const StatusOr<std::string> line = SerializeObject(o);
  ASSERT_TRUE(line.ok());
  const StatusOr<io::ParsedObject> parsed = ParseObject(*line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto* d = dynamic_cast<const DiscreteSamplePdf*>(parsed->pdf.get());
  ASSERT_NE(d, nullptr);
  ASSERT_EQ(d->samples().size(), 2u);
  EXPECT_EQ(d->samples()[1], (Point{0.3, 0.4}));
  EXPECT_DOUBLE_EQ(d->weights()[1], 0.75);
}

TEST(SerializeObjectTest, MixtureRoundTripPreservesMass) {
  // Bimodal mixture: a uniform mode, a Gaussian mode, and a discrete mode
  // — one of each serializable component type.
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.0}, Point{0.4, 0.4})));
  comps.push_back(std::make_unique<TruncatedGaussianPdf>(
      Rect(Point{0.6, 0.6}, Point{1.0, 1.0}), std::vector<double>{0.8, 0.7},
      std::vector<double>{0.1, 0.05}));
  comps.push_back(std::make_unique<DiscreteSamplePdf>(
      std::vector<Point>{Point{0.5, 0.5}, Point{0.55, 0.52}},
      std::vector<double>{2.0, 1.0}));
  auto pdf = std::make_shared<MixturePdf>(std::move(comps),
                                          std::vector<double>{0.5, 0.3, 0.2});
  UncertainObject o(0, pdf, 0.9);
  const StatusOr<std::string> line = SerializeObject(o);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  const StatusOr<io::ParsedObject> parsed = ParseObject(*line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->existence, 0.9);
  const auto* m = dynamic_cast<const MixturePdf*>(parsed->pdf.get());
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->num_components(), 3u);
  EXPECT_EQ(parsed->pdf->bounds(), pdf->bounds());
  for (const Rect& probe :
       {Rect(Point{0.0, 0.0}, Point{0.5, 0.5}),
        Rect(Point{0.5, 0.5}, Point{1.0, 1.0}),
        Rect(Point{0.2, 0.3}, Point{0.7, 0.9})}) {
    EXPECT_NEAR(parsed->pdf->Mass(probe), pdf->Mass(probe), 1e-12);
  }
}

TEST(SerializeObjectTest, NestedMixtureRoundTrips) {
  std::vector<std::unique_ptr<Pdf>> inner;
  inner.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.0}, Point{0.2, 0.2})));
  inner.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.3, 0.3}, Point{0.5, 0.5})));
  std::vector<std::unique_ptr<Pdf>> outer;
  outer.push_back(std::make_unique<MixturePdf>(std::move(inner),
                                               std::vector<double>{1.0, 3.0}));
  outer.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.8, 0.8}, Point{1.0, 1.0})));
  auto pdf = std::make_shared<MixturePdf>(std::move(outer),
                                          std::vector<double>{0.6, 0.4});
  UncertainObject o(0, pdf);
  const StatusOr<std::string> line = SerializeObject(o);
  ASSERT_TRUE(line.ok()) << line.status().ToString();
  const StatusOr<io::ParsedObject> parsed = ParseObject(*line);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const Rect probe(Point{0.25, 0.25}, Point{0.9, 0.9});
  EXPECT_NEAR(parsed->pdf->Mass(probe), pdf->Mass(probe), 1e-12);
}

TEST(SerializeObjectTest, OverDeepMixtureFailsAtSaveTime) {
  // Deeper than the parser's nesting limit: serialization must refuse,
  // never produce a line LoadDatabase would reject.
  auto pdf = std::unique_ptr<Pdf>(std::make_unique<UniformPdf>(
      Rect(Point{0.0, 0.0}, Point{1.0, 1.0})));
  for (int level = 0; level < 20; ++level) {
    std::vector<std::unique_ptr<Pdf>> comps;
    comps.push_back(std::move(pdf));
    pdf = std::make_unique<MixturePdf>(std::move(comps),
                                       std::vector<double>{1.0});
  }
  UncertainObject o(0, std::shared_ptr<const Pdf>(std::move(pdf)));
  const StatusOr<std::string> line = SerializeObject(o);
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kUnimplemented);
}

TEST(DatabaseIoTest, MixtureDatabaseRoundTripsThroughFile) {
  UncertainDatabase db;
  std::vector<std::unique_ptr<Pdf>> comps;
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.1, 0.1}, Point{0.3, 0.3})));
  comps.push_back(std::make_unique<UniformPdf>(
      Rect(Point{0.6, 0.6}, Point{0.9, 0.9})));
  db.Add(std::make_shared<MixturePdf>(std::move(comps),
                                      std::vector<double>{1.0, 1.0}),
         0.75);
  db.Add(std::make_shared<UniformPdf>(Rect(Point{0.0, 0.0}, Point{1.0, 1.0})));
  const std::string path = TempPath("mixture.updb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  const StatusOr<UncertainDatabase> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_NE(dynamic_cast<const MixturePdf*>(&loaded->object(0).pdf()),
            nullptr);
  EXPECT_DOUBLE_EQ(loaded->object(0).existence(), 0.75);
  EXPECT_EQ(loaded->object(0).mbr(), db.object(0).mbr());
  std::remove(path.c_str());
}

TEST(ParseObjectTest, RejectsMalformedInput) {
  struct Case {
    const char* line;
    const char* why;
  };
  const Case cases[] = {
      {"", "empty"},
      {"bogus,1,2,0,1,0,1", "unknown type"},
      {"uniform,1,2,0,1,0", "missing field"},
      {"uniform,1,2,0,1,0,1,9", "trailing field"},
      {"uniform,0,2,0,1,0,1", "existence 0"},
      {"uniform,1.5,2,0,1,0,1", "existence > 1"},
      {"uniform,1,0", "dimension 0"},
      {"uniform,1,2,1,0,0,1", "lo > hi"},
      {"uniform,1,2,x,1,0,1", "non-numeric"},
      {"gaussian,1,1,0,1,0.5,-0.1", "negative sigma"},
      {"discrete,1,2,0", "no samples"},
      {"discrete,1,2,2,0.5,0.1,0.2", "field count mismatch"},
      {"discrete,1,1,1,-1,0.5", "negative weight"},
      {"mixture,1,2,0", "no components"},
      {"mixture,1,2,1,0.5", "missing component type"},
      {"mixture,1,2,1,-1,uniform,0,1,0,1", "negative component weight"},
      {"mixture,1,2,1,1,bogus,0,1", "unknown component type"},
      {"mixture,1,2,1,1,uniform,0,1,0,1,9", "trailing component field"},
      {"discrete,1,2,99999999999,0.5,0.1,0.2", "hostile sample count"},
      {"mixture,1,2,99999999999,1,uniform,0,1,0,1", "hostile component count"},
      // strtod parses "nan" and "inf"; no field may be non-finite (the
      // NaN-sigma Gaussian used to abort in the PDF constructor).
      {"uniform,nan,2,0,1,0,1", "NaN existence"},
      {"uniform,1,2,-inf,inf,0,1", "infinite extent"},
      {"gaussian,1,1,0,1,nan,0.1", "NaN mean"},
      {"gaussian,1,1,0,1,0.5,inf", "infinite sigma"},
      {"discrete,1,1,1,nan,0.5", "NaN weight"},
      {"mixture,1,1,1,1,uniform,0,infinity", "infinite component bound"},
      // A dimension beyond the field count used to size an allocation
      // before any field was read: std::bad_alloc at 10^12, and
      // std::length_error at 2^62.
      {"uniform,1,1000000000000,0,1", "huge dimension"},
      {"uniform,1,4611686018427387904,0,1", "dimension 2^62"},
      {"gaussian,1,1000000000000,0,1,0.5,0.1", "huge gaussian dimension"},
      // Finite weights whose sum overflows normalize to 0 and would be
      // written back as non-positive weights; one that underflows against
      // the sum would too.
      {"discrete,1,1,2,1e308,0.1,1e308,0.2", "discrete weight sum overflows"},
      {"mixture,1,1,2,1e308,uniform,0,1,1e308,uniform,2,3",
       "mixture weight sum overflows"},
      {"discrete,1,1,2,1e300,0.1,1e-300,0.2", "discrete weight vanishes"},
  };
  for (const Case& c : cases) {
    const StatusOr<io::ParsedObject> parsed = ParseObject(c.line);
    EXPECT_FALSE(parsed.ok()) << c.why;
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
          << c.why;
    }
  }
}

TEST(SerializeObjectTest, RefusesNonFiniteFields) {
  // Anything SerializeObject writes must parse back; a non-finite field
  // would not, so it is refused at write time.
  const double inf = std::numeric_limits<double>::infinity();
  const UncertainObject infinite_extent(
      0,
      std::make_shared<UniformPdf>(Rect(Point{0.0, -inf}, Point{1.0, inf})));
  const StatusOr<std::string> line = SerializeObject(infinite_extent);
  ASSERT_FALSE(line.ok());
  EXPECT_EQ(line.status().code(), StatusCode::kInvalidArgument);

  UncertainDatabase db;
  db.Add(std::make_shared<UniformPdf>(Rect(Point{0.0, 0.0}, Point{1.0, 1.0})));
  db.Add(infinite_extent.shared_pdf());
  const std::string path = TempPath("nonfinite_save.updb");
  EXPECT_EQ(SaveDatabase(db, path).code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DatabaseIoTest, SaveLoadRoundTrip) {
  workload::SyntheticConfig cfg;
  cfg.num_objects = 50;
  cfg.model = workload::ObjectModel::kDiscrete;
  cfg.samples_per_object = 8;
  const UncertainDatabase db = workload::MakeSyntheticDatabase(cfg);
  const std::string path = TempPath("roundtrip.updb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  const StatusOr<UncertainDatabase> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), db.size());
  for (size_t i = 0; i < db.size(); ++i) {
    EXPECT_EQ(loaded->object(i).mbr(), db.object(i).mbr()) << "i=" << i;
    EXPECT_DOUBLE_EQ(loaded->object(i).existence(),
                     db.object(i).existence());
  }
  std::remove(path.c_str());
}

TEST(DatabaseIoTest, RoundTripPreservesQueryResults) {
  // Stronger check: IDCA bounds on the loaded database are identical.
  workload::SyntheticConfig cfg;
  cfg.num_objects = 30;
  cfg.max_extent = 0.1;
  const UncertainDatabase db = workload::MakeSyntheticDatabase(cfg);
  const std::string path = TempPath("query.updb");
  ASSERT_TRUE(SaveDatabase(db, path).ok());
  const StatusOr<UncertainDatabase> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  Rng rng(71);
  const auto q = workload::MakeQueryObject(
      Point{0.5, 0.5}, 0.1, workload::ObjectModel::kUniform, 0, rng);
  IdcaConfig config;
  config.max_iterations = 3;
  const IdcaResult a = IdcaEngine(db, config).ComputeDomCount(5, *q);
  const IdcaResult b = IdcaEngine(*loaded, config).ComputeDomCount(5, *q);
  for (size_t k = 0; k < a.bounds.num_ranks(); ++k) {
    EXPECT_DOUBLE_EQ(a.bounds.lb(k), b.bounds.lb(k));
    EXPECT_DOUBLE_EQ(a.bounds.ub(k), b.bounds.ub(k));
  }
  std::remove(path.c_str());
}

TEST(DatabaseIoTest, LoadMissingFileIsNotFound) {
  const StatusOr<UncertainDatabase> loaded =
      LoadDatabase("/nonexistent/dir/file.updb");
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(DatabaseIoTest, LoadReportsLineNumbers) {
  const std::string path = TempPath("bad.updb");
  std::ofstream out(path);
  out << "# header\n";
  out << "uniform,1,2,0,1,0,1\n";
  out << "uniform,1,2,1,0,0,1\n";  // lo > hi on line 3
  out.close();
  const StatusOr<UncertainDatabase> loaded = LoadDatabase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("line 3"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DatabaseIoTest, LoadRejectsDimensionMismatch) {
  const std::string path = TempPath("dims.updb");
  std::ofstream out(path);
  out << "uniform,1,2,0,1,0,1\n";
  out << "uniform,1,1,0,1\n";
  out.close();
  const StatusOr<UncertainDatabase> loaded = LoadDatabase(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("dimension"), std::string::npos);
  std::remove(path.c_str());
}

TEST(DatabaseIoTest, CommentsAndBlankLinesIgnored) {
  const std::string path = TempPath("comments.updb");
  std::ofstream out(path);
  out << "# comment\n\n";
  out << "uniform,1,2,0,1,0,1\n";
  out << "\n# trailing comment\n";
  out.close();
  const StatusOr<UncertainDatabase> loaded = LoadDatabase(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace updb
