#include "io/dataset_io.h"

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace updb {
namespace io {

namespace {

/// Appends a double with full round-trip precision. NaN and infinities
/// are refused: the parser rejects them, so such a line could never be
/// loaded back.
Status AppendDouble(std::string& out, double v) {
  if (!std::isfinite(v)) {
    return Status::InvalidArgument("non-finite number in object");
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
  return Status::OK();
}

/// Splits a CSV line into fields.
std::vector<std::string> SplitFields(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

/// Cursor over parsed fields with typed, Status-producing accessors.
class FieldCursor {
 public:
  explicit FieldCursor(std::vector<std::string> fields)
      : fields_(std::move(fields)) {}

  Status NextString(std::string* out) {
    if (pos_ >= fields_.size()) {
      return Status::InvalidArgument("unexpected end of line");
    }
    *out = fields_[pos_++];
    return Status::OK();
  }

  Status NextDouble(double* out) {
    if (pos_ >= fields_.size()) {
      return Status::InvalidArgument("unexpected end of line");
    }
    errno = 0;
    char* end = nullptr;
    const std::string& f = fields_[pos_];
    const double v = std::strtod(f.c_str(), &end);
    if (end == f.c_str() || *end != '\0' || errno == ERANGE) {
      return Status::InvalidArgument("not a number: '" + f + "'");
    }
    // strtod accepts "nan" and "inf"; no field of the format may be
    // either, and downstream code (PDF construction, geometry) assumes
    // finite values.
    if (!std::isfinite(v)) {
      return Status::InvalidArgument("non-finite number: '" + f + "'");
    }
    ++pos_;
    *out = v;
    return Status::OK();
  }

  Status NextSize(size_t* out) {
    double v = 0.0;
    UPDB_RETURN_IF_ERROR(NextDouble(&v));
    if (v < 0 || v != static_cast<double>(static_cast<size_t>(v))) {
      return Status::InvalidArgument("not a non-negative integer");
    }
    *out = static_cast<size_t>(v);
    return Status::OK();
  }

  bool exhausted() const { return pos_ >= fields_.size(); }
  size_t remaining() const { return fields_.size() - pos_; }

 private:
  std::vector<std::string> fields_;
  size_t pos_ = 1;  // field 0 is the type tag
};

Status ValidateHeader(double existence, size_t dim) {
  if (existence <= 0.0 || existence > 1.0) {
    return Status::InvalidArgument("existence must be in (0, 1]");
  }
  if (dim == 0) return Status::InvalidArgument("dimension must be >= 1");
  return Status::OK();
}

StatusOr<Rect> ParseRect(FieldCursor& cursor, size_t dim) {
  std::vector<Interval> sides;
  sides.reserve(dim);
  for (size_t i = 0; i < dim; ++i) {
    double lo = 0.0, hi = 0.0;
    UPDB_RETURN_IF_ERROR(cursor.NextDouble(&lo));
    UPDB_RETURN_IF_ERROR(cursor.NextDouble(&hi));
    if (lo > hi) return Status::InvalidArgument("interval with lo > hi");
    sides.emplace_back(lo, hi);
  }
  return Rect(std::move(sides));
}

/// Mixtures may nest; bound the recursion so a hostile line cannot blow
/// the stack.
constexpr int kMaxMixtureDepth = 16;

/// Line-format tag of a PDF type; nullptr when it has no line format.
const char* PdfTag(const Pdf& pdf) {
  if (dynamic_cast<const UniformPdf*>(&pdf) != nullptr) return "uniform";
  if (dynamic_cast<const TruncatedGaussianPdf*>(&pdf) != nullptr) {
    return "gaussian";
  }
  if (dynamic_cast<const DiscreteSamplePdf*>(&pdf) != nullptr) {
    return "discrete";
  }
  if (dynamic_cast<const MixturePdf*>(&pdf) != nullptr) return "mixture";
  return nullptr;
}

Status AppendRect(const Rect& r, std::string& out) {
  for (size_t i = 0; i < r.dim(); ++i) {
    out += ',';
    UPDB_RETURN_IF_ERROR(AppendDouble(out, r.side(i).lo()));
    out += ',';
    UPDB_RETURN_IF_ERROR(AppendDouble(out, r.side(i).hi()));
  }
  return Status::OK();
}

/// Appends the type-specific payload (the fields after the tag). Shared
/// between top-level lines and mixture components, so mixtures nest —
/// bounded by the same depth limit the parser enforces, so everything
/// SaveDatabase accepts is guaranteed loadable.
Status AppendPayload(const Pdf& pdf, std::string& out, int depth) {
  if (const auto* u = dynamic_cast<const UniformPdf*>(&pdf)) {
    return AppendRect(u->bounds(), out);
  }
  if (const auto* g = dynamic_cast<const TruncatedGaussianPdf*>(&pdf)) {
    UPDB_RETURN_IF_ERROR(AppendRect(g->bounds(), out));
    // Recovering mean/sigma via Mass() is not possible; serialize the
    // moments we can reconstruct the object from. TruncatedGaussianPdf
    // exposes them for this purpose.
    for (double m : g->mean()) {
      out += ',';
      UPDB_RETURN_IF_ERROR(AppendDouble(out, m));
    }
    for (double s : g->sigma()) {
      out += ',';
      UPDB_RETURN_IF_ERROR(AppendDouble(out, s));
    }
    return Status::OK();
  }
  if (const auto* d = dynamic_cast<const DiscreteSamplePdf*>(&pdf)) {
    const size_t dim = d->bounds().dim();
    out += ',';
    UPDB_RETURN_IF_ERROR(
        AppendDouble(out, static_cast<double>(d->samples().size())));
    for (size_t s = 0; s < d->samples().size(); ++s) {
      out += ',';
      UPDB_RETURN_IF_ERROR(AppendDouble(out, d->weights()[s]));
      for (size_t i = 0; i < dim; ++i) {
        out += ',';
        UPDB_RETURN_IF_ERROR(AppendDouble(out, d->samples()[s][i]));
      }
    }
    return Status::OK();
  }
  if (const auto* m = dynamic_cast<const MixturePdf*>(&pdf)) {
    if (depth >= kMaxMixtureDepth) {
      return Status::Unimplemented("mixture nesting too deep for the line "
                                   "format");
    }
    out += ',';
    UPDB_RETURN_IF_ERROR(
        AppendDouble(out, static_cast<double>(m->num_components())));
    for (size_t c = 0; c < m->num_components(); ++c) {
      out += ',';
      UPDB_RETURN_IF_ERROR(AppendDouble(out, m->weights()[c]));
      const Pdf& comp = *m->components()[c];
      const char* tag = PdfTag(comp);
      if (tag == nullptr) {
        return Status::Unimplemented(
            "mixture component type has no line format");
      }
      out += ',';
      out += tag;
      UPDB_RETURN_IF_ERROR(AppendPayload(comp, out, depth + 1));
    }
    return Status::OK();
  }
  return Status::Unimplemented("PDF type has no line format");
}

/// Rejects positive weights the PDF constructors cannot normalize: a sum
/// that overflows would turn every weight into 0, and a weight that
/// underflows to 0 against the sum would serialize as a non-positive
/// weight. Sums in the constructors' order.
Status CheckWeightSum(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  if (!std::isfinite(total)) {
    return Status::InvalidArgument("weight sum is not finite");
  }
  for (double w : weights) {
    if (!(w / total > 0.0)) {
      return Status::InvalidArgument("weight vanishes when normalized");
    }
  }
  return Status::OK();
}

/// Parses the payload of one `type`-tagged PDF (top-level line or mixture
/// component) of dimensionality `dim`.
StatusOr<std::unique_ptr<Pdf>> ParsePayload(FieldCursor& cursor, size_t dim,
                                            const std::string& type,
                                            int depth) {
  if (type == "uniform") {
    StatusOr<Rect> rect = ParseRect(cursor, dim);
    if (!rect.ok()) return rect.status();
    return std::unique_ptr<Pdf>(
        std::make_unique<UniformPdf>(std::move(rect).value()));
  }
  if (type == "gaussian") {
    StatusOr<Rect> rect = ParseRect(cursor, dim);
    if (!rect.ok()) return rect.status();
    std::vector<double> mean(dim), sigma(dim);
    for (double& m : mean) UPDB_RETURN_IF_ERROR(cursor.NextDouble(&m));
    for (double& s : sigma) {
      UPDB_RETURN_IF_ERROR(cursor.NextDouble(&s));
      if (s < 0.0) return Status::InvalidArgument("negative sigma");
    }
    return std::unique_ptr<Pdf>(std::make_unique<TruncatedGaussianPdf>(
        std::move(rect).value(), std::move(mean), std::move(sigma)));
  }
  if (type == "discrete") {
    size_t n = 0;
    UPDB_RETURN_IF_ERROR(cursor.NextSize(&n));
    if (n == 0) {
      return Status::InvalidArgument("discrete object without samples");
    }
    // Each sample needs dim+1 fields; a hostile count must fail here, not
    // in an attacker-sized reserve (division avoids n*(dim+1) overflow).
    if (n > cursor.remaining() / (dim + 1)) {
      return Status::InvalidArgument("discrete field count mismatch");
    }
    std::vector<Point> samples;
    std::vector<double> weights;
    samples.reserve(n);
    weights.reserve(n);
    for (size_t s = 0; s < n; ++s) {
      double w = 0.0;
      UPDB_RETURN_IF_ERROR(cursor.NextDouble(&w));
      if (w <= 0.0) return Status::InvalidArgument("non-positive weight");
      weights.push_back(w);
      Point p(dim);
      for (size_t i = 0; i < dim; ++i) {
        UPDB_RETURN_IF_ERROR(cursor.NextDouble(&p[i]));
      }
      samples.push_back(std::move(p));
    }
    UPDB_RETURN_IF_ERROR(CheckWeightSum(weights));
    return std::unique_ptr<Pdf>(std::make_unique<DiscreteSamplePdf>(
        std::move(samples), std::move(weights)));
  }
  if (type == "mixture") {
    if (depth >= kMaxMixtureDepth) {
      return Status::InvalidArgument("mixture nesting too deep");
    }
    size_t n = 0;
    UPDB_RETURN_IF_ERROR(cursor.NextSize(&n));
    if (n == 0) {
      return Status::InvalidArgument("mixture without components");
    }
    // Each component needs at least a weight and a type tag.
    if (n > cursor.remaining() / 2) {
      return Status::InvalidArgument("mixture component count mismatch");
    }
    std::vector<std::unique_ptr<Pdf>> components;
    std::vector<double> weights;
    components.reserve(n);
    weights.reserve(n);
    for (size_t c = 0; c < n; ++c) {
      double w = 0.0;
      UPDB_RETURN_IF_ERROR(cursor.NextDouble(&w));
      if (w <= 0.0) return Status::InvalidArgument("non-positive weight");
      weights.push_back(w);
      std::string comp_type;
      UPDB_RETURN_IF_ERROR(cursor.NextString(&comp_type));
      StatusOr<std::unique_ptr<Pdf>> comp =
          ParsePayload(cursor, dim, comp_type, depth + 1);
      if (!comp.ok()) return comp.status();
      components.push_back(std::move(comp).value());
    }
    UPDB_RETURN_IF_ERROR(CheckWeightSum(weights));
    return std::unique_ptr<Pdf>(std::make_unique<MixturePdf>(
        std::move(components), std::move(weights)));
  }
  return Status::InvalidArgument("unknown object type '" + type + "'");
}

}  // namespace

StatusOr<std::string> SerializeObject(const UncertainObject& object) {
  const Pdf& pdf = object.pdf();
  const char* tag = PdfTag(pdf);
  if (tag == nullptr) {
    return Status::Unimplemented("PDF type has no line format");
  }
  std::string out = tag;
  out += ',';
  UPDB_RETURN_IF_ERROR(AppendDouble(out, object.existence()));
  out += ',';
  UPDB_RETURN_IF_ERROR(AppendDouble(out, static_cast<double>(object.dim())));
  UPDB_RETURN_IF_ERROR(AppendPayload(pdf, out, /*depth=*/0));
  return out;
}

StatusOr<ParsedObject> ParseObject(const std::string& line) {
  std::vector<std::string> fields = SplitFields(line);
  if (fields.empty() || fields[0].empty()) {
    return Status::InvalidArgument("empty line");
  }
  const std::string type = fields[0];
  FieldCursor cursor(std::move(fields));

  double existence = 1.0;
  size_t dim = 0;
  UPDB_RETURN_IF_ERROR(cursor.NextDouble(&existence));
  UPDB_RETURN_IF_ERROR(cursor.NextSize(&dim));
  UPDB_RETURN_IF_ERROR(ValidateHeader(existence, dim));
  // Every type needs at least one field per dimension; a hostile
  // dimension must fail here, not in a dimension-sized allocation.
  if (dim > cursor.remaining()) {
    return Status::InvalidArgument("dimension exceeds field count");
  }

  StatusOr<std::unique_ptr<Pdf>> pdf =
      ParsePayload(cursor, dim, type, /*depth=*/0);
  if (!pdf.ok()) return pdf.status();
  if (!cursor.exhausted()) {
    return Status::InvalidArgument("trailing fields on " + type + " object");
  }
  ParsedObject out;
  out.existence = existence;
  out.pdf = std::shared_ptr<const Pdf>(std::move(pdf).value());
  return out;
}

Status SaveDatabase(const UncertainDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::Internal("cannot open '" + path + "' for writing");
  }
  out << "# updb dataset v1, " << db.size() << " objects\n";
  for (const UncertainObject& o : db.objects()) {
    StatusOr<std::string> line = SerializeObject(o);
    if (!line.ok()) return line.status();
    out << *line << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::OK();
}

StatusOr<UncertainDatabase> LoadDatabase(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open '" + path + "'");
  UncertainDatabase db;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    StatusOr<ParsedObject> parsed = ParseObject(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": " +
          parsed.status().message());
    }
    if (!db.empty() && parsed->pdf->bounds().dim() != db.dim()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_no) + ": dimension mismatch");
    }
    db.Add(parsed->pdf, parsed->existence);
  }
  return db;
}

}  // namespace io
}  // namespace updb
