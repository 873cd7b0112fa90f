#include "service/request.h"

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "io/dataset_io.h"
#include "store/object_store.h"
#include "uncertain/database.h"

namespace updb {
namespace service {

namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr uint64_t kFnvPrime = 0x100000001b3ULL;

void HashU64(uint64_t v, uint64_t& h) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

void HashDouble(double v, uint64_t& h) {
  // +0.0 and -0.0 have distinct bit patterns; fold them so a sign-of-zero
  // difference (possible through summation order) never flips a digest.
  HashU64(std::bit_cast<uint64_t>(v == 0.0 ? 0.0 : v), h);
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kThresholdKnn:
      return "knn";
    case QueryKind::kThresholdRknn:
      return "rknn";
    case QueryKind::kInverseRanking:
      return "inverse";
    case QueryKind::kExpectedRank:
      return "expected_rank";
  }
  return "unknown";
}

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kExpired:
      return "expired";
    case ResponseStatus::kRejected:
      return "rejected";
    case ResponseStatus::kInvalid:
      return "invalid";
  }
  return "unknown";
}

namespace {

/// Everything ValidateRequest checks except the inverse-ranking target,
/// whose id space depends on the overload (dense vs stable).
Status ValidateCommon(const QueryRequest& request,
                      const UncertainDatabase& db) {
  if (request.query == nullptr) {
    return Status::InvalidArgument("request without query object");
  }
  if (!db.empty() && request.query->bounds().dim() != db.dim()) {
    return Status::InvalidArgument("query dimensionality mismatch");
  }
  // An infinite side would make every object an RkNN/kNN candidate and
  // run IDCA on infinite rectangles; a NaN one breaks every comparison.
  const Rect& bounds = request.query->bounds();
  for (size_t i = 0; i < bounds.dim(); ++i) {
    if (!std::isfinite(bounds.side(i).lo()) ||
        !std::isfinite(bounds.side(i).hi())) {
      return Status::InvalidArgument("query bounds must be finite");
    }
  }
  if (request.budget.max_iterations < 0) {
    return Status::InvalidArgument("negative iteration budget");
  }
  if (std::isnan(request.budget.deadline_ms)) {
    return Status::InvalidArgument("NaN deadline");
  }
  if (request.budget.deadline_ms < 0.0) {
    return Status::InvalidArgument("negative deadline");
  }
  // Written so NaN fails too: a NaN epsilon compares false against every
  // uncertainty, so a deadline-truncated answer would be stamped kOk; a
  // negative one would stamp a fully converged answer kExpired.
  if (!(request.budget.uncertainty_epsilon >= 0.0)) {
    return Status::InvalidArgument("uncertainty_epsilon must be >= 0");
  }
  switch (request.kind) {
    case QueryKind::kThresholdKnn:
    case QueryKind::kThresholdRknn:
      if (request.k < 1) return Status::InvalidArgument("k must be >= 1");
      // Written so NaN fails too: a NaN tau would pass a plain range
      // test, never decide, and burn the whole iteration budget.
      if (!(request.tau >= 0.0 && request.tau <= 1.0)) {
        return Status::InvalidArgument("tau must be in [0, 1]");
      }
      break;
    case QueryKind::kInverseRanking:
    case QueryKind::kExpectedRank:
      break;
  }
  return Status::OK();
}

}  // namespace

Status ValidateRequest(const QueryRequest& request,
                       const UncertainDatabase& db) {
  UPDB_RETURN_IF_ERROR(ValidateCommon(request, db));
  if (request.kind == QueryKind::kInverseRanking &&
      request.target >= db.size()) {
    return Status::InvalidArgument("inverse-ranking target out of range");
  }
  return Status::OK();
}

Status ValidateRequest(const QueryRequest& request,
                       const store::StoreSnapshot& snapshot) {
  UPDB_RETURN_IF_ERROR(ValidateCommon(request, *snapshot.db()));
  if (request.kind == QueryKind::kInverseRanking &&
      !snapshot.DenseId(request.target).ok()) {
    return Status::InvalidArgument(
        "inverse-ranking target not live at the current version");
  }
  return Status::OK();
}

uint64_t ResponseDigest(const QueryResponse& response) {
  uint64_t h = kFnvOffset;
  HashU64(response.id, h);
  HashU64(static_cast<uint64_t>(response.kind), h);
  HashU64(static_cast<uint64_t>(response.status), h);
  HashU64(response.snapshot_version, h);
  HashU64(static_cast<uint64_t>(response.stats.iterations_granted), h);
  HashU64(response.stats.candidates, h);
  HashU64(response.stats.idca_iterations, h);
  for (const ThresholdQueryResult& r : response.threshold) {
    HashU64(r.id, h);
    HashU64(static_cast<uint64_t>(r.decision), h);
    HashDouble(r.prob.lb, h);
    HashDouble(r.prob.ub, h);
  }
  HashU64(response.rank_bounds.num_ranks(), h);
  for (size_t k = 0; k < response.rank_bounds.num_ranks(); ++k) {
    HashDouble(response.rank_bounds.lb(k), h);
    HashDouble(response.rank_bounds.ub(k), h);
  }
  for (const ExpectedRankEntry& e : response.expected) {
    HashU64(e.id, h);
    HashDouble(e.expected_rank.lb, h);
    HashDouble(e.expected_rank.ub, h);
  }
  return h;
}

uint64_t ResponseDigest(std::span<const QueryResponse> responses) {
  uint64_t h = kFnvOffset;
  for (const QueryResponse& r : responses) HashU64(ResponseDigest(r), h);
  return h;
}

namespace {

/// Bit-exact double field: "name=<hex of the IEEE pattern>;". Text
/// formatting would round; the bit pattern can't.
void AppendDouble(std::string& out, const char* name, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s=%016" PRIx64 ";", name,
                std::bit_cast<uint64_t>(v));
  out.append(buf);
}

}  // namespace

StatusOr<CanonicalRequest> CanonicalizeRequest(const QueryRequest& request) {
  if (request.query == nullptr) {
    return Status::InvalidArgument("request without query object");
  }
  // The PDF's line serialization is the canonical query identity (id 0 is
  // a placeholder — SerializeObject never emits it).
  StatusOr<std::string> serialized =
      io::SerializeObject(UncertainObject(0, request.query, 1.0));
  if (!serialized.ok()) return serialized.status();
  const std::string& pdf_line = *serialized;

  CanonicalRequest canon;
  canon.key.reserve(pdf_line.size() + 96);
  canon.key.append("kind=");
  canon.key.append(QueryKindName(request.kind));
  canon.key.push_back(';');
  canon.key.append("k=");
  canon.key.append(std::to_string(request.k));
  canon.key.push_back(';');
  AppendDouble(canon.key, "tau", request.tau);
  canon.key.append("target=");
  canon.key.append(std::to_string(request.target));
  canon.key.push_back(';');
  canon.key.append("mi=");
  canon.key.append(std::to_string(request.budget.max_iterations));
  canon.key.push_back(';');
  AppendDouble(canon.key, "eps", request.budget.uncertainty_epsilon);
  AppendDouble(canon.key, "dl", request.budget.deadline_ms);
  canon.key.append("q=");
  canon.key.append(pdf_line);

  uint64_t token = kFnvOffset;
  for (unsigned char c : pdf_line) {
    token ^= c;
    token *= kFnvPrime;
  }
  canon.query_token = token != 0 ? token : 1;
  return canon;
}

}  // namespace service
}  // namespace updb
