// Copyright 2026 The updb Authors.
// Typed request/response model of the query service: one tagged request
// shape covering the four query kinds of Section VI (threshold kNN,
// threshold RkNN, inverse ranking, expected-rank ordering), a per-request
// cost budget, and a response carrying the kind-specific payload plus a
// terminal status and per-request statistics.
//
// Determinism contract: everything in a QueryResponse except the wall-clock
// fields of RequestStats (queue_seconds/exec_seconds) is a pure function of
// (request, snapshot version, compiled budget) — with live updates, the
// snapshot a request executes against is named by the snapshot_version the
// response is stamped with, and replaying the request pinned to that
// version reproduces the payload bit-identically. ResponseDigest hashes
// exactly that deterministic part (version included), which is what the
// 1-vs-N-worker tests, the store churn tests, and the service benchmarks
// compare.

#ifndef UPDB_SERVICE_REQUEST_H_
#define UPDB_SERVICE_REQUEST_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "gf/count_bounds.h"
#include "queries/queries.h"
#include "uncertain/pdf.h"

namespace updb {
namespace store {
class StoreSnapshot;
}  // namespace store

namespace service {

/// Which query a request asks for.
enum class QueryKind {
  kThresholdKnn,
  kThresholdRknn,
  kInverseRanking,
  kExpectedRank,
};

/// Stable name of a QueryKind ("knn", "rknn", "inverse", "expected_rank").
const char* QueryKindName(QueryKind kind);

/// Per-request cost budget. Deadlines are *compiled to a deterministic
/// iteration budget at admission* (deadline_ms / estimated per-iteration
/// cost, see QueryServiceOptions::est_iteration_ms) instead of being
/// enforced against the wall clock mid-run: an expiring request then
/// returns its best-so-far brackets as kUndecided after a bounded number
/// of iterations, and responses stay bit-identical across runs and worker
/// counts.
struct QueryBudget {
  /// Hard cap on IDCA refinement iterations (0 = filter phase only, which
  /// still yields valid vacuous-or-better brackets).
  int max_iterations = 8;
  /// Early-stop once accumulated uncertainty falls to or below this
  /// (>= 0).
  double uncertainty_epsilon = 0.0;
  /// Soft deadline in milliseconds; 0 disables deadline compilation.
  double deadline_ms = 0.0;
};

/// One query request. `query` is the uncertain query object Q for
/// kThresholdKnn/kThresholdRknn/kExpectedRank and the reference object R
/// for kInverseRanking; `target` is the ranked database object B for
/// kInverseRanking (unused otherwise); `k`/`tau` apply to the threshold
/// kinds only.
///
/// `target` names a *stable store id* (see store/object_store.h), which
/// equals the dense database id for any single-version database (a store
/// seeded from a plain db publishes with identity mapping). Under live
/// updates the service re-translates the stable id against each round's
/// snapshot, so the request keeps naming the same object across versions;
/// a target no longer live terminates as kInvalid rather than silently
/// binding to whichever object inherited its dense slot.
struct QueryRequest {
  QueryKind kind = QueryKind::kThresholdKnn;
  std::shared_ptr<const Pdf> query;
  ObjectId target = kInvalidObjectId;
  size_t k = 1;
  double tau = 0.5;
  QueryBudget budget;
};

/// Terminal status of a request.
enum class ResponseStatus {
  /// Executed; decisions/bounds are as converged as the budget allowed.
  kOk,
  /// The deadline-compiled budget cut iterations short of the requested
  /// max_iterations and the result is still not fully converged. Payload
  /// fields hold the valid best-so-far brackets.
  kExpired,
  /// Never executed: the admission queue was full (set by ReplayTrace;
  /// QueryService::Submit reports rejection as a Status).
  kRejected,
  /// Not executed: the request failed validation at admission (set by
  /// ReplayTrace), or — under live updates — no longer validated against
  /// the snapshot it was dispatched on (e.g. its inverse-ranking target
  /// was removed between admission and execution).
  kInvalid,
};

/// Stable name of a ResponseStatus ("ok", "expired", ...).
const char* ResponseStatusName(ResponseStatus status);

/// Per-request execution statistics.
struct RequestStats {
  /// Iteration budget after deadline compilation (<= budget.max_iterations).
  int iterations_granted = 0;
  /// Candidates surviving the (shared) spatial filter / objects evaluated.
  size_t candidates = 0;
  /// IDCA refinement iterations actually executed across all candidates.
  size_t idca_iterations = 0;
  /// Engine work counters summed over every IDCA run this request issued
  /// (profiling: per-request cost is visible without tracing). Each is a
  /// deterministic function of (request, snapshot version, budget) and
  /// thread-count-invariant, but — like the wall-clock fields — they stay
  /// OUTSIDE ResponseDigest so digests committed by earlier releases
  /// remain comparable.
  uint64_t ugf_multiplies = 0;
  uint64_t verdict_cache_hits = 0;
  uint64_t verdict_cache_misses = 0;
  /// Batch sequence number the request executed in (diagnostics).
  uint64_t batch = 0;
  /// True when the response was served from the service's cross-request
  /// response cache instead of executing (the payload is bit-identical to
  /// a recomputed response — digest-oracle enforced). Like the wall-clock
  /// fields this describes *how* one run answered, not *what* the answer
  /// is, so it stays outside ResponseDigest.
  bool cache_hit = false;
  /// Wall-clock admission -> batch start. NOT covered by the determinism
  /// contract; excluded from ResponseDigest.
  double queue_seconds = 0.0;
  /// Wall-clock time from the start of this request's first engine-run
  /// job (one per threshold candidate, one for the other kinds) to the end
  /// of its last; its jobs may run on several workers at once, so this is
  /// at most their summed time and never more than the round trip. NOT
  /// covered by the determinism contract; excluded from ResponseDigest.
  double exec_seconds = 0.0;
};

/// Response to one request. Exactly one payload member is populated,
/// selected by `kind`; threshold results and expected-rank entries are
/// ordered by ascending object id (respectively expected-rank midpoint),
/// never by index-scan order, so the payload is reproducible.
struct QueryResponse {
  /// Ticket assigned by QueryService::Submit (submission order).
  uint64_t id = 0;
  QueryKind kind = QueryKind::kThresholdKnn;
  ResponseStatus status = ResponseStatus::kOk;
  /// Version of the store snapshot the request executed against (0 for
  /// never-executed stubs). Part of the determinism contract: the payload
  /// is reproducible by replaying the request pinned to this version.
  uint64_t snapshot_version = 0;
  /// kThresholdKnn / kThresholdRknn: per-candidate bracket + decision.
  std::vector<ThresholdQueryResult> threshold;
  /// kInverseRanking: bounds on P(Rank = i+1), db-size ranks.
  CountDistributionBounds rank_bounds = CountDistributionBounds(0);
  /// kExpectedRank: all objects ordered by expected-rank midpoint.
  std::vector<ExpectedRankEntry> expected;
  RequestStats stats;
};

/// Validates a request against a database: non-null query PDF of matching
/// dimensionality, k >= 1 and tau in [0, 1] (NaN and infinities
/// rejected) for threshold kinds, a valid target id for inverse ranking
/// (dense-range semantics — use the snapshot overload when stable ids may
/// diverge), non-negative, non-NaN budget fields. An empty database is
/// not an error for most kinds (the service answers with an empty payload
/// so an unpublished store can come up); only inverse ranking fails then,
/// since no target id can be valid.
Status ValidateRequest(const QueryRequest& request,
                       const UncertainDatabase& db);

/// Snapshot-aware validation — what QueryService::Submit uses: identical
/// to the database overload except that the inverse-ranking target is
/// checked as a *stable* store id (must be live at the snapshot).
Status ValidateRequest(const QueryRequest& request,
                       const store::StoreSnapshot& snapshot);

/// FNV-1a hash over the deterministic part of a response (id, kind,
/// status, snapshot version, payload values bit-patterns, deterministic
/// stats). Wall-clock stats fields are excluded. Equal digests across
/// worker counts — and across replays pinned to the same version — is the
/// service's determinism acceptance check.
uint64_t ResponseDigest(const QueryResponse& response);

/// Combined digest of a whole response sequence (order-sensitive).
uint64_t ResponseDigest(std::span<const QueryResponse> responses);

/// Canonical serialized form of a request — the request half of the
/// response cache's (request, snapshot_version) key, and the source of
/// the verdict memo's query-identity token. Two requests get the same key
/// iff every semantic field matches: kind, k, tau, target, the full
/// budget (deadline included — it compiles into the iteration grant), and
/// the query PDF's canonical line serialization. Doubles are keyed by
/// their exact bit pattern, so the key is byte-stable across runs.
struct CanonicalRequest {
  std::string key;
  /// FNV-1a of the PDF serialization (never 0); feeds
  /// cache::VerdictMemo::MixContext.
  uint64_t query_token = 0;
};

/// Fails (Unimplemented) for query PDF types without a line
/// serialization — such requests simply bypass both caches.
StatusOr<CanonicalRequest> CanonicalizeRequest(const QueryRequest& request);

}  // namespace service
}  // namespace updb

#endif  // UPDB_SERVICE_REQUEST_H_
