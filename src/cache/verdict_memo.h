// Copyright 2026 The updb Authors.
// Snapshot-scoped cross-request domination-verdict memo (ROADMAP open
// item 2 -> PR 8): decided (candidate-partition, B', R') verdicts recorded
// by one IDCA run become visible to every later run against the same
// immutable store snapshot — within a dispatch round and across rounds —
// so repeated queries against a pinned version stop re-deriving the same
// geometry.
//
// Why sharing is sound: a domination verdict (Classify, domination/kernel.h)
// is a pure function of the three partition regions plus the (criterion,
// norm) configuration, and a DecompositionTree's frontier at level L is a
// pure function of (pdf, split policy, L). A memo key therefore names the exact triple a
// recomputation would test, and a hit returns exactly the verdict that
// recomputation would produce — payloads with the memo on are
// bit-identical to payloads with it off (service_test's monotonicity
// oracle). Only *decided* verdicts are stored; kUndecided triples are
// always re-tested one level deeper, exactly as without the memo.
//
// Invalidation is free: the snapshot version is mixed into every key's
// context (MixContext), so a publish makes all prior entries unreachable
// garbage that overwrite eviction reclaims — no epoch scan, no clear.
//
// Concurrency contract: the table is a fixed power-of-two array of
// two-word slots (tag word + value word) accessed with relaxed/acq-rel
// atomics only — no mutex anywhere, so the engine hot path stays
// lock-free under any number of concurrent workers (striping here is
// slot-space partitioning: disjoint keys touch disjoint cache lines). A
// torn or stale read fails the double-word tag compare and degrades to a
// miss; a *wrong* verdict would need two distinct keys to collide in all
// 125 tag bits (~2^-125 per probe), which is treated as negligible and is
// the same class of risk every content-hash dedup accepts. Lost inserts
// (two writers racing one empty slot) and evictions only cost future
// hits, never correctness.
//
// Memory contract: footprint is fixed at construction (capacity slots of
// 16 bytes); a full probe window overwrites in place and bumps the
// eviction counter, so the memo can never grow under sustained traffic.
// Hit/miss/insert/evict totals register in an obs::MetricsRegistry;
// engine runs accumulate a local VerdictMemoTally and flush it once per
// run so the inner loop touches no shared counter.

#ifndef UPDB_CACHE_VERDICT_MEMO_H_
#define UPDB_CACHE_VERDICT_MEMO_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>

#include "obs/metrics.h"

namespace updb {
namespace cache {

/// Run-local probe statistics, flushed to the memo's registry counters in
/// one call (VerdictMemo::Flush) instead of per probe.
struct VerdictMemoTally {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;

  VerdictMemoTally& operator+=(const VerdictMemoTally& o) {
    hits += o.hits;
    misses += o.misses;
    inserts += o.inserts;
    evictions += o.evictions;
    return *this;
  }
};

/// The lock-free memo table. Thread-safe for any mix of concurrent
/// Lookup/Insert/Flush callers.
class VerdictMemo {
 public:
  /// Verdict codes stored in a slot's value word (0 is reserved for
  /// "miss" so Lookup can return one int).
  static constexpr int kDominates = 1;
  static constexpr int kDominated = 2;

  /// `capacity` is rounded up to a power of two (minimum 64 slots).
  /// Series register in `registry`; nullptr creates a private registry.
  explicit VerdictMemo(size_t capacity,
                       obs::MetricsRegistry* registry = nullptr);

  VerdictMemo(const VerdictMemo&) = delete;
  VerdictMemo& operator=(const VerdictMemo&) = delete;

  /// Precomputed slot address + 125-bit tag of one
  /// (context, candidate, level, B'-node, R'-node, candidate-node) triple.
  struct Key {
    uint64_t tag = 0;     // full word, never 0 for a live key
    uint64_t check = 0;   // upper 62 bits verified against the value word
    size_t slot = 0;      // probe window base
  };

  /// Key context shared by every run against one snapshot + query object:
  /// mixes the snapshot version (invalidation-by-version) with the query
  /// PDF's canonical serialization token.
  static uint64_t MixContext(uint64_t snapshot_version, uint64_t query_token);

  /// Per-run context: the context above plus the run's database-object
  /// operand, the operand direction (kNN tests (cand, B=obj, R=q); RkNN
  /// tests (cand, B=q, R=obj) — different geometry, different keys), and a
  /// fingerprint of the engine configuration fields the verdict depends
  /// on.
  static uint64_t MixRun(uint64_t context, uint64_t object_id,
                         bool target_is_database_object,
                         uint64_t config_fingerprint);

  Key MakeKey(uint64_t run_context, uint64_t candidate_id, uint32_t level,
              uint32_t b_node, uint32_t r_node, uint32_t cand_node) const;

  /// Returns kDominates/kDominated on a hit, 0 on a miss.
  int Lookup(const Key& key, VerdictMemoTally& tally) const;

  /// Records a decided verdict (kDominates or kDominated).
  void Insert(const Key& key, int verdict, VerdictMemoTally& tally);

  /// Adds a run's local tally into the registry counters.
  void Flush(const VerdictMemoTally& tally);

  size_t capacity() const { return capacity_; }
  uint64_t hits() const { return hits_->Value(); }
  uint64_t misses() const { return misses_->Value(); }
  uint64_t inserts() const { return inserts_->Value(); }
  uint64_t evictions() const { return evictions_->Value(); }

 private:
  /// Slots probed per key (linear window from Key::slot).
  static constexpr size_t kProbe = 4;

  /// A live slot holds tag != 0 and value = (check << 2) | verdict. The
  /// value word is published before the tag word (release), so a reader
  /// that acquires a matching tag either sees the matching value or a
  /// value whose embedded check bits mismatch (-> miss).
  struct Slot {
    std::atomic<uint64_t> tag{0};
    std::atomic<uint64_t> value{0};
  };

  const size_t capacity_;  // power of two
  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;
  std::unique_ptr<obs::MetricsRegistry> owned_;  // when none injected
  obs::Counter* hits_;
  obs::Counter* misses_;
  obs::Counter* inserts_;
  obs::Counter* evictions_;
};

}  // namespace cache
}  // namespace updb

#endif  // UPDB_CACHE_VERDICT_MEMO_H_
