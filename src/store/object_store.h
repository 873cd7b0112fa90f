// Copyright 2026 The updb Authors.
// MVCC-style versioned store for uncertain objects, the mutable foundation
// under the serving layer (ROADMAP: open the churn scenarios — streaming
// inserts/updates/deletes — without giving up the determinism contracts of
// PR 1/2). Design:
//
//  * The stable-id space is partitioned into `num_shards` shards (stable
//    id i routes to shard i % num_shards). Each shard owns its own WAL
//    window, its own copy-on-write live table, and — per snapshot — its
//    own delta-overlay SnapshotIndex; one snapshot's query surface merges
//    the shards in deterministic shard order (see store/snapshot_index.h).
//  * Writers apply Insert/Update/Remove mutations. Each mutation becomes
//    the WalRecord the WAL encodes (inserts carry the stable id the store
//    assigned) and is appended to the target shard's write-ahead window
//    *before* the live state is touched; the pending windows are the
//    source of truth for what the next snapshot must re-index. Live
//    writes and WAL replay validate and commit through the same code.
//  * The live table of a shard is copy-on-write: an immutable sorted
//    snapshot array (shared with published snapshots and in-flight
//    builds) plus a small mutable delta map of changes since the last
//    publish. Publish() *drains* in O(delta) under the writer mutex —
//    move the delta map, move the WAL windows, grab the array pointers —
//    and does every O(N) step (table merge, database materialization,
//    index composition) outside it, so publishing never stalls writers or
//    readers for a live-table copy (the drain/build split is measured by
//    bench_store_churn and reported via PublishStats).
//  * Publish() installs an immutable StoreSnapshot {version, db, sharded
//    index}. Snapshots share object PDFs by pointer; per-shard index work
//    is O(shard delta) — a delta overlay over the shard's bulk-built base
//    R-tree, compacted into a fresh bulk build once it exceeds
//    compact_delta_fraction of the base.
//  * Readers acquire latest() (or a retained snapshot(version) for pinned
//    serving) and never block writers; a snapshot stays valid for as long
//    as someone holds it, independent of later mutations or eviction.
//
// Id spaces: the store hands out *stable* ids (monotonic, never reused).
// A snapshot's materialized UncertainDatabase uses *dense* ids 0..N-1
// assigned in ascending stable-id order — that is what the query stack
// expects — and the snapshot carries the translation both ways. For a
// fixed version the translation, the database and the index are all pure
// functions of the mutation history — independent of the shard count —
// so responses served from a version are bit-identical across replays
// and across num_shards (store_test's digest oracles).

#ifndef UPDB_STORE_OBJECT_STORE_H_
#define UPDB_STORE_OBJECT_STORE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/snapshot_index.h"
#include "store/wal.h"
#include "uncertain/database.h"

namespace updb {
namespace store {

/// Monotonic snapshot version. 0 is the empty pre-first-publish snapshot.
using Version = uint64_t;

/// One write operation against the store.
struct Mutation {
  enum class Kind { kInsert, kUpdate, kRemove };
  Kind kind = Kind::kInsert;
  /// Target stable id for kUpdate/kRemove; ignored for kInsert (the store
  /// assigns the next stable id).
  ObjectId id = kInvalidObjectId;
  /// New PDF for kInsert/kUpdate; ignored for kRemove.
  std::shared_ptr<const Pdf> pdf;
  /// Existential probability, in (0, 1].
  double existence = 1.0;
};

/// Stable name of a Mutation::Kind ("insert", "update", "remove").
const char* MutationKindName(Mutation::Kind kind);

/// Durable-mode configuration. A store with a non-empty `wal_dir` (opened
/// via VersionedObjectStore::Open or store::RecoverStore +
/// AttachDurability) appends every mutation to a per-shard WAL file before
/// applying it, writes a kPublish marker per Publish(), and checkpoints
/// the published state every `checkpoint_every` publishes.
struct DurabilityOptions {
  /// Directory holding the per-shard WAL segments and checkpoints. Empty
  /// means in-memory only (the plain constructors always run in-memory
  /// and ignore this struct).
  std::string wal_dir;
  /// When WAL appends are forced to stable storage (see store/wal.h).
  FsyncPolicy fsync = FsyncPolicy::kEveryPublish;
  /// Publishes between snapshot checkpoints. A checkpoint bounds the WAL
  /// tail recovery must replay; checkpoint installs are always fsynced
  /// regardless of the fsync policy.
  uint64_t checkpoint_every = 8;
  /// Checkpoint files retained (newest first); older ones are pruned.
  size_t checkpoint_keep = 2;
};

/// Tuning knobs of the store.
struct StoreOptions {
  /// Publish compacts a shard's index overlay into a fresh bulk build once
  /// its delta_entries exceed this fraction of the shard's base tree size.
  /// 0 forces a full rebuild at every publish (the ablation baseline the
  /// churn benchmark compares against); values >= 1 effectively never
  /// compact. Must not be NaN, which would never compact either while the
  /// overlay every scan sorts grows without bound.
  double compact_delta_fraction = 0.25;
  /// Leaf capacity of bulk-built base R-trees.
  size_t leaf_capacity = 16;
  /// Published snapshots retained for pinned serving, including the
  /// latest. Must be >= 1; older versions are evicted FIFO (a snapshot a
  /// reader still holds stays alive through its shared_ptr).
  size_t snapshot_retention = 8;
  /// Shards of the stable-id space (id % num_shards). Must be >= 1 and is
  /// fixed for the store's lifetime. 1 reproduces the unsharded store;
  /// snapshot contents and served payloads are identical for every value.
  size_t num_shards = 1;
  /// Durable-mode configuration; honored by Open()/AttachDurability only.
  DurabilityOptions durability;
  /// Registry the store's series register in (publish drain/build
  /// histograms, publish/WAL/checkpoint counters; see README
  /// "Observability"). Must outlive the store. nullptr creates a private
  /// registry — pass obs::MetricsRegistry::Default() for one unified
  /// process export.
  obs::MetricsRegistry* metrics_registry = nullptr;
  /// Span sink for publish_drain/publish_build/wal_fsync/checkpoint_write
  /// spans. nullptr (default) disables store-side tracing; snapshot
  /// contents are identical either way.
  obs::TraceRecorder* trace = nullptr;
};

/// Wall-clock breakdown of one Publish() (see bench_store_churn): the
/// drain step is the only part that holds the writer mutex and is
/// O(drained mutations + num_shards), never O(live-table size).
struct PublishStats {
  double drain_ms = 0.0;
  double build_ms = 0.0;
  size_t drained_mutations = 0;
};

/// Aggregate publish timing over a store's lifetime (CLI metrics JSON).
struct PublishMetrics {
  uint64_t publishes = 0;
  double total_drain_ms = 0.0;
  double max_drain_ms = 0.0;
  double total_build_ms = 0.0;
  double max_build_ms = 0.0;
};

/// Durability counters aggregated over a store's lifetime (the CLI's
/// "wal" metrics section). All-zero while no durability is attached.
struct WalStats {
  bool durable = false;
  FsyncPolicy fsync = FsyncPolicy::kEveryPublish;
  uint64_t appends = 0;
  uint64_t appended_bytes = 0;
  uint64_t fsyncs = 0;
  uint64_t checkpoint_writes = 0;
  uint64_t checkpoint_failures = 0;

  /// Serializes as a JSON object (plus the sticky WAL status string).
  std::string ToJson(const Status& wal_status) const;
};

/// One live object; PDFs are shared by pointer, snapshots copy nothing
/// deep.
struct LiveObject {
  std::shared_ptr<const Pdf> pdf;
  double existence = 1.0;
};

/// Entry of a shard's copy-on-write live table (sorted by stable id).
struct LiveEntry {
  ObjectId id = kInvalidObjectId;
  LiveObject object;
};

/// Immutable sorted-by-stable-id array: the published live table of one
/// shard.
using LiveTable = std::vector<LiveEntry>;

/// One immutable published state of the store. Cheap to hold and share;
/// all members are immutable after Publish() constructs it.
class StoreSnapshot {
 public:
  Version version() const { return version_; }
  /// Dense-id materialization of the live set at this version.
  const std::shared_ptr<const UncertainDatabase>& db() const { return db_; }
  /// The merged (shard-order deterministic) index surface.
  const ShardedSnapshotIndex& index() const { return index_; }
  size_t size() const { return stable_by_dense_->size(); }
  size_t num_shards() const { return index_.num_shards(); }
  /// Live objects routed to shard `s` at this version.
  size_t shard_size(size_t s) const { return index_.shard(s).entry_count(); }

  /// Stable id of a dense id (must be < size()).
  ObjectId StableId(ObjectId dense) const;
  /// Dense id of a live stable id; NotFound when the id is not live at
  /// this version.
  StatusOr<ObjectId> DenseId(ObjectId stable) const;

 private:
  friend class VersionedObjectStore;
  StoreSnapshot(Version version,
                std::shared_ptr<const UncertainDatabase> db,
                ShardedSnapshotIndex index,
                std::shared_ptr<const std::vector<ObjectId>> stable_by_dense)
      : version_(version),
        db_(std::move(db)),
        index_(std::move(index)),
        stable_by_dense_(std::move(stable_by_dense)) {}

  Version version_;
  std::shared_ptr<const UncertainDatabase> db_;
  ShardedSnapshotIndex index_;
  std::shared_ptr<const std::vector<ObjectId>> stable_by_dense_;  // sorted
};

/// The versioned store. Thread-safe: any thread may mutate, publish, or
/// acquire snapshots; publishing serializes against other publishers but
/// overlaps with both writers and readers — the live-table merges, the
/// index builds and the database materialization all run outside the
/// writer lock; only the O(delta) drain step holds it.
class VersionedObjectStore {
 public:
  explicit VersionedObjectStore(StoreOptions options = {});
  /// Seeds the store with `db`'s objects — stable ids equal the seed
  /// database's dense ids — and publishes version 1.
  explicit VersionedObjectStore(const UncertainDatabase& db,
                                StoreOptions options = {});

  VersionedObjectStore(const VersionedObjectStore&) = delete;
  VersionedObjectStore& operator=(const VersionedObjectStore&) = delete;

  /// Creates a *durable* store over a fresh WAL directory
  /// (options.durability.wal_dir, created if missing). Fails with
  /// InvalidArgument when wal_dir is empty and FailedPrecondition when the
  /// directory already holds WAL segments or checkpoints — recover those
  /// with store::RecoverStore instead of silently overwriting them.
  static StatusOr<std::unique_ptr<VersionedObjectStore>> Open(
      StoreOptions options);
  /// Durable variant of the seeding constructor: seeds `db`, publishes
  /// version 1, then attaches durability (the initial checkpoint covers
  /// the seed).
  static StatusOr<std::unique_ptr<VersionedObjectStore>> Open(
      const UncertainDatabase& db, StoreOptions options);

  /// Attaches durability to a store built in memory (freshly constructed
  /// or rebuilt by store::RecoverStore). Writes a checkpoint of the
  /// current published state, rebuilds the per-shard WAL segments from
  /// scratch (stale segments — including those of a different shard count
  /// — are deleted), re-appends any still-pending mutations, and syncs.
  /// Must not race with concurrent mutators/publishers.
  /// FailedPrecondition when durability is already attached.
  Status AttachDurability(const DurabilityOptions& durability);

  /// First WAL/checkpoint IO error, sticky: once an append or checkpoint
  /// fails the store stops accepting durable mutations and reports the
  /// original failure here. Always OK for in-memory stores.
  Status wal_status() const;
  /// Fsyncs every dirty WAL segment (no-op in memory). Batch appliers
  /// call this under FsyncPolicy::kEveryBatch.
  Status SyncWal();
  /// True when durability is attached.
  bool durable() const { return durable_; }

  /// Inserts a new object; returns its stable id. InvalidArgument on a
  /// null PDF, an existence outside (0, 1], or a dimensionality mismatch
  /// (the first insert fixes the store's dimensionality).
  StatusOr<ObjectId> Insert(std::shared_ptr<const Pdf> pdf,
                            double existence = 1.0);
  /// Replaces a live object's PDF/existence. NotFound for unknown ids.
  Status Update(ObjectId id, std::shared_ptr<const Pdf> pdf,
                double existence = 1.0);
  /// Removes a live object. NotFound for unknown ids. Stable ids are
  /// never reused.
  Status Remove(ObjectId id);
  /// Applies one mutation record; returns the affected stable id.
  StatusOr<ObjectId> Apply(const Mutation& mutation);

  /// Drains the pending mutation windows into a new immutable snapshot
  /// and installs it as latest(). The drain holds the writer mutex for
  /// O(delta) only; per-shard index work is O(shard delta) (see file
  /// comment). A no-op window still publishes a new version (callers gate
  /// on pending_mutations() when they care). When `stats` is non-null it
  /// receives this publish's drain/build timing split.
  std::shared_ptr<const StoreSnapshot> Publish(PublishStats* stats = nullptr);

  /// The latest published snapshot; never null (version 0 before the
  /// first Publish).
  std::shared_ptr<const StoreSnapshot> latest() const;
  /// A retained snapshot by version; null when unknown or evicted.
  std::shared_ptr<const StoreSnapshot> snapshot(Version version) const;

  Version version() const;
  size_t live_size() const;
  /// Live object counts per shard, in shard order.
  std::vector<size_t> ShardLiveCounts() const;
  /// Mutations applied but not yet published.
  size_t pending_mutations() const;
  /// Mutations applied over the store's lifetime.
  uint64_t total_mutations() const;
  /// Aggregate drain/build timing over all publishes so far.
  PublishMetrics publish_metrics() const;
  /// Aggregate WAL/checkpoint counters (all-zero for in-memory stores).
  WalStats wal_stats() const;
  /// The registry this store's series live in: options.metrics_registry
  /// when one was supplied, else the store's private registry.
  obs::MetricsRegistry& registry() const {
    return options_.metrics_registry != nullptr ? *options_.metrics_registry
                                                : *owned_registry_;
  }
  /// Copy of the pending write-ahead window, in application order
  /// (ascending global sequence, merged across shards).
  std::vector<WalRecord> PendingLog() const;
  /// Sorted live stable ids (the deterministic targeting surface for
  /// churn generators).
  std::vector<ObjectId> LiveIds() const;
  /// 0 before the first insert.
  size_t dim() const;

  const StoreOptions& options() const { return options_; }
  size_t num_shards() const { return options_.num_shards; }
  /// Shard a stable id routes to.
  size_t ShardOf(ObjectId id) const { return id % options_.num_shards; }

  // Recovery-support hooks (store::RecoverStore only; single-threaded,
  // before durability attaches). They replay history with the *original*
  // ids, sequence numbers and version numbers so recovered snapshots are
  // bit-identical to the lost process's — a replayed record that cannot
  // apply fails with DataLoss instead of aborting, and the caller stops
  // replay there.

  /// Applies one replayed mutation record with its forced stable id and
  /// sequence number. Beyond the checks live writes pass, the id must be
  /// set and an insert id must not go below the next stable id; every
  /// failure is DataLoss.
  Status ApplyForRecovery(const WalRecord& record);
  /// Publishes with a forced version number (replaying a kPublish
  /// marker). DataLoss when `version` does not advance the store.
  Status PublishForRecovery(Version version);
  /// Restores the id/sequence/dimension watermarks a checkpoint recorded
  /// (monotonic: never moves a watermark backwards).
  Status SetRecoveryWatermarks(ObjectId next_id, uint64_t next_sequence,
                               size_t dim);

 private:
  /// One pending change to a shard's copy-on-write table: the latest
  /// state of a stable id since the last drain (tombstone for removes).
  struct LiveDelta {
    bool removed = false;
    LiveObject object;
  };
  using DeltaMap = std::map<ObjectId, LiveDelta>;

  /// Writer-side state of one shard, guarded by mu_.
  struct Shard {
    /// Immutable published table; replaced wholesale at publish install.
    std::shared_ptr<const LiveTable> table;
    /// Changes since the last drain.
    DeltaMap delta;
    /// Changes drained by an in-flight publish: still part of the logical
    /// live view until the merged table is installed.
    std::shared_ptr<const DeltaMap> draining;
    /// Pending write-ahead window.
    std::vector<WalRecord> wal;
    /// |table ∘ draining ∘ delta| — maintained incrementally.
    size_t live_count = 0;
  };

  StatusOr<ObjectId> ApplyLocked(const Mutation& mutation);
  /// Liveness of `id` in its shard's logical view (delta over draining
  /// over table); requires mu_.
  bool IsLiveLocked(const Shard& shard, ObjectId id) const;
  /// The one mutation check of live writes and replay: a PDF of the
  /// store's dimensionality and an existence in (0, 1] for inserts and
  /// updates, a live target for updates and removes. InvalidArgument or
  /// NotFound; requires mu_.
  Status ValidateLocked(const WalRecord& record) const;
  /// Installs the version-0 empty snapshot at construction.
  void InstallEmptySnapshot();
  /// Appends `record` to the WAL segment of shard ShardOf(record.id)
  /// (kPublish markers go to shard 0); requires mu_ and durable_. On
  /// failure the error becomes the sticky wal_status_.
  Status WalAppendLocked(const WalRecord& record);
  /// Applies a validated mutation record to its shard (WAL window, delta
  /// map, live count) and advances the id, sequence and dimension
  /// watermarks past it; requires mu_.
  void CommitMutationLocked(const WalRecord& record);
  /// Registers the store's metric series (constructor helper).
  void RegisterMetrics();

  const StoreOptions options_;

  // Observability handles (obs/metrics.h): registered once at
  // construction in options_.metrics_registry (or the private fallback);
  // all record paths are lock-free.
  std::unique_ptr<obs::MetricsRegistry> owned_registry_;
  obs::Histogram* obs_drain_seconds_ = nullptr;
  obs::Histogram* obs_build_seconds_ = nullptr;
  obs::Counter* obs_publishes_ = nullptr;
  obs::Counter* obs_wal_appends_ = nullptr;
  obs::Counter* obs_wal_bytes_ = nullptr;
  obs::Counter* obs_wal_fsyncs_ = nullptr;
  obs::Counter* obs_checkpoint_writes_ = nullptr;
  obs::Counter* obs_checkpoint_failures_ = nullptr;

  /// Writer state: per-shard CoW tables + pending WAL windows. Held
  /// briefly by mutators and by Publish's O(delta) drain/install steps.
  mutable std::mutex mu_;
  std::vector<Shard> shards_;
  ObjectId next_id_ = 0;
  uint64_t next_sequence_ = 1;
  size_t dim_ = 0;
  uint64_t total_mutations_ = 0;
  Version next_version_ = 1;
  PublishMetrics publish_metrics_;
  std::shared_ptr<const StoreSnapshot> latest_;
  std::deque<std::shared_ptr<const StoreSnapshot>> retained_;

  // Durable-mode state. durable_ flips once, inside AttachDurability
  // (which must not race with other operations); afterwards wal_writers_
  // is immutable and appends are serialized under mu_ while Publish()
  // fsyncs concurrently (safe — see WalShardWriter).
  bool durable_ = false;
  DurabilityOptions durability_;
  std::vector<std::unique_ptr<WalShardWriter>> wal_writers_;
  Status wal_status_;                          // guarded by mu_
  uint64_t publishes_since_checkpoint_ = 0;    // guarded by mu_
  std::atomic<uint64_t> checkpoint_writes_{0};
  std::atomic<uint64_t> checkpoint_failures_{0};

  /// Serializes publishers so snapshot builds (which run outside mu_)
  /// install in version order.
  std::mutex publish_mu_;
};

}  // namespace store
}  // namespace updb

#endif  // UPDB_STORE_OBJECT_STORE_H_
