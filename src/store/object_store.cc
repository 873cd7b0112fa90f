#include "store/object_store.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <utility>

#include "common/stopwatch.h"
#include "store/checkpoint.h"

namespace updb {
namespace store {

namespace {

/// Entry of `id` in a sorted CoW live table, nullptr when absent.
const LiveEntry* FindEntry(const LiveTable& table, ObjectId id) {
  const auto it = std::lower_bound(
      table.begin(), table.end(), id,
      [](const LiveEntry& e, ObjectId v) { return e.id < v; });
  return it != table.end() && it->id == id ? &*it : nullptr;
}

/// On-disk record kind of a mutation kind.
WalRecordKind WalKindOf(Mutation::Kind kind) {
  switch (kind) {
    case Mutation::Kind::kInsert:
      return WalRecordKind::kInsert;
    case Mutation::Kind::kUpdate:
      return WalRecordKind::kUpdate;
    case Mutation::Kind::kRemove:
      return WalRecordKind::kRemove;
  }
  return WalRecordKind::kInsert;
}

/// The published live set of `snap` as checkpoint entries (ascending
/// stable id — the dense-id order).
std::vector<CheckpointEntry> CheckpointEntriesOf(const StoreSnapshot& snap) {
  std::vector<CheckpointEntry> entries;
  entries.reserve(snap.size());
  const std::vector<UncertainObject>& objects = snap.db()->objects();
  for (size_t dense = 0; dense < snap.size(); ++dense) {
    const UncertainObject& o = objects[dense];
    entries.push_back(
        CheckpointEntry{snap.StableId(static_cast<ObjectId>(dense)),
                        o.shared_pdf(), o.existence()});
  }
  return entries;
}

/// Open()'s check of the WAL directory: named, and holding no WAL
/// segments or checkpoints a fresh store would overwrite.
Status CheckFreshWalDir(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("Open() requires durability.wal_dir");
  }
  std::error_code ec;
  for (const auto& it : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = it.path().filename().string();
    if (ParseWalShardFileName(name, nullptr) ||
        name.rfind("checkpoint-", 0) == 0) {
      return Status::FailedPrecondition(
          "'" + dir + "' already holds WAL segments or checkpoints; recover "
          "them with store::RecoverStore instead of overwriting");
    }
  }
  return Status::OK();
}

}  // namespace

const char* MutationKindName(Mutation::Kind kind) {
  switch (kind) {
    case Mutation::Kind::kInsert:
      return "insert";
    case Mutation::Kind::kUpdate:
      return "update";
    case Mutation::Kind::kRemove:
      return "remove";
  }
  return "unknown";
}

ObjectId StoreSnapshot::StableId(ObjectId dense) const {
  UPDB_CHECK(dense < stable_by_dense_->size());
  return (*stable_by_dense_)[dense];
}

StatusOr<ObjectId> StoreSnapshot::DenseId(ObjectId stable) const {
  const std::vector<ObjectId>& ids = *stable_by_dense_;
  const auto it = std::lower_bound(ids.begin(), ids.end(), stable);
  if (it == ids.end() || *it != stable) {
    return Status::NotFound("stable id not live at this version");
  }
  return static_cast<ObjectId>(it - ids.begin());
}

VersionedObjectStore::VersionedObjectStore(StoreOptions options)
    : options_(options) {
  UPDB_CHECK(options_.snapshot_retention >= 1);
  UPDB_CHECK(options_.leaf_capacity >= 2);
  UPDB_CHECK(!std::isnan(options_.compact_delta_fraction));
  UPDB_CHECK(options_.num_shards >= 1);
  RegisterMetrics();
  auto empty_table = std::make_shared<const LiveTable>();
  shards_.resize(options_.num_shards);
  for (Shard& shard : shards_) shard.table = empty_table;
  InstallEmptySnapshot();
}

void VersionedObjectStore::RegisterMetrics() {
  obs::MetricsRegistry* registry = options_.metrics_registry;
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<obs::MetricsRegistry>();
    registry = owned_registry_.get();
  }
  obs_drain_seconds_ = registry->Histogram(
      "updb_store_publish_drain_seconds",
      "Writer-mutex hold of the publish drain step");
  obs_build_seconds_ = registry->Histogram(
      "updb_store_publish_build_seconds",
      "Snapshot build time of a publish (outside the writer mutex)");
  obs_publishes_ = registry->Counter("updb_store_publishes_total",
                                     "Snapshots published");
  obs_wal_appends_ = registry->Counter("updb_wal_appends_total",
                                       "WAL records appended");
  obs_wal_bytes_ = registry->Counter("updb_wal_appended_bytes_total",
                                     "WAL frame bytes appended");
  obs_wal_fsyncs_ = registry->Counter("updb_wal_fsyncs_total",
                                      "WAL segment fsyncs");
  obs_checkpoint_writes_ = registry->Counter("updb_checkpoint_writes_total",
                                             "Checkpoints written");
  obs_checkpoint_failures_ = registry->Counter(
      "updb_checkpoint_failures_total", "Checkpoint writes that failed");
}

VersionedObjectStore::VersionedObjectStore(const UncertainDatabase& db,
                                           StoreOptions options)
    : VersionedObjectStore(options) {
  for (const UncertainObject& o : db.objects()) {
    const StatusOr<ObjectId> id = Insert(o.shared_pdf(), o.existence());
    UPDB_CHECK(id.ok());  // seed objects passed the same checks at Add()
  }
  Publish();
}

void VersionedObjectStore::InstallEmptySnapshot() {
  auto no_ids = std::make_shared<const std::vector<ObjectId>>();
  std::vector<SnapshotIndex> shard_indexes;
  shard_indexes.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    auto base = std::make_shared<const RTree>(std::vector<RTreeEntry>{},
                                              options_.leaf_capacity);
    shard_indexes.emplace_back(std::move(base), no_ids,
                               std::vector<RTreeEntry>{},
                               std::vector<ObjectId>{});
  }
  auto snap = std::shared_ptr<const StoreSnapshot>(new StoreSnapshot(
      /*version=*/0, std::make_shared<const UncertainDatabase>(),
      ShardedSnapshotIndex(std::move(shard_indexes), no_ids), no_ids));
  latest_ = snap;
  retained_.push_back(std::move(snap));
}

StatusOr<ObjectId> VersionedObjectStore::Insert(
    std::shared_ptr<const Pdf> pdf, double existence) {
  Mutation m;
  m.kind = Mutation::Kind::kInsert;
  m.pdf = std::move(pdf);
  m.existence = existence;
  return Apply(m);
}

Status VersionedObjectStore::Update(ObjectId id,
                                    std::shared_ptr<const Pdf> pdf,
                                    double existence) {
  Mutation m;
  m.kind = Mutation::Kind::kUpdate;
  m.id = id;
  m.pdf = std::move(pdf);
  m.existence = existence;
  return Apply(m).status();
}

Status VersionedObjectStore::Remove(ObjectId id) {
  Mutation m;
  m.kind = Mutation::Kind::kRemove;
  m.id = id;
  return Apply(m).status();
}

StatusOr<ObjectId> VersionedObjectStore::Apply(const Mutation& mutation) {
  std::lock_guard<std::mutex> lock(mu_);
  return ApplyLocked(mutation);
}

bool VersionedObjectStore::IsLiveLocked(const Shard& shard,
                                        ObjectId id) const {
  const auto delta_it = shard.delta.find(id);
  if (delta_it != shard.delta.end()) return !delta_it->second.removed;
  if (shard.draining != nullptr) {
    const auto drain_it = shard.draining->find(id);
    if (drain_it != shard.draining->end()) return !drain_it->second.removed;
  }
  return FindEntry(*shard.table, id) != nullptr;
}

StatusOr<ObjectId> VersionedObjectStore::ApplyLocked(
    const Mutation& mutation) {
  WalRecord record;
  record.kind = WalKindOf(mutation.kind);
  record.sequence = next_sequence_;
  record.id =
      mutation.kind == Mutation::Kind::kInsert ? next_id_ : mutation.id;
  record.existence = mutation.existence;
  record.pdf = mutation.pdf;
  // Validate fully before touching any state: a rejected mutation must
  // leave both the live view and the write-ahead windows unchanged.
  UPDB_RETURN_IF_ERROR(ValidateLocked(record));

  // Durable stores write ahead to the target shard's WAL segment before
  // any in-memory state changes; a failed (or unencodable) append rejects
  // the mutation with no side effects, and IO failures additionally stop
  // the store via the sticky wal_status_.
  if (durable_) UPDB_RETURN_IF_ERROR(WalAppendLocked(record));
  CommitMutationLocked(record);
  return record.id;
}

Status VersionedObjectStore::ValidateLocked(const WalRecord& record) const {
  switch (record.kind) {
    case WalRecordKind::kInsert:
    case WalRecordKind::kUpdate:
      if (record.pdf == nullptr) {
        return Status::InvalidArgument("mutation without PDF");
      }
      // Written as a negated range test so that NaN fails it too.
      if (!(record.existence > 0.0 && record.existence <= 1.0)) {
        return Status::InvalidArgument("existence must be in (0, 1]");
      }
      if (dim_ != 0 && record.pdf->bounds().dim() != dim_) {
        return Status::InvalidArgument("object dimensionality mismatch");
      }
      if (record.kind == WalRecordKind::kUpdate &&
          !IsLiveLocked(shards_[ShardOf(record.id)], record.id)) {
        return Status::NotFound("update of unknown object id");
      }
      return Status::OK();
    case WalRecordKind::kRemove:
      if (!IsLiveLocked(shards_[ShardOf(record.id)], record.id)) {
        return Status::NotFound("remove of unknown object id");
      }
      return Status::OK();
    case WalRecordKind::kPublish:
      break;
  }
  return Status::InvalidArgument("not a mutation record");
}

void VersionedObjectStore::CommitMutationLocked(const WalRecord& record) {
  Shard& shard = shards_[ShardOf(record.id)];

  // Write-ahead: log first, then apply to the shard's live delta.
  shard.wal.push_back(record);
  ++total_mutations_;
  next_sequence_ = std::max(next_sequence_, record.sequence + 1);

  if (record.kind == WalRecordKind::kRemove) {
    shard.delta[record.id] = LiveDelta{true, LiveObject{}};
    --shard.live_count;
    return;
  }
  shard.delta[record.id] =
      LiveDelta{false, LiveObject{record.pdf, record.existence}};
  if (record.kind == WalRecordKind::kInsert) {
    ++shard.live_count;
    next_id_ = std::max(next_id_, record.id + 1);
    if (dim_ == 0) dim_ = record.pdf->bounds().dim();
  }
}

Status VersionedObjectStore::WalAppendLocked(const WalRecord& record) {
  UPDB_DCHECK(durable_);
  if (!wal_status_.ok()) {
    return Status::Unavailable("durable store is failed: " +
                               wal_status_.ToString());
  }
  const size_t shard =
      record.kind == WalRecordKind::kPublish ? 0 : ShardOf(record.id);
  const Status appended = wal_writers_[shard]->Append(record);
  if (!appended.ok()) wal_status_ = appended;
  return appended;
}

std::shared_ptr<const StoreSnapshot> VersionedObjectStore::Publish(
    PublishStats* stats) {
  // Publishers serialize here so builds (which overlap with writers)
  // install in version order.
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  const size_t num_shards = shards_.size();

  PublishStats local_stats;
  std::vector<std::shared_ptr<const LiveTable>> tables(num_shards);
  std::vector<std::shared_ptr<const DeltaMap>> draining(num_shards);
  std::vector<std::vector<WalRecord>> windows(num_shards);
  std::shared_ptr<const StoreSnapshot> prev;
  Version version = 0;
  bool checkpoint_due = false;
  ObjectId ck_next_id = 0;
  uint64_t ck_next_sequence = 1;
  size_t ck_dim = 0;
  {
    // Drain: O(drained mutations + num_shards) — pointer grabs and moves
    // only, never a live-table copy. This is the only step writers wait
    // on; the timer starts after acquisition so drain_ms measures the
    // mutex *hold*, not contention-dependent lock wait.
    std::lock_guard<std::mutex> lock(mu_);
    Stopwatch drain_timer;
    for (size_t s = 0; s < num_shards; ++s) {
      Shard& shard = shards_[s];
      UPDB_DCHECK(shard.draining == nullptr);  // publishers serialize
      if (!shard.delta.empty()) {
        shard.draining = std::make_shared<const DeltaMap>(
            std::move(shard.delta));
        shard.delta.clear();
      }
      draining[s] = shard.draining;
      windows[s] = std::move(shard.wal);
      shard.wal.clear();
      tables[s] = shard.table;
      local_stats.drained_mutations += windows[s].size();
    }
    prev = latest_;
    version = next_version_++;
    if (durable_) {
      // The version-boundary marker consumes the next global sequence
      // number *inside* the drain, so every record drained into this
      // version has a smaller sequence and every still-pending one a
      // larger — recovery replays exactly this boundary. On append
      // failure the sequence is not consumed (no permanent gap); the
      // sticky wal_status_ stops further durable mutations anyway.
      WalRecord marker;
      marker.kind = WalRecordKind::kPublish;
      marker.sequence = next_sequence_;
      marker.version = version;
      if (WalAppendLocked(marker).ok()) ++next_sequence_;
      if (++publishes_since_checkpoint_ >= durability_.checkpoint_every) {
        checkpoint_due = true;
        publishes_since_checkpoint_ = 0;
      }
      ck_next_id = next_id_;
      ck_next_sequence = next_sequence_;
      ck_dim = dim_;
    }
    local_stats.drain_ms = drain_timer.ElapsedMillis();
  }
  obs_drain_seconds_->Record(local_stats.drain_ms / 1e3);
  if (options_.trace != nullptr) {
    // Backdated: the span covers the writer-mutex hold just released.
    const obs::TraceArg args[2] = {
        {"version", version}, {"drained", local_stats.drained_mutations}};
    options_.trace->RecordBackdatedSpan(
        "publish_drain", "store", options_.trace->NowNs(),
        static_cast<uint64_t>(local_stats.drain_ms * 1e6), args, 2);
  }

  Stopwatch build_timer;
  // Per shard: merge the CoW table with the drained delta, then compose
  // the shard's index overlay relative to the previous snapshot — keep
  // untouched deltas, re-derive every touched id from the merged table.
  std::vector<std::shared_ptr<const LiveTable>> merged(num_shards);
  std::vector<SnapshotIndex> shard_indexes;
  shard_indexes.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    if (draining[s] == nullptr) {
      merged[s] = tables[s];
    } else {
      auto table = std::make_shared<LiveTable>();
      table->reserve(tables[s]->size() + draining[s]->size());
      auto it = tables[s]->begin();
      const auto table_end = tables[s]->end();
      for (const auto& [id, change] : *draining[s]) {
        while (it != table_end && it->id < id) table->push_back(*it++);
        if (it != table_end && it->id == id) ++it;  // superseded
        if (!change.removed) table->push_back(LiveEntry{id, change.object});
      }
      table->insert(table->end(), it, table_end);
      merged[s] = std::move(table);
    }
    const LiveTable& live = *merged[s];

    // Stable ids touched by this shard's window (insert/update/remove
    // alike).
    std::vector<ObjectId> touched;
    touched.reserve(windows[s].size());
    for (const WalRecord& r : windows[s]) touched.push_back(r.id);
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()),
                  touched.end());
    const auto is_touched = [&touched](ObjectId id) {
      return std::binary_search(touched.begin(), touched.end(), id);
    };
    const SnapshotIndex& prev_shard = prev->index().shard(s);
    std::shared_ptr<const RTree> base = prev_shard.base_shared();
    std::shared_ptr<const std::vector<ObjectId>> base_ids =
        prev_shard.base_ids_shared();
    std::vector<RTreeEntry> added;
    added.reserve(prev_shard.added().size() + touched.size());
    for (const RTreeEntry& e : prev_shard.added()) {
      if (!is_touched(e.id)) added.push_back(e);
    }
    std::vector<ObjectId> removed = prev_shard.removed();
    for (ObjectId t : touched) {
      if (std::binary_search(base_ids->begin(), base_ids->end(), t)) {
        removed.push_back(t);
      }
      if (const LiveEntry* entry = FindEntry(live, t)) {
        added.push_back(RTreeEntry{entry->object.pdf->bounds(), t});
      }
    }
    std::sort(added.begin(), added.end(),
              [](const RTreeEntry& a, const RTreeEntry& b) {
                return a.id < b.id;
              });
    std::sort(removed.begin(), removed.end());
    removed.erase(std::unique(removed.begin(), removed.end()),
                  removed.end());

    const size_t delta = added.size() + removed.size();
    const bool rebuild =
        options_.compact_delta_fraction <= 0.0 ||
        static_cast<double>(delta) >
            options_.compact_delta_fraction *
                static_cast<double>(std::max<size_t>(base->size(), 1));
    if (rebuild) {
      std::vector<RTreeEntry> entries;
      auto shard_ids = std::make_shared<std::vector<ObjectId>>();
      entries.reserve(live.size());
      shard_ids->reserve(live.size());
      for (const LiveEntry& e : live) {
        entries.push_back(RTreeEntry{e.object.pdf->bounds(), e.id});
        shard_ids->push_back(e.id);
      }
      auto fresh = std::make_shared<const RTree>(std::move(entries),
                                                 options_.leaf_capacity);
      shard_indexes.emplace_back(std::move(fresh), std::move(shard_ids),
                                 std::vector<RTreeEntry>{},
                                 std::vector<ObjectId>{});
    } else {
      shard_indexes.emplace_back(std::move(base), std::move(base_ids),
                                 std::move(added), std::move(removed));
    }
  }

  // Global materialization: k-way merge of the shard tables in ascending
  // stable-id order (the dense-id space), building the database and the
  // stable↔dense translation the shard scans emit dense ids through.
  size_t total_live = 0;
  for (const auto& table : merged) total_live += table->size();
  auto stable_by_dense = std::make_shared<std::vector<ObjectId>>();
  stable_by_dense->reserve(total_live);
  auto db = std::make_shared<UncertainDatabase>();
  db->Reserve(total_live);
  std::vector<size_t> heads(num_shards, 0);
  for (size_t dense = 0; dense < total_live; ++dense) {
    size_t pick = num_shards;
    for (size_t s = 0; s < num_shards; ++s) {
      if (heads[s] >= merged[s]->size()) continue;
      if (pick == num_shards ||
          (*merged[s])[heads[s]].id < (*merged[pick])[heads[pick]].id) {
        pick = s;
      }
    }
    const LiveEntry& e = (*merged[pick])[heads[pick]++];
    stable_by_dense->push_back(e.id);
    db->Add(e.object.pdf, e.object.existence);
  }

  auto snap = std::shared_ptr<const StoreSnapshot>(new StoreSnapshot(
      version, std::move(db),
      ShardedSnapshotIndex(std::move(shard_indexes), stable_by_dense),
      stable_by_dense));
  local_stats.build_ms = build_timer.ElapsedMillis();
  obs_build_seconds_->Record(local_stats.build_ms / 1e3);
  if (options_.trace != nullptr) {
    const obs::TraceArg args[1] = {{"version", version}};
    options_.trace->RecordBackdatedSpan(
        "publish_build", "store", options_.trace->NowNs(),
        static_cast<uint64_t>(local_stats.build_ms * 1e6), args, 1);
  }

  // Under every_publish/every_batch, force the drained records to stable
  // storage *before* the snapshot becomes visible: a version a reader can
  // observe is a version recovery can rebuild. Runs outside mu_ —
  // concurrent appends belong to later versions and syncing them early is
  // harmless.
  Status sync_error;
  if (durable_ && durability_.fsync != FsyncPolicy::kNever) {
    obs::TraceSpan fsync_span(options_.trace, "wal_fsync", "store");
    fsync_span.AddArg("version", version);
    for (const auto& writer : wal_writers_) {
      if (!writer->dirty()) continue;
      const Status synced = writer->Sync();
      if (!synced.ok() && sync_error.ok()) sync_error = synced;
    }
  }

  {
    // Install: swap in the merged tables and the snapshot — O(num_shards)
    // pointer stores.
    std::lock_guard<std::mutex> lock(mu_);
    if (!sync_error.ok() && wal_status_.ok()) wal_status_ = sync_error;
    for (size_t s = 0; s < num_shards; ++s) {
      shards_[s].table = merged[s];
      shards_[s].draining = nullptr;
    }
    latest_ = snap;
    retained_.push_back(snap);
    while (retained_.size() > options_.snapshot_retention) {
      retained_.pop_front();
    }
    ++publish_metrics_.publishes;
    publish_metrics_.total_drain_ms += local_stats.drain_ms;
    publish_metrics_.max_drain_ms =
        std::max(publish_metrics_.max_drain_ms, local_stats.drain_ms);
    publish_metrics_.total_build_ms += local_stats.build_ms;
    publish_metrics_.max_build_ms =
        std::max(publish_metrics_.max_build_ms, local_stats.build_ms);
  }
  obs_publishes_->Add();

  if (checkpoint_due) {
    // Checkpoint the just-installed version (outside mu_, still under
    // publish_mu_). Always fsynced + atomically renamed regardless of the
    // WAL fsync policy; a failure is sticky but the in-memory snapshot
    // stays valid.
    obs::TraceSpan ck_span(options_.trace, "checkpoint_write", "store");
    ck_span.AddArg("version", version);
    CheckpointState ck;
    ck.version = version;
    ck.next_id = ck_next_id;
    ck.next_sequence = ck_next_sequence;
    ck.dim = ck_dim;
    ck.entries = CheckpointEntriesOf(*snap);
    Status ck_status = WriteCheckpoint(durability_.wal_dir, ck);
    if (ck_status.ok()) {
      ++checkpoint_writes_;
      obs_checkpoint_writes_->Add();
      ck_status =
          PruneCheckpoints(durability_.wal_dir, durability_.checkpoint_keep);
    } else {
      ++checkpoint_failures_;
      obs_checkpoint_failures_->Add();
    }
    if (!ck_status.ok()) {
      std::lock_guard<std::mutex> lock(mu_);
      if (wal_status_.ok()) wal_status_ = ck_status;
    }
  }

  if (stats != nullptr) *stats = local_stats;
  return snap;
}

StatusOr<std::unique_ptr<VersionedObjectStore>> VersionedObjectStore::Open(
    StoreOptions options) {
  UPDB_RETURN_IF_ERROR(CheckFreshWalDir(options.durability.wal_dir));
  auto store = std::make_unique<VersionedObjectStore>(options);
  UPDB_RETURN_IF_ERROR(store->AttachDurability(options.durability));
  return store;
}

StatusOr<std::unique_ptr<VersionedObjectStore>> VersionedObjectStore::Open(
    const UncertainDatabase& db, StoreOptions options) {
  UPDB_RETURN_IF_ERROR(CheckFreshWalDir(options.durability.wal_dir));
  auto store = std::make_unique<VersionedObjectStore>(db, options);
  UPDB_RETURN_IF_ERROR(store->AttachDurability(options.durability));
  return store;
}

Status VersionedObjectStore::AttachDurability(
    const DurabilityOptions& durability) {
  // publish_mu_ keeps any concurrent Publish out of the capture below;
  // the caller guarantees no concurrent mutators (see header).
  std::lock_guard<std::mutex> publish_lock(publish_mu_);
  if (durable_) {
    return Status::FailedPrecondition("durability already attached");
  }
  if (durability.wal_dir.empty()) {
    return Status::InvalidArgument("durability requires a wal_dir");
  }
  if (durability.checkpoint_every == 0 || durability.checkpoint_keep == 0) {
    return Status::InvalidArgument(
        "checkpoint_every and checkpoint_keep must be >= 1");
  }
  std::error_code ec;
  std::filesystem::create_directories(durability.wal_dir, ec);
  if (ec) {
    return Status::Unavailable("cannot create WAL directory '" +
                               durability.wal_dir + "': " + ec.message());
  }

  // Capture the published state and the still-pending windows. The
  // checkpoint's next_sequence points at the first pending record, so a
  // crash at any point below replays the pending tail from whichever
  // segment set (old or fresh) survives.
  CheckpointState ck;
  std::vector<WalRecord> pending;
  std::shared_ptr<const StoreSnapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snap = latest_;
    ck.version = snap->version();
    ck.next_id = next_id_;
    ck.dim = dim_;
    for (const Shard& shard : shards_) {
      pending.insert(pending.end(), shard.wal.begin(), shard.wal.end());
    }
    std::sort(pending.begin(), pending.end(),
              [](const WalRecord& a, const WalRecord& b) {
                return a.sequence < b.sequence;
              });
    ck.next_sequence =
        pending.empty() ? next_sequence_ : pending.front().sequence;
  }
  ck.entries = CheckpointEntriesOf(*snap);
  UPDB_RETURN_IF_ERROR(WriteCheckpoint(durability.wal_dir, ck));
  ++checkpoint_writes_;
  obs_checkpoint_writes_->Add();

  // Rebuild the WAL segment set from scratch: delete every stale segment
  // (including those of a different shard count — replay routes by
  // sequence, but leftovers would shadow fresh appends), open fresh ones,
  // re-append the pending mutations, and sync.
  for (const auto& it :
       std::filesystem::directory_iterator(durability.wal_dir, ec)) {
    if (ParseWalShardFileName(it.path().filename().string(), nullptr)) {
      std::error_code rm_ec;
      std::filesystem::remove(it.path(), rm_ec);
      if (rm_ec) {
        return Status::Unavailable("cannot remove stale WAL segment '" +
                                   it.path().string() + "'");
      }
    }
  }
  std::vector<std::unique_ptr<WalShardWriter>> writers;
  writers.reserve(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    StatusOr<std::unique_ptr<WalShardWriter>> writer = WalShardWriter::Open(
        durability.wal_dir + "/" + WalShardFileName(s), /*truncate=*/true);
    if (!writer.ok()) return writer.status();
    writer.value()->SetMetrics(obs_wal_appends_, obs_wal_bytes_,
                               obs_wal_fsyncs_);
    writers.push_back(std::move(writer).value());
  }
  for (const WalRecord& r : pending) {
    UPDB_RETURN_IF_ERROR(writers[ShardOf(r.id)]->Append(r));
  }
  for (const auto& writer : writers) {
    UPDB_RETURN_IF_ERROR(writer->Sync());
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    durable_ = true;
    durability_ = durability;
    wal_writers_ = std::move(writers);
    wal_status_ = Status::OK();
    publishes_since_checkpoint_ = 0;
  }
  // Best-effort: stale checkpoints never affect correctness.
  (void)PruneCheckpoints(durability.wal_dir, durability.checkpoint_keep);
  return Status::OK();
}

Status VersionedObjectStore::wal_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_status_;
}

std::string WalStats::ToJson(const Status& wal_status) const {
  std::string json = "{\"durable\":";
  json += durable ? "true" : "false";
  json += ",\"fsync_policy\":\"";
  json += FsyncPolicyName(fsync);
  json += "\",\"appends\":" + std::to_string(appends);
  json += ",\"appended_bytes\":" + std::to_string(appended_bytes);
  json += ",\"fsyncs\":" + std::to_string(fsyncs);
  json += ",\"checkpoint_writes\":" + std::to_string(checkpoint_writes);
  json += ",\"checkpoint_failures\":" + std::to_string(checkpoint_failures);
  json += ",\"status\":\"" + obs::JsonEscape(wal_status.ToString()) + "\"}";
  return json;
}

WalStats VersionedObjectStore::wal_stats() const {
  WalStats out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out.durable = durable_;
    out.fsync = durability_.fsync;
    // Writer odometers are atomics; summing under mu_ keeps the set of
    // writers stable (AttachDurability swaps the vector under mu_).
    for (const auto& writer : wal_writers_) {
      out.appends += writer->appended_records();
      out.appended_bytes += writer->appended_bytes();
      out.fsyncs += writer->fsyncs();
    }
  }
  out.checkpoint_writes = checkpoint_writes_;
  out.checkpoint_failures = checkpoint_failures_;
  return out;
}

Status VersionedObjectStore::SyncWal() {
  if (!durable_) return Status::OK();
  Status first;
  for (const auto& writer : wal_writers_) {
    if (!writer->dirty()) continue;
    const Status synced = writer->Sync();
    if (!synced.ok() && first.ok()) first = synced;
  }
  if (!first.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    if (wal_status_.ok()) wal_status_ = first;
  }
  return first;
}

Status VersionedObjectStore::ApplyForRecovery(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_) {
    return Status::FailedPrecondition(
        "recovery replay after durability attached");
  }
  // A CRC-valid record whose content cannot apply is corruption too —
  // reject with DataLoss (the caller truncates replay there), never abort.
  if (record.id == kInvalidObjectId) {
    return Status::DataLoss("replayed record without a target id");
  }
  if (record.kind == WalRecordKind::kInsert && record.id < next_id_) {
    return Status::DataLoss("replayed insert id regresses");
  }
  const Status valid = ValidateLocked(record);
  if (!valid.ok()) {
    return Status::DataLoss("replayed record cannot apply: " +
                            valid.message());
  }
  CommitMutationLocked(record);
  return Status::OK();
}

Status VersionedObjectStore::PublishForRecovery(Version version) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (durable_) {
      return Status::FailedPrecondition(
          "recovery replay after durability attached");
    }
    if (version < next_version_) {
      return Status::DataLoss("replayed publish version regresses");
    }
    next_version_ = version;
  }
  Publish();
  return Status::OK();
}

Status VersionedObjectStore::SetRecoveryWatermarks(ObjectId next_id,
                                                   uint64_t next_sequence,
                                                   size_t dim) {
  std::lock_guard<std::mutex> lock(mu_);
  if (durable_) {
    return Status::FailedPrecondition(
        "recovery replay after durability attached");
  }
  if (dim != 0) {
    if (dim_ != 0 && dim_ != dim) {
      return Status::DataLoss(
          "checkpoint dimensionality disagrees with restored state");
    }
    dim_ = dim;
  }
  next_id_ = std::max(next_id_, next_id);
  next_sequence_ = std::max(next_sequence_, next_sequence);
  return Status::OK();
}

std::shared_ptr<const StoreSnapshot> VersionedObjectStore::latest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_;
}

std::shared_ptr<const StoreSnapshot> VersionedObjectStore::snapshot(
    Version version) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& snap : retained_) {
    if (snap->version() == version) return snap;
  }
  return nullptr;
}

Version VersionedObjectStore::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return latest_->version();
}

size_t VersionedObjectStore::live_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.live_count;
  return total;
}

std::vector<size_t> VersionedObjectStore::ShardLiveCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<size_t> counts;
  counts.reserve(shards_.size());
  for (const Shard& shard : shards_) counts.push_back(shard.live_count);
  return counts;
}

size_t VersionedObjectStore::pending_mutations() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t total = 0;
  for (const Shard& shard : shards_) total += shard.wal.size();
  return total;
}

uint64_t VersionedObjectStore::total_mutations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_mutations_;
}

PublishMetrics VersionedObjectStore::publish_metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return publish_metrics_;
}

std::vector<WalRecord> VersionedObjectStore::PendingLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<WalRecord> log;
  for (const Shard& shard : shards_) {
    log.insert(log.end(), shard.wal.begin(), shard.wal.end());
  }
  std::sort(log.begin(), log.end(),
            [](const WalRecord& a, const WalRecord& b) {
              return a.sequence < b.sequence;
            });
  return log;
}

std::vector<ObjectId> VersionedObjectStore::LiveIds() const {
  // Consistent per-shard views — immutable table/draining pointers plus an
  // O(delta) copy of the pending map — so the walks and the final sort run
  // off the writer mutex (the mutex-hold discipline is O(delta), same as
  // the publish drain).
  struct ShardView {
    std::shared_ptr<const LiveTable> table;
    std::shared_ptr<const DeltaMap> draining;
    DeltaMap delta;
  };
  std::vector<ShardView> views;
  {
    std::lock_guard<std::mutex> lock(mu_);
    views.reserve(shards_.size());
    for (const Shard& shard : shards_) {
      views.push_back(ShardView{shard.table, shard.draining, shard.delta});
    }
  }
  static const DeltaMap kEmptyDelta;
  std::vector<ObjectId> ids;
  for (const ShardView& view : views) {
    // Three-way ascending walk of table ∘ draining ∘ delta (rightmost
    // wins), appending this shard's live ids.
    const LiveTable& table = *view.table;
    const DeltaMap& draining =
        view.draining != nullptr ? *view.draining : kEmptyDelta;
    size_t ti = 0;
    auto di = draining.begin();
    auto pi = view.delta.begin();
    while (ti < table.size() || di != draining.end() ||
           pi != view.delta.end()) {
      ObjectId id = kInvalidObjectId;
      if (ti < table.size()) id = std::min(id, table[ti].id);
      if (di != draining.end()) id = std::min(id, di->first);
      if (pi != view.delta.end()) id = std::min(id, pi->first);
      bool removed = false;
      if (pi != view.delta.end() && pi->first == id) {
        removed = pi->second.removed;
      } else if (di != draining.end() && di->first == id) {
        removed = di->second.removed;
      }
      if (!removed) ids.push_back(id);
      if (ti < table.size() && table[ti].id == id) ++ti;
      if (di != draining.end() && di->first == id) ++di;
      if (pi != view.delta.end() && pi->first == id) ++pi;
    }
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

size_t VersionedObjectStore::dim() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dim_;
}

}  // namespace store
}  // namespace updb
