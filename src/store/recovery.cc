#include "store/recovery.h"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "store/checkpoint.h"
#include "store/wal.h"

namespace updb {
namespace store {

std::string RecoveryReport::ToJson() const {
  std::string json = "{";
  const auto field = [&json](const char* name, uint64_t value) {
    json += "\"";
    json += name;
    json += "\":";
    json += std::to_string(value);
    json += ",";
  };
  field("checkpoint_version", checkpoint_version);
  field("checkpoint_entries", checkpoint_entries);
  field("recovered_version", recovered_version);
  field("replayed_mutations", replayed_mutations);
  field("replayed_publishes", replayed_publishes);
  field("pending_mutations", pending_mutations);
  field("truncated_bytes", truncated_bytes);
  field("dropped_records", dropped_records);
  json += "\"data_loss\":";
  json += data_loss ? "true" : "false";
  json += ",\"warnings\":[";
  for (size_t i = 0; i < warnings.size(); ++i) {
    if (i > 0) json += ",";
    json += "\"" + obs::JsonEscape(warnings[i]) + "\"";
  }
  json += "]}";
  return json;
}

StatusOr<std::unique_ptr<VersionedObjectStore>> RecoverStore(
    const std::string& wal_dir, StoreOptions options,
    RecoveryReport* report) {
  RecoveryReport local_report;
  RecoveryReport& rep = report != nullptr ? *report : local_report;
  rep = RecoveryReport();

  std::error_code ec;
  if (!std::filesystem::is_directory(wal_dir, ec)) {
    return Status::NotFound("no WAL directory at '" + wal_dir + "'");
  }

  // 1. Newest valid checkpoint; damage degrades instead of failing.
  CheckpointState ck;
  StatusOr<LoadedCheckpoint> loaded = LoadNewestCheckpoint(wal_dir);
  if (loaded.ok()) {
    for (const std::string& w : loaded->warnings) {
      rep.warnings.push_back(w);
      rep.data_loss = true;  // a newer checkpoint failed validation
    }
    ck = std::move(loaded->state);
  } else if (loaded.status().code() == StatusCode::kNotFound) {
    // Fresh directory (or WAL-only): empty start is the correct base.
  } else if (loaded.status().code() == StatusCode::kDataLoss) {
    rep.warnings.push_back(loaded.status().ToString() +
                           "; starting empty and replaying the full WAL");
    rep.data_loss = true;
  } else {
    return loaded.status();
  }
  rep.checkpoint_version = ck.version;
  rep.checkpoint_entries = ck.entries.size();

  // 2. Every WAL segment, regardless of the segment count it was written
  // with — replay merges by global sequence, so the file→shard routing of
  // the crashed process is irrelevant here.
  std::vector<std::string> segment_paths;
  for (const auto& it : std::filesystem::directory_iterator(wal_dir, ec)) {
    if (ParseWalShardFileName(it.path().filename().string(), nullptr)) {
      segment_paths.push_back(it.path().string());
    }
  }
  if (ec) {
    return Status::Unavailable("cannot read WAL directory '" + wal_dir +
                               "': " + ec.message());
  }
  std::sort(segment_paths.begin(), segment_paths.end());
  std::vector<WalRecord> records;
  for (const std::string& path : segment_paths) {
    StatusOr<WalReadResult> read = ReadWalFile(path);
    if (!read.ok()) return read.status();
    if (read->truncated_bytes > 0) {
      rep.truncated_bytes += read->truncated_bytes;
      rep.data_loss = true;
      rep.warnings.push_back(
          "'" + path + "': dropped " +
          std::to_string(read->truncated_bytes) + " tail bytes (" +
          read->truncation_reason + ")");
    }
    for (WalRecord& r : read->records) records.push_back(std::move(r));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const WalRecord& a, const WalRecord& b) {
                     return a.sequence < b.sequence;
                   });

  // 3. Rebuild: checkpoint entries (synthetic ascending sequences — the
  // real watermark is restored right after), publish the checkpointed
  // version, then replay the contiguous tail.
  auto store = std::make_unique<VersionedObjectStore>(options);
  uint64_t restore_seq = 0;
  for (const CheckpointEntry& entry : ck.entries) {
    WalRecord r;
    r.kind = WalRecordKind::kInsert;
    r.sequence = ++restore_seq;
    r.id = entry.stable_id;
    r.existence = entry.existence;
    r.pdf = entry.pdf;
    UPDB_RETURN_IF_ERROR(store->ApplyForRecovery(r));
  }
  if (ck.version > 0) {
    UPDB_RETURN_IF_ERROR(store->PublishForRecovery(ck.version));
  }
  UPDB_RETURN_IF_ERROR(
      store->SetRecoveryWatermarks(ck.next_id, ck.next_sequence, ck.dim));

  uint64_t expected = ck.next_sequence;
  for (size_t i = 0; i < records.size(); ++i) {
    const WalRecord& r = records[i];
    if (r.sequence < ck.next_sequence) continue;  // covered by checkpoint
    const auto drop_rest = [&](const std::string& why) {
      rep.dropped_records += records.size() - i;
      rep.data_loss = true;
      rep.warnings.push_back(why + "; dropped " +
                             std::to_string(records.size() - i) +
                             " later records");
    };
    if (r.sequence < expected) {
      drop_rest("duplicate WAL sequence " + std::to_string(r.sequence));
      break;
    }
    if (r.sequence > expected) {
      drop_rest("WAL sequence gap: expected " + std::to_string(expected) +
                ", found " + std::to_string(r.sequence));
      break;
    }
    Status applied;
    if (r.kind == WalRecordKind::kPublish) {
      applied = store->PublishForRecovery(r.version);
      if (applied.ok()) ++rep.replayed_publishes;
    } else {
      applied = store->ApplyForRecovery(r);
      if (applied.ok()) ++rep.replayed_mutations;
    }
    if (!applied.ok()) {
      drop_rest("record with sequence " + std::to_string(r.sequence) +
                " cannot replay: " + applied.ToString());
      break;
    }
    ++expected;
  }

  rep.recovered_version = store->version();
  rep.pending_mutations = store->pending_mutations();

  // Publish the recovery outcome to the store's registry (the store was
  // constructed with `options`, so this is the same registry — or its
  // private one — that serves the rest of the store's series).
  obs::MetricsRegistry& registry = options.metrics_registry != nullptr
                                       ? *options.metrics_registry
                                       : store->registry();
  registry.Counter("updb_recovery_runs_total", "Store recoveries attempted")
      ->Add();
  registry
      .Counter("updb_recovery_replayed_mutations_total",
               "WAL mutation records replayed during recovery")
      ->Add(rep.replayed_mutations);
  registry
      .Counter("updb_recovery_replayed_publishes_total",
               "WAL publish markers replayed during recovery")
      ->Add(rep.replayed_publishes);
  registry
      .Counter("updb_recovery_truncated_bytes_total",
               "WAL tail bytes dropped as torn or corrupt during recovery")
      ->Add(rep.truncated_bytes);
  registry
      .Counter("updb_recovery_dropped_records_total",
               "Decoded WAL records dropped during recovery")
      ->Add(rep.dropped_records);
  registry
      .Counter("updb_recovery_data_loss_total",
               "Recoveries that detected data loss")
      ->Add(rep.data_loss ? 1 : 0);
  return store;
}

}  // namespace store
}  // namespace updb
