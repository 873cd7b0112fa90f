// Copyright 2026 The updb Authors.
// Durable write-ahead log for the versioned object store: append-only
// per-shard files of length-prefixed, CRC32C-framed records.
//
// Frame layout (host byte order; one frame per record):
//
//   +----------------+----------------+------+-------------------+
//   | u32 payload len| u32 CRC32C     | u8   | payload bytes ... |
//   | (kind+payload) | (kind+payload) | kind |                   |
//   +----------------+----------------+------+-------------------+
//
// The CRC covers the kind byte and the payload, so a torn tail (partial
// header, partial payload) and a bit-flipped record are both detected.
// ReadWalFile() truncates at the first torn or corrupt frame and reports
// how many tail bytes it dropped — it never aborts on a damaged file.
//
// EncodeWalFrame() and ReadWalFile() each switch over WalRecordKind to
// pick a kind's payload encoding; a kind byte that names no kind is
// corruption to the reader.
//
// Mutation payloads reuse the textual object serialization of
// io/dataset_io (round-trip exact: doubles are printed with %.17g), so a
// replayed insert reconstructs a bit-identical PDF and recovered stores
// serve payloads digest-equal to the original's.

#ifndef UPDB_STORE_WAL_H_
#define UPDB_STORE_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"
#include "uncertain/object.h"
#include "uncertain/pdf.h"

namespace updb {
namespace store {

/// When WAL appends are flushed to stable storage. Appends always reach
/// the OS (unbuffered writes); the policy only controls fsync frequency.
enum class FsyncPolicy {
  /// Never fsync the WAL (checkpoint installs still sync). Fastest;
  /// durability of the tail depends on the OS surviving the crash.
  kNever = 0,
  /// Fsync all dirty shard WALs once per Publish(), before the snapshot
  /// installs — every published version is durable.
  kEveryPublish = 1,
  /// Additionally fsync after every applied mutation batch (the batch
  /// appliers call VersionedObjectStore::SyncWal()). Strictest and
  /// slowest; every acknowledged batch is durable.
  kEveryBatch = 2,
};

/// Stable name ("never", "every_publish", "every_batch").
const char* FsyncPolicyName(FsyncPolicy policy);
/// Parses a stable name; InvalidArgument on anything else.
StatusOr<FsyncPolicy> ParseFsyncPolicy(std::string_view name);

/// CRC32C (Castagnoli) of `n` bytes, software table implementation.
uint32_t Crc32c(const void* data, size_t n);

/// Durable record kinds. Values are the on-disk kind bytes and must never
/// be renumbered.
enum class WalRecordKind : uint8_t {
  kInsert = 1,
  kUpdate = 2,
  kRemove = 3,
  /// Version-boundary marker: replaying one reproduces the original
  /// publish cadence, so recovered stores re-serve the exact version
  /// numbers (and contents) the original process published.
  kPublish = 4,
};

/// One decoded WAL record — the union of all kinds' fields.
struct WalRecord {
  WalRecordKind kind = WalRecordKind::kInsert;
  /// Global 1-based sequence number; every record (mutations and publish
  /// markers alike) consumes one, so recovery can detect gaps.
  uint64_t sequence = 0;
  /// Mutation target (inserts: the id the store assigned). Unused for
  /// kPublish.
  ObjectId id = kInvalidObjectId;
  /// kInsert/kUpdate payload.
  double existence = 1.0;
  std::shared_ptr<const Pdf> pdf;
  /// kPublish: the version the marker published.
  uint64_t version = 0;
};

/// Encodes one record as a complete frame (header + kind + payload).
/// Fails with Unimplemented when the PDF type has no serialization and
/// with InvalidArgument on a kind WalRecordKind does not name.
StatusOr<std::string> EncodeWalFrame(const WalRecord& record);

/// Result of reading one WAL file. A damaged tail is not an error: the
/// valid prefix is returned and the damage is described.
struct WalReadResult {
  std::vector<WalRecord> records;
  /// Bytes of the valid frame prefix.
  uint64_t valid_bytes = 0;
  /// Tail bytes dropped at the first torn or corrupt frame (0 = clean).
  uint64_t truncated_bytes = 0;
  /// Why the tail was dropped (empty when clean).
  std::string truncation_reason;
};

/// Reads every valid frame of `path`, truncating at the first torn or
/// CRC-corrupt record. Unavailable when the file cannot be opened.
StatusOr<WalReadResult> ReadWalFile(const std::string& path);

/// Parses "<prefix><decimal digits><suffix>" back to its number; false
/// for any other name. The one parser of the numbered file names in a WAL
/// directory (WAL segments here, checkpoints in store/checkpoint.h).
bool ParseNumberedFileName(std::string_view name, std::string_view prefix,
                           std::string_view suffix, uint64_t* number);

/// Name of shard `s`'s WAL segment within a WAL directory.
std::string WalShardFileName(size_t shard);
/// Parses a WalShardFileName back to its shard number (for directory
/// scans); returns false for non-WAL names.
bool ParseWalShardFileName(std::string_view name, size_t* shard);

/// Append handle for one shard's WAL file. Writes are unbuffered (each
/// append reaches the OS before returning); Sync() forces them to stable
/// storage. Appends must be serialized (the store holds its writer mutex),
/// but Sync() may run concurrently with an append — fsync of a file that
/// is being written simply syncs whatever has reached the OS, and the
/// bookkeeping flags are atomic.
class WalShardWriter {
 public:
  /// Opens (creating if needed) for append; `truncate` discards existing
  /// content first. Unavailable on failure.
  static StatusOr<std::unique_ptr<WalShardWriter>> Open(
      const std::string& path, bool truncate);
  ~WalShardWriter();

  WalShardWriter(const WalShardWriter&) = delete;
  WalShardWriter& operator=(const WalShardWriter&) = delete;

  /// Encodes and appends one record. Unavailable on write failure.
  Status Append(const WalRecord& record);
  /// fsync. Unavailable on failure.
  Status Sync();

  const std::string& path() const { return path_; }
  uint64_t appended_records() const { return appended_records_; }
  uint64_t appended_bytes() const { return appended_bytes_; }
  uint64_t fsyncs() const { return fsyncs_; }
  /// True when records were appended since the last Sync().
  bool dirty() const { return dirty_; }

  /// Wires the writer's append/byte/fsync odometers to registry counters
  /// (shared across a store's shard writers — all nullptr by default; the
  /// store calls this once right after opening, before any append).
  void SetMetrics(obs::Counter* appends, obs::Counter* bytes,
                  obs::Counter* syncs) {
    metric_appends_ = appends;
    metric_bytes_ = bytes;
    metric_fsyncs_ = syncs;
  }

 private:
  WalShardWriter(std::string path, int fd) : path_(std::move(path)), fd_(fd) {}

  std::string path_;
  int fd_ = -1;
  std::atomic<uint64_t> appended_records_{0};
  std::atomic<uint64_t> appended_bytes_{0};
  std::atomic<uint64_t> fsyncs_{0};
  std::atomic<bool> dirty_{false};
  obs::Counter* metric_appends_ = nullptr;
  obs::Counter* metric_bytes_ = nullptr;
  obs::Counter* metric_fsyncs_ = nullptr;
};

}  // namespace store
}  // namespace updb

#endif  // UPDB_STORE_WAL_H_
