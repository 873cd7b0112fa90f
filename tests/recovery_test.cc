// Kill-and-restart fault injection for the durable store. The "crash" is
// abandoning a durable VersionedObjectStore object (never flushing
// anything beyond what its fsync policy already did — appends are
// unbuffered, so the on-disk state equals what a killed process leaves in
// the page cache), optionally mangling the WAL directory byte-by-byte,
// then rebuilding with store::RecoverStore. The oracle is an in-memory
// reference store replaying the identical pre-generated churn schedule:
// recovered snapshots must digest-match the reference at every version —
// bit-identical served payloads, not just equal sizes.

#include "store/recovery.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "service/query_service.h"
#include "service/trace.h"
#include "store/checkpoint.h"
#include "store/object_store.h"
#include "store/wal.h"
#include "test_shards.h"
#include "workload/churn.h"
#include "workload/generators.h"

namespace updb {
namespace store {
namespace {

using test_util::TestShards;

std::string FreshDir(const std::string& name) {
  const std::string dir =
      std::string(::testing::TempDir()) + "/updb_recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

StoreOptions BaseOptions() {
  StoreOptions opts;
  opts.num_shards = TestShards();
  opts.snapshot_retention = 64;
  return opts;
}

StoreOptions DurableOptions(const std::string& wal_dir,
                            FsyncPolicy fsync = FsyncPolicy::kEveryPublish,
                            uint64_t checkpoint_every = 2) {
  StoreOptions opts = BaseOptions();
  opts.durability.wal_dir = wal_dir;
  opts.durability.fsync = fsync;
  opts.durability.checkpoint_every = checkpoint_every;
  return opts;
}

std::vector<workload::ChurnStep> MakeSchedule(size_t batches,
                                              uint64_t seed = 91) {
  workload::ChurnConfig cfg;
  cfg.mutations_per_batch = 9;
  cfg.max_extent = 0.08;
  cfg.uncertain_existence_fraction = 0.25;
  Rng rng(seed);
  return workload::MakeChurnSchedule(batches, /*dim=*/2, cfg, rng);
}

/// Served-payload digest of one snapshot: a seed-deterministic trace
/// derived from the snapshot's own database, replayed through the query
/// service. Identical state → identical trace → identical digest; any
/// divergence in contents, dense-id packing, or version number shows up.
uint64_t SnapshotDigest(std::shared_ptr<const StoreSnapshot> snap) {
  if (snap->size() == 0) return 0xE0E0E0E0u ^ snap->version();
  service::TraceConfig tcfg;
  tcfg.num_requests = 6;
  tcfg.query_extent = 0.1;
  tcfg.budget.max_iterations = 3;
  tcfg.seed = 900 + snap->version();
  const std::vector<service::QueryRequest> trace =
      service::MakeTrace(*snap->db(), tcfg);
  service::QueryServiceOptions opts;
  opts.num_workers = 2;
  opts.batch_size = 4;
  opts.max_queue = trace.size() + 1;
  service::QueryService svc(std::move(snap), opts);
  const service::ReplayResult result =
      service::ReplayTrace(svc, trace, /*qps=*/0.0);
  return service::ResponseDigest(result.responses);
}

/// Asserts `got` serves states bit-identical to `want`: latest version,
/// live set, pending window, and the digest of every version retained by
/// both stores.
void ExpectStoresEquivalent(VersionedObjectStore& got,
                            VersionedObjectStore& want,
                            const std::string& context) {
  ASSERT_EQ(got.version(), want.version()) << context;
  EXPECT_EQ(got.live_size(), want.live_size()) << context;
  EXPECT_EQ(got.LiveIds(), want.LiveIds()) << context;
  EXPECT_EQ(got.pending_mutations(), want.pending_mutations()) << context;
  size_t compared = 0;
  for (Version v = 0; v <= want.version(); ++v) {
    const auto got_snap = got.snapshot(v);
    const auto want_snap = want.snapshot(v);
    if (got_snap == nullptr || want_snap == nullptr) continue;
    ASSERT_EQ(got_snap->size(), want_snap->size())
        << context << " version " << v;
    EXPECT_EQ(SnapshotDigest(got_snap), SnapshotDigest(want_snap))
        << context << " version " << v;
    ++compared;
  }
  EXPECT_GE(compared, 1u) << context;
}

/// In-memory reference store after the first `steps` schedule entries.
std::unique_ptr<VersionedObjectStore> ReferencePrefix(
    const std::vector<workload::ChurnStep>& schedule, size_t steps) {
  auto ref = std::make_unique<VersionedObjectStore>(BaseOptions());
  EXPECT_TRUE(workload::ApplyChurnPrefix(*ref, schedule, steps).ok());
  return ref;
}

void CorruptByte(const std::string& path, uint64_t at, uint8_t mask) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(at));
  char c = 0;
  f.read(&c, 1);
  f.seekp(static_cast<std::streamoff>(at));
  c = static_cast<char>(c ^ mask);
  f.write(&c, 1);
  ASSERT_TRUE(f.good()) << path;
}

TEST(RecoveryTest, CleanKillAndRestartServesIdenticalPayloads) {
  const std::string dir = FreshDir("clean");
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(6);
  {
    // Cadence 4 over 6 publishes: recovery must combine a mid-history
    // checkpoint with a genuine WAL tail replay.
    StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
        VersionedObjectStore::Open(
            DurableOptions(dir, FsyncPolicy::kEveryPublish,
                           /*checkpoint_every=*/4));
    ASSERT_TRUE(victim.ok()) << victim.status().ToString();
    ASSERT_TRUE(
        workload::ApplyChurnPrefix(**victim, schedule, schedule.size()).ok());
    ASSERT_TRUE((*victim)->wal_status().ok());
  }  // crash: the victim is abandoned

  RecoveryReport report;
  StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
      RecoverStore(dir, BaseOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(report.data_loss) << report.ToJson();
  EXPECT_EQ(report.truncated_bytes, 0u);
  EXPECT_EQ(report.dropped_records, 0u);
  EXPECT_GT(report.replayed_publishes, 0u);

  const auto reference = ReferencePrefix(schedule, schedule.size());
  ExpectStoresEquivalent(**recovered, *reference, "clean restart");
}

TEST(RecoveryTest, EveryKillPointRecoversThatPrefix) {
  // Crash after every schedule step — mid-batch, at batch boundaries,
  // and immediately after publishes — and require the recovered store to
  // equal the reference replay of exactly that prefix. Because Open()
  // starts sequences at 1, step k of the schedule carries sequence k+1,
  // so nothing of an abandoned prefix leaks into the next.
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(3);
  for (size_t kill = 0; kill <= schedule.size(); kill += 1) {
    const std::string dir =
        FreshDir("killpoint_" + std::to_string(kill));
    {
      StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
          VersionedObjectStore::Open(
              DurableOptions(dir, FsyncPolicy::kEveryBatch));
      ASSERT_TRUE(victim.ok());
      ASSERT_TRUE(workload::ApplyChurnPrefix(**victim, schedule, kill).ok());
    }
    RecoveryReport report;
    StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
        RecoverStore(dir, BaseOptions(), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_FALSE(report.data_loss)
        << "kill=" << kill << " " << report.ToJson();
    const auto reference = ReferencePrefix(schedule, kill);
    ExpectStoresEquivalent(**recovered, *reference,
                           "kill point " + std::to_string(kill));
  }
}

/// Frame boundaries of a WAL segment (byte offset of each frame start,
/// plus the end offset), via the public reader contract.
std::vector<uint64_t> FrameOffsets(const std::string& path) {
  std::vector<uint64_t> offsets;
  const StatusOr<WalReadResult> read = ReadWalFile(path);
  EXPECT_TRUE(read.ok());
  std::ifstream in(path, std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  uint64_t pos = 0;
  while (pos + 8 <= read->valid_bytes) {
    offsets.push_back(pos);
    uint32_t len = 0;
    for (int b = 3; b >= 0; --b) {
      len = (len << 8) | static_cast<uint8_t>(data[pos + b]);
    }
    pos += 8 + len;
  }
  offsets.push_back(pos);
  return offsets;
}

TEST(RecoveryTest, TornTailRecoversCleanlyAtEveryTruncationOffset) {
  // Shear the final record of shard 0's segment at *every* byte offset.
  // Shard 0 carries the publish markers, so with a single-shard victim
  // its file is the global WAL; the expected recovered state is the
  // schedule prefix that excludes exactly the sheared record.
  const std::string pristine = FreshDir("torn_pristine");
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(3);
  StoreOptions victim_options = DurableOptions(pristine);
  victim_options.num_shards = 1;
  {
    StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
        VersionedObjectStore::Open(victim_options);
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(
        workload::ApplyChurnPrefix(**victim, schedule, schedule.size()).ok());
  }
  const std::string segment = pristine + "/" + WalShardFileName(0);
  const std::vector<uint64_t> offsets = FrameOffsets(segment);
  ASSERT_GE(offsets.size(), 3u);
  const uint64_t last_start = offsets[offsets.size() - 2];
  const uint64_t file_end = offsets.back();
  // Sequence numbers are 1:1 with schedule steps, so dropping the final
  // record leaves the prefix of all but the last step.
  const auto reference = ReferencePrefix(schedule, schedule.size() - 1);

  for (uint64_t cut = last_start; cut < file_end; ++cut) {
    const std::string dir = FreshDir("torn_cut");
    std::filesystem::copy(pristine, dir);
    std::filesystem::resize_file(dir + "/" + WalShardFileName(0), cut);
    RecoveryReport report;
    StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
        RecoverStore(dir, BaseOptions(), &report);
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << " " << recovered.status().ToString();
    if (cut > last_start) {
      EXPECT_EQ(report.truncated_bytes, cut - last_start) << "cut=" << cut;
      EXPECT_TRUE(report.data_loss) << "cut=" << cut;
    } else {
      EXPECT_EQ(report.truncated_bytes, 0u);
    }
    ExpectStoresEquivalent(**recovered, *reference,
                           "truncation at byte " + std::to_string(cut));
  }
}

TEST(RecoveryTest, BitFlipInFinalRecordDropsOnlyThatRecord) {
  const std::string pristine = FreshDir("flip_pristine");
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(2);
  // Cadence larger than the history: only the attach-time (empty)
  // checkpoint exists, so the recovered state depends purely on the WAL
  // and the flipped record cannot hide behind a checkpoint.
  StoreOptions victim_options =
      DurableOptions(pristine, FsyncPolicy::kEveryPublish,
                     /*checkpoint_every=*/100);
  victim_options.num_shards = 1;
  {
    StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
        VersionedObjectStore::Open(victim_options);
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(
        workload::ApplyChurnPrefix(**victim, schedule, schedule.size()).ok());
  }
  const std::string segment = pristine + "/" + WalShardFileName(0);
  const std::vector<uint64_t> offsets = FrameOffsets(segment);
  const uint64_t last_start = offsets[offsets.size() - 2];
  const uint64_t file_end = offsets.back();
  const auto reference = ReferencePrefix(schedule, schedule.size() - 1);

  for (uint64_t at = last_start; at < file_end; ++at) {
    const std::string dir = FreshDir("flip_at");
    std::filesystem::copy(pristine, dir);
    CorruptByte(dir + "/" + WalShardFileName(0), at, 0x20);
    RecoveryReport report;
    StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
        RecoverStore(dir, BaseOptions(), &report);
    ASSERT_TRUE(recovered.ok()) << "at=" << at;
    EXPECT_TRUE(report.data_loss) << "at=" << at;
    ExpectStoresEquivalent(**recovered, *reference,
                           "bit flip at byte " + std::to_string(at));
  }
}

TEST(RecoveryTest, CorruptNewestCheckpointFallsBackToOlder) {
  const std::string dir = FreshDir("ck_fallback");
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(5);
  {
    // checkpoint_every=1: one checkpoint per publish, two retained.
    StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
        VersionedObjectStore::Open(
            DurableOptions(dir, FsyncPolicy::kEveryPublish,
                           /*checkpoint_every=*/1));
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(
        workload::ApplyChurnPrefix(**victim, schedule, schedule.size()).ok());
  }
  std::vector<std::string> checkpoints;
  for (const auto& it : std::filesystem::directory_iterator(dir)) {
    const std::string name = it.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0) checkpoints.push_back(name);
  }
  std::sort(checkpoints.begin(), checkpoints.end());
  ASSERT_EQ(checkpoints.size(), 2u);
  // A stale .tmp from a crash mid-checkpoint must be ignored too.
  std::ofstream(dir + "/checkpoint-99999.updbck.tmp") << "garbage";
  CorruptByte(dir + "/" + checkpoints.back(), 40, 0xFF);

  RecoveryReport report;
  StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
      RecoverStore(dir, BaseOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(report.data_loss);      // a newer checkpoint was rejected
  EXPECT_FALSE(report.warnings.empty());
  // The WAL covers everything since Open(), so the older checkpoint plus
  // a longer replay still reaches the exact final state.
  const auto reference = ReferencePrefix(schedule, schedule.size());
  ExpectStoresEquivalent(**recovered, *reference, "checkpoint fallback");

  // All checkpoints corrupt: degrade to empty start + full WAL replay.
  // (CorruptByte XORs, so hit a byte the first phase did not touch —
  // re-XORing byte 40 of the newest file would restore it.)
  for (const std::string& name : checkpoints) {
    CorruptByte(dir + "/" + name, 41, 0xFF);
  }
  RecoveryReport full_replay;
  recovered = RecoverStore(dir, BaseOptions(), &full_replay);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(full_replay.data_loss);
  EXPECT_EQ(full_replay.checkpoint_version, 0u);
  ExpectStoresEquivalent(**recovered, *reference, "all checkpoints corrupt");
}

/// Replaces the first `from` in the checkpoint file at `path` by `to` and
/// re-seals its CRC trailer, so the edit reaches the parser.
void RewriteCheckpoint(const std::string& path, const std::string& from,
                       const std::string& to) {
  std::string content;
  {
    std::ifstream in(path, std::ios::binary);
    content.assign(std::istreambuf_iterator<char>(in),
                   std::istreambuf_iterator<char>());
  }
  const size_t at = content.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  content.replace(at, from.size(), to);
  content.resize(content.rfind("# crc32c="));
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "# crc32c=%08x\n",
                Crc32c(content.data(), content.size()));
  content += trailer;
  std::ofstream(path, std::ios::binary | std::ios::trunc) << content;
}

/// Writes checkpoints 3 and 4 of the same two objects (ids 0 and 1,
/// next_id 2) into a fresh `dir`.
void WriteTwoCheckpoints(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const Rect box(Point{0.1, 0.1}, Point{0.2, 0.2});
  CheckpointState older;
  older.version = 3;
  older.next_id = 2;
  older.next_sequence = 5;
  older.dim = 2;
  for (ObjectId id = 0; id < 2; ++id) {
    CheckpointEntry entry;
    entry.stable_id = id;
    entry.pdf = std::make_shared<UniformPdf>(box);
    older.entries.push_back(entry);
  }
  ASSERT_TRUE(WriteCheckpoint(dir, older).ok());
  CheckpointState newer = older;
  newer.version = 4;
  newer.next_sequence = 6;
  ASSERT_TRUE(WriteCheckpoint(dir, newer).ok());
}

/// Expects checkpoint 4 in `dir` to be rejected for `reason` and
/// checkpoint 3 to load in its place.
void ExpectOlderCheckpointLoads(const std::string& dir,
                                const std::string& reason,
                                const std::string& label) {
  const StatusOr<LoadedCheckpoint> loaded = LoadNewestCheckpoint(dir);
  ASSERT_TRUE(loaded.ok()) << label << ": " << loaded.status().ToString();
  EXPECT_EQ(loaded->state.version, 3u) << label;
  EXPECT_EQ(loaded->state.next_id, 2u) << label;
  EXPECT_EQ(loaded->state.entries.size(), 2u) << label;
  ASSERT_EQ(loaded->warnings.size(), 1u) << label;
  EXPECT_NE(loaded->warnings[0].find(reason), std::string::npos)
      << label << ": " << loaded->warnings[0];
}

/// A checkpoint with a valid CRC whose entry count exceeds its content
/// is damaged data, not a reason to die: loading rejects it with a
/// warning and falls back to the next-older checkpoint — for a count no
/// allocation could hold (std::length_error) and for one that merely
/// exhausts memory (std::bad_alloc), both of which used to be reserved.
TEST(RecoveryTest, LyingCheckpointEntryCountFallsBackToOlder) {
  for (const std::string lie : {"18446744073709551615", "100000000000"}) {
    const std::string dir = FreshDir("ck_lying_count");
    WriteTwoCheckpoints(dir);
    // Rewrite the newer file's entry count and re-seal its CRC trailer.
    RewriteCheckpoint(dir + "/" + CheckpointFileName(4), "entries=2\n",
                      "entries=" + lie + "\n");
    ExpectOlderCheckpointLoads(dir, "entry count exceeds content", lie);
  }
}

/// Checkpoint ids are ObjectIds (32 bits). A CRC-valid file whose next_id
/// or entry id is wider (truncated, next_id 2^32 + 5 would read as 5), or
/// whose entry id starts with a sign or space (strtoull accepts both), is
/// damage, and loading falls back to the older checkpoint.
TEST(RecoveryTest, OutOfRangeCheckpointIdsFallBackToOlder) {
  struct Case {
    const char* from;
    const char* to;
    const char* reason;
  };
  const Case cases[] = {
      {"next_id=2 ", "next_id=4294967301 ", "next_id exceeds"},
      {"next_id=2 ", "next_id=4294967296 ", "next_id exceeds"},
      {"\n1,", "\n4294967297,", "stable id exceeds"},
      {"\n1,", "\n+1,", "unparseable stable id"},
      {"\n1,", "\n 1,", "unparseable stable id"},
      {"\n1,", "\n-1,", "unparseable stable id"},
      {"\n1,", "\n,", "unparseable stable id"},
  };
  for (const Case& c : cases) {
    const std::string dir = FreshDir("ck_id_range");
    WriteTwoCheckpoints(dir);
    RewriteCheckpoint(dir + "/" + CheckpointFileName(4), c.from, c.to);
    ExpectOlderCheckpointLoads(dir, c.reason, c.to);
  }
}

TEST(RecoveryTest, ShardCountIsInvisibleAcrossRecovery) {
  // Histories written at num_shards 1, 2 and 7 — and recovered at
  // TestShards() — must all serve payloads identical to the in-memory
  // unsharded reference: durability must not leak the segment layout into
  // served state.
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(4);
  StoreOptions unsharded = BaseOptions();
  unsharded.num_shards = 1;
  VersionedObjectStore reference(unsharded);
  ASSERT_TRUE(
      workload::ApplyChurnPrefix(reference, schedule, schedule.size()).ok());

  for (size_t write_shards : {size_t{1}, size_t{2}, size_t{7}}) {
    const std::string dir =
        FreshDir("shards_" + std::to_string(write_shards));
    StoreOptions victim_options = DurableOptions(dir);
    victim_options.num_shards = write_shards;
    {
      StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
          VersionedObjectStore::Open(victim_options);
      ASSERT_TRUE(victim.ok());
      ASSERT_TRUE(
          workload::ApplyChurnPrefix(**victim, schedule, schedule.size())
              .ok());
    }
    RecoveryReport report;
    StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
        RecoverStore(dir, BaseOptions(), &report);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_FALSE(report.data_loss) << report.ToJson();
    ExpectStoresEquivalent(
        **recovered, reference,
        "written at " + std::to_string(write_shards) + " shards");
  }
}

TEST(RecoveryTest, ResumeAfterRecoveryAndCrashAgain) {
  // Crash mid-history, recover, re-attach durability, finish the
  // schedule, crash again, recover again: the double-recovered store must
  // match the uninterrupted reference.
  const std::string dir = FreshDir("resume");
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(4);
  const size_t first_kill = schedule.size() / 2;
  {
    StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
        VersionedObjectStore::Open(DurableOptions(dir));
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(
        workload::ApplyChurnPrefix(**victim, schedule, first_kill).ok());
  }
  {
    RecoveryReport report;
    StatusOr<std::unique_ptr<VersionedObjectStore>> resumed =
        RecoverStore(dir, DurableOptions(dir), &report);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_FALSE(report.data_loss);
    ASSERT_TRUE(
        (*resumed)->AttachDurability(DurableOptions(dir).durability).ok());
    EXPECT_TRUE((*resumed)->durable());
    // Continue exactly where the schedule left off.
    for (size_t i = first_kill; i < schedule.size(); ++i) {
      const workload::ChurnStep& step = schedule[i];
      if (step.publish) {
        (*resumed)->Publish();
      } else {
        ASSERT_TRUE((*resumed)->Apply(step.mutation).ok()) << "step " << i;
      }
    }
    ASSERT_TRUE((*resumed)->wal_status().ok());
  }  // second crash
  RecoveryReport report;
  StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
      RecoverStore(dir, BaseOptions(), &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_FALSE(report.data_loss) << report.ToJson();
  const auto reference = ReferencePrefix(schedule, schedule.size());
  ExpectStoresEquivalent(**recovered, *reference, "double recovery");
}

/// A record that passes its CRC check but cannot apply is corruption:
/// recovery stops at its sequence, drops it and every later record, and
/// serves the valid prefix before it. The prefix inserts ids 0 and 1,
/// removes 1, publishes version 1 and leaves an update of 0 pending; each
/// case then appends one bad record (sequence 6) and two valid ones.
TEST(RecoveryTest, UnreplayableRecordStopsReplayAtItsSequence) {
  const auto box = [](double lo, size_t dim = 2) {
    return std::make_shared<UniformPdf>(
        Rect(Point(std::vector<double>(dim, lo)),
             Point(std::vector<double>(dim, lo + 0.1))));
  };
  const auto mutation = [](WalRecordKind kind, uint64_t sequence,
                           ObjectId id, std::shared_ptr<const Pdf> pdf,
                           double existence = 1.0) {
    WalRecord r;
    r.kind = kind;
    r.sequence = sequence;
    r.id = id;
    r.pdf = std::move(pdf);
    r.existence = existence;
    return r;
  };
  const auto publish = [](uint64_t sequence, uint64_t version) {
    WalRecord r;
    r.kind = WalRecordKind::kPublish;
    r.sequence = sequence;
    r.version = version;
    return r;
  };
  const std::vector<WalRecord> prefix = {
      mutation(WalRecordKind::kInsert, 1, 0, box(0.1)),
      mutation(WalRecordKind::kInsert, 2, 1, box(0.5), 0.5),
      mutation(WalRecordKind::kRemove, 3, 1, nullptr),
      publish(4, 1),
      mutation(WalRecordKind::kUpdate, 5, 0, box(0.3), 0.75),
  };
  const std::vector<WalRecord> later = {
      mutation(WalRecordKind::kInsert, 7, 2, box(0.6)), publish(8, 2)};
  VersionedObjectStore reference(BaseOptions());
  ASSERT_TRUE(reference.Insert(box(0.1)).ok());
  ASSERT_TRUE(reference.Insert(box(0.5), 0.5).ok());
  ASSERT_TRUE(reference.Remove(1).ok());
  reference.Publish();
  ASSERT_TRUE(reference.Update(0, box(0.3), 0.75).ok());

  // An encoder cannot write existence 0 (it builds an UncertainObject),
  // so that frame is an encoded existence-0.5 insert with its object
  // line patched to "0.0" and its CRC re-sealed.
  StatusOr<std::string> zero_frame =
      EncodeWalFrame(mutation(WalRecordKind::kInsert, 6, 2, box(0.2), 0.5));
  ASSERT_TRUE(zero_frame.ok());
  const size_t at = zero_frame->find(",0.5,");
  ASSERT_NE(at, std::string::npos);
  zero_frame->replace(at, 5, ",0.0,");
  const uint32_t crc = Crc32c(zero_frame->data() + 8, zero_frame->size() - 8);
  std::memcpy(zero_frame->data() + 4, &crc, sizeof(crc));

  const struct {
    const char* name;
    std::string bad_frame;
    bool decoder_rejects = false;
  } cases[] = {
      {"update_dead_id",
       *EncodeWalFrame(mutation(WalRecordKind::kUpdate, 6, 1, box(0.2)))},
      {"remove_dead_id",
       *EncodeWalFrame(mutation(WalRecordKind::kRemove, 6, 1, nullptr))},
      {"insert_below_next_id",
       *EncodeWalFrame(mutation(WalRecordKind::kInsert, 6, 1, box(0.2)))},
      {"wrong_dimension",
       *EncodeWalFrame(
           mutation(WalRecordKind::kInsert, 6, 2, box(0.2, /*dim=*/3)))},
      {"existence_zero", *zero_frame, /*decoder_rejects=*/true},
  };
  for (const auto& c : cases) {
    const std::string dir = FreshDir(std::string("unreplayable_") + c.name);
    std::filesystem::create_directories(dir);
    const std::string segment = dir + "/" + WalShardFileName(0);
    const auto append = [&](const std::vector<WalRecord>& records) {
      StatusOr<std::unique_ptr<WalShardWriter>> writer =
          WalShardWriter::Open(segment, /*truncate=*/false);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      for (const WalRecord& r : records) {
        ASSERT_TRUE((*writer)->Append(r).ok()) << c.name;
      }
    };
    append(prefix);
    std::ofstream(segment, std::ios::binary | std::ios::app) << c.bad_frame;
    append(later);

    RecoveryReport report;
    StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
        RecoverStore(dir, BaseOptions(), &report);
    ASSERT_TRUE(recovered.ok())
        << c.name << ": " << recovered.status().ToString();
    EXPECT_TRUE(report.data_loss) << c.name;
    EXPECT_EQ(report.replayed_mutations, 4u) << c.name;
    EXPECT_EQ(report.replayed_publishes, 1u) << c.name;
    ASSERT_FALSE(report.warnings.empty()) << c.name;
    if (c.decoder_rejects) {
      // The WAL decoder shares dataset_io's existence check, so replay
      // stops at the frame itself: it and every later frame are dropped
      // as a rejected tail.
      EXPECT_EQ(report.dropped_records, 0u);
      EXPECT_EQ(report.truncated_bytes,
                std::filesystem::file_size(segment) -
                    FrameOffsets(segment).back());
      EXPECT_NE(report.warnings.back().find("insert payload rejected"),
                std::string::npos)
          << report.warnings.back();
      // Handed to the store directly, the same record fails to apply.
      VersionedObjectStore direct(BaseOptions());
      const WalRecord zero =
          mutation(WalRecordKind::kInsert, 1, 0, box(0.2), 0.0);
      EXPECT_EQ(direct.ApplyForRecovery(zero).code(), StatusCode::kDataLoss);
    } else {
      EXPECT_EQ(report.truncated_bytes, 0u) << c.name;
      EXPECT_EQ(report.dropped_records, 3u) << c.name;
      EXPECT_NE(report.warnings.back().find("sequence 6 cannot replay"),
                std::string::npos)
          << c.name << ": " << report.warnings.back();
    }
    ExpectStoresEquivalent(**recovered, reference, c.name);
  }
}

TEST(RecoveryTest, StatusCodesOnBadInputs) {
  EXPECT_EQ(RecoverStore("/nonexistent/updb-wal", BaseOptions()).status()
                .code(),
            StatusCode::kNotFound);

  StoreOptions no_dir = BaseOptions();
  EXPECT_EQ(VersionedObjectStore::Open(no_dir).status().code(),
            StatusCode::kInvalidArgument);

  const std::string dir = FreshDir("statuses");
  StatusOr<std::unique_ptr<VersionedObjectStore>> first =
      VersionedObjectStore::Open(DurableOptions(dir));
  ASSERT_TRUE(first.ok());
  // Re-opening a directory that already holds data must refuse rather
  // than overwrite.
  EXPECT_EQ(VersionedObjectStore::Open(DurableOptions(dir)).status().code(),
            StatusCode::kFailedPrecondition);
  // Double attach refuses too.
  EXPECT_EQ((*first)->AttachDurability(DurableOptions(dir).durability)
                .code(),
            StatusCode::kFailedPrecondition);

  // Recovery-support hooks refuse once durability is attached.
  WalRecord r;
  r.kind = WalRecordKind::kRemove;
  r.sequence = 1;
  r.id = 0;
  EXPECT_EQ((*first)->ApplyForRecovery(r).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ((*first)->PublishForRecovery(5).code(),
            StatusCode::kFailedPrecondition);
}

TEST(RecoveryTest, WalStatsAndRecoveryCountersReachTheRegistry) {
  const std::string dir = FreshDir("obs");
  const std::vector<workload::ChurnStep> schedule = MakeSchedule(3);
  obs::MetricsRegistry registry;
  {
    StoreOptions opts = DurableOptions(dir);
    opts.metrics_registry = &registry;
    StatusOr<std::unique_ptr<VersionedObjectStore>> victim =
        VersionedObjectStore::Open(opts);
    ASSERT_TRUE(victim.ok());
    ASSERT_TRUE(
        workload::ApplyChurnPrefix(**victim, schedule, schedule.size()).ok());

    // The store's own aggregate agrees with the shared registry series.
    const WalStats stats = (*victim)->wal_stats();
    EXPECT_TRUE(stats.durable);
    EXPECT_EQ(stats.fsync, FsyncPolicy::kEveryPublish);
    EXPECT_GT(stats.appends, 0u);
    EXPECT_GT(stats.appended_bytes, 0u);
    EXPECT_GT(stats.fsyncs, 0u);
    EXPECT_GT(stats.checkpoint_writes, 0u);
    EXPECT_EQ(stats.checkpoint_failures, 0u);
    EXPECT_EQ(registry.Counter("updb_wal_appends_total", "")->Value(),
              stats.appends);
    EXPECT_EQ(
        registry.Counter("updb_wal_appended_bytes_total", "")->Value(),
        stats.appended_bytes);
    EXPECT_EQ(registry.Counter("updb_checkpoint_writes_total", "")->Value(),
              stats.checkpoint_writes);

    const std::string json = stats.ToJson((*victim)->wal_status());
    EXPECT_NE(json.find("\"durable\":true"), std::string::npos) << json;
    EXPECT_NE(json.find("\"fsync_policy\":\"every_publish\""),
              std::string::npos);
    EXPECT_NE(json.find("\"status\":\"OK\""), std::string::npos);
  }  // crash

  // Recovery publishes its outcome to the registry it was given.
  StoreOptions ropts = BaseOptions();
  ropts.metrics_registry = &registry;
  RecoveryReport report;
  StatusOr<std::unique_ptr<VersionedObjectStore>> recovered =
      RecoverStore(dir, ropts, &report);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(registry.Counter("updb_recovery_runs_total", "")->Value(), 1u);
  EXPECT_EQ(
      registry.Counter("updb_recovery_replayed_mutations_total", "")->Value(),
      report.replayed_mutations);
  EXPECT_EQ(
      registry.Counter("updb_recovery_data_loss_total", "")->Value(), 0u);

  // An in-memory store reports all-zero WAL stats.
  const WalStats memory_stats = VersionedObjectStore(BaseOptions()).wal_stats();
  EXPECT_FALSE(memory_stats.durable);
  EXPECT_EQ(memory_stats.appends, 0u);
}

TEST(RecoveryTest, RecoverCommandReportShape) {
  RecoveryReport report;
  report.checkpoint_version = 3;
  report.recovered_version = 5;
  report.truncated_bytes = 17;
  report.data_loss = true;
  report.warnings.push_back("a \"quoted\" warning");
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"checkpoint_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"recovered_version\":5"), std::string::npos);
  EXPECT_NE(json.find("\"truncated_bytes\":17"), std::string::npos);
  EXPECT_NE(json.find("\"data_loss\":true"), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
}

/// Warnings quote file paths and status texts verbatim, so both reports
/// must escape control bytes to stay valid JSON.
TEST(RecoveryTest, JsonReportsEscapeControlBytes) {
  const std::string raw = "wal\tdir\x01" "end";
  const std::string escaped = "wal\\tdir\\u0001end";
  RecoveryReport report;
  report.warnings.push_back(raw);
  const std::string recovery_json = report.ToJson();
  EXPECT_NE(recovery_json.find(escaped), std::string::npos) << recovery_json;
  const std::string wal_json = WalStats().ToJson(Status::DataLoss(raw));
  EXPECT_NE(wal_json.find(escaped), std::string::npos) << wal_json;
  for (const std::string& json : {recovery_json, wal_json}) {
    for (const char c : json) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << json;
    }
  }
}

}  // namespace
}  // namespace store
}  // namespace updb
