#include "store/wal.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "store/object_store.h"
#include "uncertain/pdf.h"

namespace updb {
namespace store {
namespace {

std::string TempPath(const std::string& name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  std::remove(path.c_str());
  return path;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good());
}

std::shared_ptr<const Pdf> MakePdf(double lo, double hi) {
  return std::make_shared<UniformPdf>(Rect(Point{lo, lo}, Point{hi, hi}));
}

WalRecord InsertRecord(uint64_t sequence, ObjectId id) {
  WalRecord r;
  r.kind = WalRecordKind::kInsert;
  r.sequence = sequence;
  r.id = id;
  r.existence = 0.75;
  r.pdf = MakePdf(0.1, 0.3);
  return r;
}

TEST(Crc32cTest, KnownAnswer) {
  // The CRC32C check value: crc of the ASCII digits "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c("", 0), 0u);
  // Any single-bit flip changes the sum.
  EXPECT_NE(Crc32c("123456788", 9), 0xE3069283u);
}

TEST(FsyncPolicyTest, NamesRoundTrip) {
  for (FsyncPolicy p : {FsyncPolicy::kNever, FsyncPolicy::kEveryPublish,
                        FsyncPolicy::kEveryBatch}) {
    const StatusOr<FsyncPolicy> parsed = ParseFsyncPolicy(FsyncPolicyName(p));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, p);
  }
  EXPECT_EQ(ParseFsyncPolicy("sometimes").status().code(),
            StatusCode::kInvalidArgument);
}

/// A CRC-valid frame whose body is `kind` followed by `payload`.
std::string RawFrame(uint8_t kind, const std::string& payload) {
  std::string body(1, static_cast<char>(kind));
  body += payload;
  std::string frame;
  const uint32_t len = static_cast<uint32_t>(body.size());
  const uint32_t crc = Crc32c(body.data(), body.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return frame + body;
}

TEST(WalRecordKindTest, BuiltinKindsFrameUnknownRejected) {
  const std::string path = TempPath("wal_kinds.log");
  // Each built-in kind writes its on-disk kind byte right after the
  // 8-byte header and reads back as that kind.
  std::vector<WalRecord> records;
  records.push_back(InsertRecord(1, 7));
  records.push_back(InsertRecord(2, 7));
  records.back().kind = WalRecordKind::kUpdate;
  records.push_back(InsertRecord(3, 7));
  records.back().kind = WalRecordKind::kRemove;
  records.push_back(InsertRecord(4, 0));
  records.back().kind = WalRecordKind::kPublish;
  records.back().version = 9;
  const uint8_t kind_bytes[] = {1, 2, 3, 4};
  std::string file;
  for (size_t i = 0; i < records.size(); ++i) {
    const StatusOr<std::string> frame = EncodeWalFrame(records[i]);
    ASSERT_TRUE(frame.ok()) << i;
    EXPECT_EQ(static_cast<uint8_t>((*frame)[8]), kind_bytes[i]);
    file += *frame;
  }
  WriteBytes(path, file);
  StatusOr<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read->records.size(), records.size());
  EXPECT_EQ(read->truncated_bytes, 0u);
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(read->records[i].kind, records[i].kind) << i;
  }

  // A rejected payload is reported under its kind's name.
  const std::pair<uint8_t, const char*> names[] = {
      {1, "insert"}, {2, "update"}, {3, "remove"}, {4, "publish"}};
  for (const auto& [kind, name] : names) {
    WriteBytes(path, RawFrame(kind, "x"));
    read = ReadWalFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read->records.empty());
    EXPECT_EQ(read->truncation_reason.rfind(std::string(name) +
                                                " payload rejected",
                                            0),
              0u)
        << read->truncation_reason;
  }

  // A kind byte that names no kind truncates, and no such kind encodes.
  for (uint8_t kind : {uint8_t{0}, uint8_t{99}}) {
    WriteBytes(path, RawFrame(kind, "payload"));
    read = ReadWalFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_TRUE(read->records.empty());
    EXPECT_EQ(read->truncation_reason,
              "unknown record kind " + std::to_string(kind));
    WalRecord bad = InsertRecord(1, 0);
    bad.kind = static_cast<WalRecordKind>(kind);
    EXPECT_EQ(EncodeWalFrame(bad).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(WalFrameTest, AllKindsRoundTripThroughAFile) {
  std::vector<WalRecord> originals;
  originals.push_back(InsertRecord(1, 7));
  {
    WalRecord update;
    update.kind = WalRecordKind::kUpdate;
    update.sequence = 2;
    update.id = 7;
    update.existence = 1.0;
    update.pdf = MakePdf(0.4, 0.9);
    originals.push_back(update);
  }
  {
    WalRecord publish;
    publish.kind = WalRecordKind::kPublish;
    publish.sequence = 3;
    publish.version = 11;
    originals.push_back(publish);
  }
  {
    WalRecord remove;
    remove.kind = WalRecordKind::kRemove;
    remove.sequence = 4;
    remove.id = 7;
    originals.push_back(remove);
  }

  const std::string path = TempPath("wal_roundtrip.log");
  {
    StatusOr<std::unique_ptr<WalShardWriter>> writer =
        WalShardWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const WalRecord& r : originals) {
      ASSERT_TRUE((*writer)->Append(r).ok());
    }
    EXPECT_EQ((*writer)->appended_records(), originals.size());
    EXPECT_TRUE((*writer)->dirty());
    ASSERT_TRUE((*writer)->Sync().ok());
    EXPECT_FALSE((*writer)->dirty());
  }

  const StatusOr<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->truncated_bytes, 0u);
  EXPECT_TRUE(read->truncation_reason.empty());
  ASSERT_EQ(read->records.size(), originals.size());
  for (size_t i = 0; i < originals.size(); ++i) {
    const WalRecord& got = read->records[i];
    const WalRecord& want = originals[i];
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.sequence, want.sequence);
    if (want.kind == WalRecordKind::kPublish) {
      EXPECT_EQ(got.version, want.version);
      continue;
    }
    EXPECT_EQ(got.id, want.id);
    if (want.kind == WalRecordKind::kRemove) continue;
    ASSERT_NE(got.pdf, nullptr);
    // The dataset_io line format prints %.17g — bit-exact round trip.
    EXPECT_EQ(got.existence, want.existence);
    for (size_t d = 0; d < 2; ++d) {
      EXPECT_EQ(got.pdf->bounds().side(d).lo(),
                want.pdf->bounds().side(d).lo());
      EXPECT_EQ(got.pdf->bounds().side(d).hi(),
                want.pdf->bounds().side(d).hi());
    }
  }
}

TEST(WalReadTest, EmptyAndMissingFiles) {
  const std::string path = TempPath("wal_empty.log");
  WriteBytes(path, "");
  const StatusOr<WalReadResult> empty = ReadWalFile(path);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->records.empty());
  EXPECT_EQ(empty->truncated_bytes, 0u);

  EXPECT_EQ(ReadWalFile(TempPath("wal_missing.log")).status().code(),
            StatusCode::kUnavailable);
}

TEST(WalReadTest, TornTailTruncatesAtEveryOffset) {
  // Two whole records plus a third whose frame we shear at every possible
  // byte offset: the reader must always return exactly the first two and
  // report the damage, never error or mis-parse.
  const std::string path = TempPath("wal_torn.log");
  std::string full;
  uint64_t two_records_bytes = 0;
  for (uint64_t s = 1; s <= 3; ++s) {
    const StatusOr<std::string> frame =
        EncodeWalFrame(InsertRecord(s, static_cast<ObjectId>(s - 1)));
    ASSERT_TRUE(frame.ok());
    if (s == 2) two_records_bytes = full.size() + frame->size();
    full += *frame;
  }
  for (size_t cut = two_records_bytes; cut < full.size(); ++cut) {
    WriteBytes(path, full.substr(0, cut));
    const StatusOr<WalReadResult> read = ReadWalFile(path);
    ASSERT_TRUE(read.ok()) << "cut=" << cut;
    ASSERT_EQ(read->records.size(), 2u) << "cut=" << cut;
    EXPECT_EQ(read->records[1].sequence, 2u);
    EXPECT_EQ(read->valid_bytes, two_records_bytes);
    EXPECT_EQ(read->truncated_bytes, cut - two_records_bytes);
    if (cut > two_records_bytes) {
      EXPECT_FALSE(read->truncation_reason.empty()) << "cut=" << cut;
    }
  }
}

TEST(WalReadTest, BitFlipInAnyTailByteIsDetected) {
  const std::string path = TempPath("wal_bitflip.log");
  std::string full;
  uint64_t one_record_bytes = 0;
  for (uint64_t s = 1; s <= 2; ++s) {
    const StatusOr<std::string> frame =
        EncodeWalFrame(InsertRecord(s, static_cast<ObjectId>(s - 1)));
    ASSERT_TRUE(frame.ok());
    if (s == 1) one_record_bytes = frame->size();
    full += *frame;
  }
  for (size_t at = one_record_bytes; at < full.size(); ++at) {
    std::string corrupt = full;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    WriteBytes(path, corrupt);
    const StatusOr<WalReadResult> read = ReadWalFile(path);
    ASSERT_TRUE(read.ok()) << "at=" << at;
    // The flip lands in the second frame: either its header now
    // mis-frames the tail or the CRC/codec rejects it — the first record
    // always survives untouched.
    ASSERT_EQ(read->records.size(), 1u) << "at=" << at;
    EXPECT_EQ(read->records[0].sequence, 1u);
    EXPECT_FALSE(read->truncation_reason.empty()) << "at=" << at;
    EXPECT_GT(read->truncated_bytes, 0u);
  }
}

TEST(WalReadTest, UnknownKindAndZeroLengthFramesStopReplay) {
  const std::string path = TempPath("wal_badkinds.log");
  const StatusOr<std::string> good = EncodeWalFrame(InsertRecord(1, 0));
  ASSERT_TRUE(good.ok());

  // A CRC-valid frame of an unregistered kind byte.
  std::string body;
  body.push_back(static_cast<char>(0xEE));
  body += "future";
  std::string unknown;
  const uint32_t len = static_cast<uint32_t>(body.size());
  const uint32_t crc = Crc32c(body.data(), body.size());
  unknown.append(reinterpret_cast<const char*>(&len), sizeof(len));
  unknown.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  unknown += body;

  WriteBytes(path, *good + unknown);
  StatusOr<WalReadResult> read = ReadWalFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_NE(read->truncation_reason.find("unknown record kind"),
            std::string::npos);

  // An all-zero header (e.g. preallocated-but-unwritten tail).
  WriteBytes(path, *good + std::string(8, '\0'));
  read = ReadWalFile(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->records.size(), 1u);
  EXPECT_NE(read->truncation_reason.find("zero-length"), std::string::npos);
}

/// `frame` (a valid EncodeWalFrame output of a mutation or remove) with
/// its 64-bit id field set to `id` and its CRC re-sealed.
std::string WithId(std::string frame, uint64_t id) {
  constexpr size_t kIdAt = 8 + 1 + sizeof(uint64_t);  // header, kind, seq
  std::memcpy(frame.data() + kIdAt, &id, sizeof(id));
  const uint32_t crc = Crc32c(frame.data() + 8, frame.size() - 8);
  std::memcpy(frame.data() + 4, &crc, sizeof(crc));
  return frame;
}

TEST(WalReadTest, IdsBeyondObjectIdStopReplay) {
  // Ids are ObjectIds (32 bits) but travel as 64-bit fields. A wider id
  // is damage, not an id to truncate (removing 2^32 + 3 would remove
  // object 3): every record kind that carries an id stops replay there.
  const std::string path = TempPath("wal_wide_ids.log");
  const StatusOr<std::string> good = EncodeWalFrame(InsertRecord(1, 0));
  ASSERT_TRUE(good.ok());
  const uint64_t wide = (uint64_t{1} << 32) + 3;
  for (WalRecordKind kind : {WalRecordKind::kInsert, WalRecordKind::kUpdate,
                             WalRecordKind::kRemove}) {
    WalRecord r = InsertRecord(2, 3);
    r.kind = kind;
    const StatusOr<std::string> frame = EncodeWalFrame(r);
    ASSERT_TRUE(frame.ok());
    // The largest ObjectId still reads back.
    const uint64_t max_id = std::numeric_limits<ObjectId>::max();
    WriteBytes(path, *good + WithId(*frame, max_id));
    StatusOr<WalReadResult> read = ReadWalFile(path);
    ASSERT_TRUE(read.ok());
    ASSERT_EQ(read->records.size(), 2u);
    EXPECT_EQ(read->records[1].id, max_id);

    WriteBytes(path, *good + WithId(*frame, wide));
    read = ReadWalFile(path);
    ASSERT_TRUE(read.ok());
    EXPECT_EQ(read->records.size(), 1u);
    EXPECT_EQ(read->truncated_bytes, frame->size());
    EXPECT_NE(read->truncation_reason.find("exceeds the object id range"),
              std::string::npos)
        << read->truncation_reason;
  }
}

TEST(WalFrameTest, EncodeRejectsMutationWithoutPdf) {
  WalRecord r;
  r.kind = WalRecordKind::kInsert;
  r.sequence = 1;
  r.id = 0;
  r.pdf = nullptr;
  EXPECT_FALSE(EncodeWalFrame(r).ok());
}

TEST(WalFrameTest, InfiniteExtentFailsAppendAndSticksInStore) {
  // The dataset_io line format has no spelling for a non-finite number
  // that replay would accept, so such a record must fail at append time —
  // not be written and then truncated by recovery as undecodable.
  const double inf = std::numeric_limits<double>::infinity();
  const std::shared_ptr<const Pdf> unbounded =
      std::make_shared<UniformPdf>(Rect(Point{0.0, 0.0}, Point{1.0, inf}));
  WalRecord record = InsertRecord(1, 3);
  record.pdf = unbounded;

  const std::string path = TempPath("wal_nonfinite.log");
  {
    StatusOr<std::unique_ptr<WalShardWriter>> writer =
        WalShardWriter::Open(path, /*truncate=*/true);
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    EXPECT_EQ((*writer)->Append(record).code(), StatusCode::kInvalidArgument);
    EXPECT_EQ((*writer)->appended_records(), 0u);
    EXPECT_FALSE((*writer)->dirty());
  }
  EXPECT_EQ(std::filesystem::file_size(path), 0u);

  // Through a durable store: the failed append leaves the state
  // untouched and sticks in wal_status(), refusing later mutations.
  const std::string dir =
      std::string(::testing::TempDir()) + "/updb_wal_nonfinite";
  std::filesystem::remove_all(dir);
  StoreOptions options;
  options.durability.wal_dir = dir;
  StatusOr<std::unique_ptr<VersionedObjectStore>> store =
      VersionedObjectStore::Open(options);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ASSERT_TRUE((*store)->Insert(MakePdf(0.1, 0.2)).ok());
  const StatusOr<ObjectId> inserted = (*store)->Insert(unbounded);
  ASSERT_FALSE(inserted.ok());
  EXPECT_EQ(inserted.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*store)->wal_status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*store)->pending_mutations(), 1u);
  EXPECT_FALSE((*store)->Insert(MakePdf(0.3, 0.4)).ok());
  std::filesystem::remove_all(dir);
}

TEST(WalShardFileNameTest, RoundTripAndRejections) {
  size_t shard = 99;
  EXPECT_TRUE(ParseWalShardFileName(WalShardFileName(0), &shard));
  EXPECT_EQ(shard, 0u);
  EXPECT_TRUE(ParseWalShardFileName(WalShardFileName(17), &shard));
  EXPECT_EQ(shard, 17u);
  EXPECT_FALSE(ParseWalShardFileName("wal-shard-.log", &shard));
  EXPECT_FALSE(ParseWalShardFileName("wal-shard-3.txt", &shard));
  EXPECT_FALSE(ParseWalShardFileName("checkpoint-3.updbck", &shard));
  EXPECT_FALSE(ParseWalShardFileName("wal-shard-x3.log", &shard));
}

}  // namespace
}  // namespace store
}  // namespace updb
