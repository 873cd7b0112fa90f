#include "store/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "io/dataset_io.h"
#include "uncertain/object.h"

namespace updb {
namespace store {

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 length + u32 crc

// ---------------------------------------------------- payload encodings

/// Appends a fixed-width little-endian-agnostic (host order) scalar.
template <typename T>
void PutScalar(std::string& out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out.append(buf, sizeof(T));
}

/// Bounds-checked scalar reader over a payload view.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  template <typename T>
  Status Read(T* out) {
    if (data_.size() - pos_ < sizeof(T)) {
      return Status::DataLoss("WAL payload underflow");
    }
    std::memcpy(out, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status ReadString(size_t n, std::string* out) {
    if (data_.size() - pos_ < n) {
      return Status::DataLoss("WAL payload underflow");
    }
    out->assign(data_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  bool exhausted() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

/// Shared payload shape of kInsert/kUpdate: sequence, target id, and the
/// dataset_io object line (type, existence, PDF — %.17g round-trip
/// exact).
StatusOr<std::string> EncodeObjectMutation(const WalRecord& record) {
  if (record.pdf == nullptr) {
    return Status::InvalidArgument("mutation record without PDF");
  }
  const StatusOr<std::string> line = io::SerializeObject(
      UncertainObject(record.id, record.pdf, record.existence));
  if (!line.ok()) return line.status();
  std::string out;
  PutScalar<uint64_t>(out, record.sequence);
  PutScalar<uint64_t>(out, record.id);
  PutScalar<uint32_t>(out, static_cast<uint32_t>(line->size()));
  out += *line;
  return out;
}

/// A record's 64-bit id field must name an ObjectId: a wider value is
/// damage, not an id to truncate (2^32 + 3 would otherwise name object 3).
Status CheckObjectId(uint64_t id64) {
  if (id64 > std::numeric_limits<ObjectId>::max()) {
    return Status::DataLoss("WAL record id " + std::to_string(id64) +
                            " exceeds the object id range");
  }
  return Status::OK();
}

StatusOr<WalRecord> DecodeObjectMutation(std::string_view payload,
                                         WalRecordKind kind) {
  WalRecord record;
  record.kind = kind;
  PayloadReader reader(payload);
  uint64_t id64 = 0;
  uint32_t line_len = 0;
  UPDB_RETURN_IF_ERROR(reader.Read(&record.sequence));
  UPDB_RETURN_IF_ERROR(reader.Read(&id64));
  UPDB_RETURN_IF_ERROR(reader.Read(&line_len));
  std::string line;
  UPDB_RETURN_IF_ERROR(reader.ReadString(line_len, &line));
  if (!reader.exhausted()) {
    return Status::DataLoss("trailing bytes after mutation payload");
  }
  const StatusOr<io::ParsedObject> parsed = io::ParseObject(line);
  if (!parsed.ok()) {
    return Status::DataLoss("undecodable object line in WAL record: " +
                            parsed.status().ToString());
  }
  UPDB_RETURN_IF_ERROR(CheckObjectId(id64));
  record.id = static_cast<ObjectId>(id64);
  record.pdf = parsed->pdf;
  record.existence = parsed->existence;
  return record;
}

std::string EncodeRemove(const WalRecord& record) {
  std::string out;
  PutScalar<uint64_t>(out, record.sequence);
  PutScalar<uint64_t>(out, record.id);
  return out;
}

StatusOr<WalRecord> DecodeRemove(std::string_view payload) {
  WalRecord record;
  record.kind = WalRecordKind::kRemove;
  PayloadReader reader(payload);
  uint64_t id64 = 0;
  UPDB_RETURN_IF_ERROR(reader.Read(&record.sequence));
  UPDB_RETURN_IF_ERROR(reader.Read(&id64));
  if (!reader.exhausted()) {
    return Status::DataLoss("trailing bytes after remove payload");
  }
  UPDB_RETURN_IF_ERROR(CheckObjectId(id64));
  record.id = static_cast<ObjectId>(id64);
  return record;
}

std::string EncodePublish(const WalRecord& record) {
  std::string out;
  PutScalar<uint64_t>(out, record.sequence);
  PutScalar<uint64_t>(out, record.version);
  return out;
}

StatusOr<WalRecord> DecodePublish(std::string_view payload) {
  WalRecord record;
  record.kind = WalRecordKind::kPublish;
  PayloadReader reader(payload);
  UPDB_RETURN_IF_ERROR(reader.Read(&record.sequence));
  UPDB_RETURN_IF_ERROR(reader.Read(&record.version));
  if (!reader.exhausted()) {
    return Status::DataLoss("trailing bytes after publish payload");
  }
  return record;
}

}  // namespace

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kEveryPublish:
      return "every_publish";
    case FsyncPolicy::kEveryBatch:
      return "every_batch";
  }
  return "unknown";
}

StatusOr<FsyncPolicy> ParseFsyncPolicy(std::string_view name) {
  if (name == "never") return FsyncPolicy::kNever;
  if (name == "every_publish") return FsyncPolicy::kEveryPublish;
  if (name == "every_batch") return FsyncPolicy::kEveryBatch;
  return Status::InvalidArgument("unknown fsync policy '" +
                                 std::string(name) +
                                 "' (never|every_publish|every_batch)");
}

uint32_t Crc32c(const void* data, size_t n) {
  // Byte-wise table for the Castagnoli polynomial (reflected 0x82F63B78),
  // built once.
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
      }
      table[i] = crc;
    }
    return table;
  }();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t crc = ~0u;
  for (size_t i = 0; i < n; ++i) {
    crc = (crc >> 8) ^ kTable[(crc ^ p[i]) & 0xFFu];
  }
  return ~crc;
}

StatusOr<std::string> EncodeWalFrame(const WalRecord& record) {
  StatusOr<std::string> payload = Status::InvalidArgument(
      "unknown WAL record kind " +
      std::to_string(static_cast<int>(record.kind)));
  switch (record.kind) {
    case WalRecordKind::kInsert:
    case WalRecordKind::kUpdate:
      payload = EncodeObjectMutation(record);
      break;
    case WalRecordKind::kRemove:
      payload = EncodeRemove(record);
      break;
    case WalRecordKind::kPublish:
      payload = EncodePublish(record);
      break;
  }
  if (!payload.ok()) return payload.status();
  std::string body;
  body.reserve(1 + payload->size());
  body.push_back(static_cast<char>(record.kind));
  body += *payload;
  std::string frame;
  frame.reserve(kFrameHeaderBytes + body.size());
  PutScalar<uint32_t>(frame, static_cast<uint32_t>(body.size()));
  PutScalar<uint32_t>(frame, Crc32c(body.data(), body.size()));
  frame += body;
  return frame;
}

StatusOr<WalReadResult> ReadWalFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Unavailable("cannot open WAL file '" + path + "': " +
                               std::strerror(errno));
  }
  std::string data;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) {
    return Status::Unavailable("read error on WAL file '" + path + "'");
  }

  WalReadResult result;
  size_t pos = 0;
  auto truncate_at = [&](const std::string& reason) {
    result.valid_bytes = pos;
    result.truncated_bytes = data.size() - pos;
    result.truncation_reason = reason;
  };
  while (pos < data.size()) {
    if (data.size() - pos < kFrameHeaderBytes) {
      truncate_at("torn frame header");
      return result;
    }
    uint32_t length = 0, crc = 0;
    std::memcpy(&length, data.data() + pos, sizeof(length));
    std::memcpy(&crc, data.data() + pos + sizeof(length), sizeof(crc));
    if (length == 0) {
      truncate_at("zero-length frame");
      return result;
    }
    if (data.size() - pos - kFrameHeaderBytes < length) {
      truncate_at("torn frame body");
      return result;
    }
    const char* body = data.data() + pos + kFrameHeaderBytes;
    if (Crc32c(body, length) != crc) {
      truncate_at("CRC32C mismatch");
      return result;
    }
    const WalRecordKind kind = static_cast<WalRecordKind>(body[0]);
    const std::string_view payload(body + 1, length - 1);
    const char* name = nullptr;  // stays null for an unknown kind byte
    StatusOr<WalRecord> record = Status::DataLoss("unknown record kind");
    switch (kind) {
      case WalRecordKind::kInsert:
        name = "insert";
        record = DecodeObjectMutation(payload, kind);
        break;
      case WalRecordKind::kUpdate:
        name = "update";
        record = DecodeObjectMutation(payload, kind);
        break;
      case WalRecordKind::kRemove:
        name = "remove";
        record = DecodeRemove(payload);
        break;
      case WalRecordKind::kPublish:
        name = "publish";
        record = DecodePublish(payload);
        break;
    }
    if (name == nullptr) {
      truncate_at("unknown record kind " +
                  std::to_string(static_cast<uint8_t>(body[0])));
      return result;
    }
    if (!record.ok()) {
      truncate_at(std::string(name) +
                  " payload rejected: " + record.status().ToString());
      return result;
    }
    result.records.push_back(*std::move(record));
    pos += kFrameHeaderBytes + length;
  }
  result.valid_bytes = pos;
  return result;
}

std::string WalShardFileName(size_t shard) {
  return "wal-shard-" + std::to_string(shard) + ".log";
}

bool ParseNumberedFileName(std::string_view name, std::string_view prefix,
                           std::string_view suffix, uint64_t* number) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  const std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t value = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  if (number != nullptr) *number = value;
  return true;
}

bool ParseWalShardFileName(std::string_view name, size_t* shard) {
  uint64_t value = 0;
  if (!ParseNumberedFileName(name, "wal-shard-", ".log", &value)) return false;
  if (shard != nullptr) *shard = static_cast<size_t>(value);
  return true;
}

StatusOr<std::unique_ptr<WalShardWriter>> WalShardWriter::Open(
    const std::string& path, bool truncate) {
  int flags = O_CREAT | O_WRONLY | O_APPEND;
  if (truncate) flags |= O_TRUNC;
  const int fd = ::open(path.c_str(), flags, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot open WAL file '" + path + "': " +
                               std::strerror(errno));
  }
  return std::unique_ptr<WalShardWriter>(new WalShardWriter(path, fd));
}

WalShardWriter::~WalShardWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalShardWriter::Append(const WalRecord& record) {
  const StatusOr<std::string> frame = EncodeWalFrame(record);
  if (!frame.ok()) return frame.status();
  size_t written = 0;
  while (written < frame->size()) {
    const ssize_t n =
        ::write(fd_, frame->data() + written, frame->size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable("WAL append to '" + path_ +
                                 "' failed: " + std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  ++appended_records_;
  appended_bytes_ += frame->size();
  dirty_ = true;
  if (metric_appends_ != nullptr) metric_appends_->Add();
  if (metric_bytes_ != nullptr) metric_bytes_->Add(frame->size());
  return Status::OK();
}

Status WalShardWriter::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::Unavailable("fsync of '" + path_ +
                               "' failed: " + std::strerror(errno));
  }
  ++fsyncs_;
  dirty_ = false;
  if (metric_fsyncs_ != nullptr) metric_fsyncs_->Add();
  return Status::OK();
}

}  // namespace store
}  // namespace updb
