#include "store/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>

#include "io/dataset_io.h"
#include "store/wal.h"
#include "uncertain/object.h"

namespace updb {
namespace store {

namespace {

constexpr char kHeaderLine[] = "# updb-checkpoint v1\n";
constexpr char kFilePrefix[] = "checkpoint-";
constexpr char kFileSuffix[] = ".updbck";
constexpr char kTmpSuffix[] = ".tmp";

/// Writes `data` to `path` and fsyncs it. Unavailable on failure.
Status WriteFileDurably(const std::string& path, const std::string& data) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Unavailable("cannot create '" + path + "': " +
                               std::strerror(errno));
  }
  size_t written = 0;
  while (written < data.size()) {
    const ssize_t n =
        ::write(fd, data.data() + written, data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::Unavailable("write to '" + path + "' failed: " + err);
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::Unavailable("fsync of '" + path + "' failed: " + err);
  }
  ::close(fd);
  return Status::OK();
}

/// fsyncs a directory so a just-renamed entry is durable.
Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::Unavailable("cannot open directory '" + dir + "': " +
                               std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::Unavailable("fsync of directory '" + dir + "' failed");
  }
  return Status::OK();
}

/// Validates and parses one checkpoint file's full content.
StatusOr<CheckpointState> ParseCheckpoint(const std::string& data) {
  // Split off the CRC trailer: the last non-empty line.
  const size_t trailer_pos = data.rfind("# crc32c=");
  if (trailer_pos == std::string::npos || trailer_pos == 0) {
    return Status::DataLoss("missing crc32c trailer");
  }
  unsigned long long crc_value = 0;
  if (std::sscanf(data.c_str() + trailer_pos, "# crc32c=%llx",
                  &crc_value) != 1) {
    return Status::DataLoss("unparseable crc32c trailer");
  }
  if (Crc32c(data.data(), trailer_pos) !=
      static_cast<uint32_t>(crc_value)) {
    return Status::DataLoss("checkpoint CRC32C mismatch");
  }

  // Line-wise parse of the validated body.
  const std::string_view body(data.data(), trailer_pos);
  if (body.substr(0, std::strlen(kHeaderLine)) != kHeaderLine) {
    return Status::DataLoss("bad checkpoint header");
  }
  size_t pos = std::strlen(kHeaderLine);
  const auto next_line = [&body, &pos]() -> std::string {
    const size_t end = body.find('\n', pos);
    const size_t line_end = end == std::string_view::npos ? body.size() : end;
    std::string line(body.substr(pos, line_end - pos));
    pos = line_end == body.size() ? body.size() : line_end + 1;
    return line;
  };

  CheckpointState state;
  unsigned long long version = 0, next_id = 0, next_sequence = 0, dim = 0,
                     entries = 0;
  const std::string meta = next_line();
  if (std::sscanf(meta.c_str(),
                  "version=%llu next_id=%llu next_sequence=%llu dim=%llu "
                  "entries=%llu",
                  &version, &next_id, &next_sequence, &dim, &entries) != 5) {
    return Status::DataLoss("unparseable checkpoint metadata line");
  }
  // Ids are ObjectIds on disk too: a wider value is damage, not an id to
  // truncate.
  constexpr unsigned long long kMaxId = std::numeric_limits<ObjectId>::max();
  if (next_id > kMaxId) {
    return Status::DataLoss("checkpoint next_id exceeds the object id range");
  }
  state.version = version;
  state.next_id = static_cast<ObjectId>(next_id);
  state.next_sequence = next_sequence;
  state.dim = static_cast<size_t>(dim);
  // No reserve: `entries` is checked against the content entry by entry,
  // and a lying count must end in DataLoss, not in its allocation.
  ObjectId prev_id = 0;
  for (uint64_t i = 0; i < entries; ++i) {
    if (pos >= body.size()) {
      return Status::DataLoss("checkpoint entry count exceeds content");
    }
    const std::string line = next_line();
    const size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Status::DataLoss("checkpoint entry without stable id");
    }
    // Digits only: strtoull would also take a sign or leading space.
    char* end = nullptr;
    const unsigned long long stable =
        std::strtoull(line.c_str(), &end, 10);
    if (line[0] < '0' || line[0] > '9' || end != line.c_str() + comma) {
      return Status::DataLoss("unparseable stable id in checkpoint entry");
    }
    if (stable > kMaxId) {
      return Status::DataLoss(
          "checkpoint stable id exceeds the object id range");
    }
    const StatusOr<io::ParsedObject> parsed =
        io::ParseObject(line.substr(comma + 1));
    if (!parsed.ok()) {
      return Status::DataLoss("undecodable checkpoint entry: " +
                              parsed.status().ToString());
    }
    CheckpointEntry entry;
    entry.stable_id = static_cast<ObjectId>(stable);
    entry.pdf = parsed->pdf;
    entry.existence = parsed->existence;
    if (i > 0 && entry.stable_id <= prev_id) {
      return Status::DataLoss("checkpoint entries not ascending");
    }
    if (entry.stable_id >= state.next_id) {
      return Status::DataLoss("checkpoint entry beyond next_id watermark");
    }
    prev_id = entry.stable_id;
    state.entries.push_back(std::move(entry));
  }
  if (pos != body.size()) {
    return Status::DataLoss("trailing content after checkpoint entries");
  }
  return state;
}

}  // namespace

std::string CheckpointFileName(uint64_t version) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%020" PRIu64 "%s", kFilePrefix, version,
                kFileSuffix);
  return buf;
}

Status WriteCheckpoint(const std::string& dir, const CheckpointState& state) {
  std::string content = kHeaderLine;
  char meta[192];
  std::snprintf(meta, sizeof(meta),
                "version=%llu next_id=%llu next_sequence=%llu dim=%zu "
                "entries=%zu\n",
                static_cast<unsigned long long>(state.version),
                static_cast<unsigned long long>(state.next_id),
                static_cast<unsigned long long>(state.next_sequence),
                state.dim, state.entries.size());
  content += meta;
  for (const CheckpointEntry& entry : state.entries) {
    const StatusOr<std::string> line = io::SerializeObject(
        UncertainObject(entry.stable_id, entry.pdf, entry.existence));
    if (!line.ok()) return line.status();
    content += std::to_string(entry.stable_id);
    content += ',';
    content += *line;
    content += '\n';
  }
  char trailer[32];
  std::snprintf(trailer, sizeof(trailer), "# crc32c=%08x\n",
                Crc32c(content.data(), content.size()));
  content += trailer;

  const std::string final_name = CheckpointFileName(state.version);
  const std::string tmp_path = dir + "/" + final_name + kTmpSuffix;
  const std::string final_path = dir + "/" + final_name;
  UPDB_RETURN_IF_ERROR(WriteFileDurably(tmp_path, content));
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::Unavailable("rename of checkpoint into '" + final_path +
                               "' failed: " + std::strerror(errno));
  }
  return SyncDir(dir);
}

StatusOr<LoadedCheckpoint> LoadNewestCheckpoint(const std::string& dir) {
  std::error_code ec;
  std::vector<std::pair<uint64_t, std::string>> candidates;
  for (const auto& it : std::filesystem::directory_iterator(dir, ec)) {
    uint64_t version = 0;
    const std::string name = it.path().filename().string();
    if (ParseNumberedFileName(name, kFilePrefix, kFileSuffix, &version)) {
      candidates.emplace_back(version, it.path().string());
    }
  }
  if (ec) {
    return Status::Unavailable("cannot read WAL directory '" + dir +
                               "': " + ec.message());
  }
  if (candidates.empty()) {
    return Status::NotFound("no checkpoint files in '" + dir + "'");
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });

  LoadedCheckpoint loaded;
  for (const auto& [version, path] : candidates) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      loaded.warnings.push_back("cannot open '" + path + "'");
      continue;
    }
    std::string data;
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) data.append(buf, n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
      loaded.warnings.push_back("read error on '" + path + "'");
      continue;
    }
    StatusOr<CheckpointState> state = ParseCheckpoint(data);
    if (!state.ok()) {
      loaded.warnings.push_back("'" + path +
                                "' rejected: " + state.status().ToString());
      continue;
    }
    if (state->version != version) {
      loaded.warnings.push_back("'" + path + "' names version " +
                                std::to_string(state->version));
      continue;
    }
    loaded.state = *std::move(state);
    loaded.path = path;
    return loaded;
  }
  std::string detail;
  for (const std::string& w : loaded.warnings) {
    if (!detail.empty()) detail += "; ";
    detail += w;
  }
  return Status::DataLoss("no checkpoint in '" + dir +
                          "' validates: " + detail);
}

Status PruneCheckpoints(const std::string& dir, size_t keep) {
  std::error_code ec;
  std::vector<std::pair<uint64_t, std::string>> checkpoints;
  std::vector<std::string> stale_tmps;
  for (const auto& it : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = it.path().filename().string();
    uint64_t version = 0;
    if (ParseNumberedFileName(name, kFilePrefix, kFileSuffix, &version)) {
      checkpoints.emplace_back(version, it.path().string());
    } else if (name.size() > std::strlen(kTmpSuffix) &&
               name.rfind(kTmpSuffix) == name.size() -
                                             std::strlen(kTmpSuffix) &&
               name.rfind(kFilePrefix, 0) == 0) {
      stale_tmps.push_back(it.path().string());
    }
  }
  if (ec) {
    return Status::Unavailable("cannot read WAL directory '" + dir +
                               "': " + ec.message());
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  Status first_error;
  const auto remove_file = [&first_error](const std::string& path) {
    std::error_code rm_ec;
    std::filesystem::remove(path, rm_ec);
    if (rm_ec && first_error.ok()) {
      first_error = Status::Unavailable("cannot remove '" + path +
                                        "': " + rm_ec.message());
    }
  };
  for (size_t i = keep; i < checkpoints.size(); ++i) {
    remove_file(checkpoints[i].second);
  }
  for (const std::string& tmp : stale_tmps) remove_file(tmp);
  return first_error;
}

}  // namespace store
}  // namespace updb
