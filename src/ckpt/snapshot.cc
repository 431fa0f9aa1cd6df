#include "ckpt/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "fault/fault.h"

namespace aseq {
namespace ckpt {

namespace {

constexpr size_t kMagicLen = 8;

std::string ErrnoSuffix() {
  return std::string(": ") + std::strerror(errno);
}

/// Fsyncs a file or directory by path. POSIX durability for an atomic
/// write-then-rename needs both halves: the temp file's *contents* must be
/// on disk before the rename publishes them, and the *directory entry*
/// created by the rename is only durable once the parent directory itself
/// is synced — without the latter, a crash after rename can come back with
/// the old (or no) snapshot under the published name.
Status SyncPath(const std::string& path, bool directory) {
#ifndef _WIN32
  const int fd =
      ::open(path.c_str(), directory ? (O_RDONLY | O_DIRECTORY) : O_RDONLY);
  if (fd < 0) {
    return Status::IoError("cannot open '" + path + "' for fsync" +
                           ErrnoSuffix());
  }
  const int rc = ::fsync(fd);
  const int saved_errno = errno;
  ::close(fd);
  if (rc != 0) {
    errno = saved_errno;
    return Status::IoError("fsync failed for '" + path + "'" + ErrnoSuffix());
  }
#else
  (void)path;
  (void)directory;
#endif
  return Status::OK();
}

/// The engine-name mismatch error; `note` (if any) says what the two
/// runs differ in.
Status EngineMismatch(const std::string& path, const std::string& stored,
                      const std::string& expected, const std::string& note) {
  return Status::InvalidArgument("snapshot '" + path +
                                 "' was taken by engine '" + stored +
                                 "' but is being restored into '" + expected +
                                 "'" + note);
}

/// Refuses a snapshot taken for other queries than `expected`, naming
/// both hash lists.
Status CheckQueries(const std::string& path, const SnapshotInfo& info,
                    std::span<const uint64_t> expected) {
  if (std::equal(info.queries.begin(), info.queries.end(), expected.begin(),
                 expected.end())) {
    return Status::OK();
  }
  auto list = [](std::span<const uint64_t> hashes) {
    std::string out = std::to_string(hashes.size()) + " quer" +
                      (hashes.size() == 1 ? "y" : "ies") + " [";
    for (size_t i = 0; i < hashes.size(); ++i) {
      char hex[20];
      std::snprintf(hex, sizeof hex, "%s%016llx", i > 0 ? " " : "",
                    static_cast<unsigned long long>(hashes[i]));
      out += hex;
    }
    return out + "]";
  };
  return Status::InvalidArgument(
      "snapshot '" + path + "' was taken for " + list(info.queries) +
      " but is being restored into a run of " + list(expected) +
      " (query hashes differ: another query or workload)");
}

/// The engine name a sharded snapshot stores for its shards' engine.
std::string ShardedName(const std::string& engine) {
  return "Sharded[" + engine + "]";
}
bool IsShardedName(const std::string& name) {
  return name.starts_with("Sharded[");
}

std::string ParentDir(const std::string& path) {
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

}  // namespace

uint64_t Fnv1a64(std::string_view data) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

Status WriteSnapshotFile(const std::string& path,
                         const std::string& engine_name,
                         uint64_t stream_offset, std::string_view payload,
                         std::span<const uint64_t> queries) {
  if (fault::Injector::Global().armed()) {
    if (auto fired = fault::Injector::Global().Hit(fault::Point::kCkptWrite)) {
      if (fired->kind == fault::Kind::kIoError) {
        return Status::IoError("injected ckpt.write fault writing '" + path +
                               "'");
      }
      if (fired->kind == fault::Kind::kCrash) {
        std::_Exit(fault::kCrashExitCode);
      }
    }
  }
  Writer body;
  body.WriteString(engine_name);
  body.WriteU32(static_cast<uint32_t>(queries.size()));
  for (uint64_t q : queries) body.WriteU64(q);
  body.WriteU64(stream_offset);

  std::string out;
  out.append(kSnapshotMagic, kMagicLen);
  Writer header;
  header.WriteU32(kSnapshotFormatVersion);
  header.WriteU64(body.size() + payload.size());
  out.append(header.buffer());
  out.append(body.buffer());
  out.append(payload.data(), payload.size());
  Writer checksum;
  std::string_view full_body(out.data() + kMagicLen + 12,
                             body.size() + payload.size());
  checksum.WriteU64(Fnv1a64(full_body));
  out.append(checksum.buffer());

  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
    if (!f) {
      return Status::IoError("cannot open checkpoint temp file '" + tmp + "'" +
                             ErrnoSuffix());
    }
    f.write(out.data(), static_cast<std::streamsize>(out.size()));
    f.flush();
    if (!f) {
      std::remove(tmp.c_str());
      return Status::IoError("failed writing checkpoint temp file '" + tmp +
                             "'" + ErrnoSuffix());
    }
  }
  if (Status st = SyncPath(tmp, /*directory=*/false); !st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    Status st = Status::IoError("failed renaming checkpoint '" + tmp +
                                "' to '" + path + "'" + ErrnoSuffix());
    std::remove(tmp.c_str());
    return st;
  }
  return SyncPath(ParentDir(path), /*directory=*/true);
}

Status ReadSnapshotFile(const std::string& path, SnapshotInfo* info,
                        std::string* payload) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    return Status::IoError("cannot open snapshot file '" + path + "'" +
                           ErrnoSuffix());
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  std::string data = std::move(buf).str();

  if (data.size() < kMagicLen + 12 + 8) {
    return Status::ParseError("snapshot file '" + path +
                              "' is truncated: " + std::to_string(data.size()) +
                              " byte(s), smaller than the fixed framing");
  }
  if (std::memcmp(data.data(), kSnapshotMagic, kMagicLen) != 0) {
    return Status::ParseError("snapshot file '" + path +
                              "' has a bad magic header (not an A-Seq "
                              "checkpoint, or the header was corrupted)");
  }
  Reader header(std::string_view(data).substr(kMagicLen, 12));
  uint32_t version = 0;
  uint64_t body_len = 0;
  ASEQ_RETURN_NOT_OK(header.ReadU32(&version, "snapshot format version"));
  if (version != kSnapshotFormatVersion) {
    return Status::ParseError(
        "snapshot file '" + path + "' has format version " +
        std::to_string(version) + " but this build reads version " +
        std::to_string(kSnapshotFormatVersion));
  }
  ASEQ_RETURN_NOT_OK(header.ReadU64(&body_len, "snapshot body length"));
  const size_t body_off = kMagicLen + 12;
  if (body_len > data.size() - body_off - 8) {
    return Status::ParseError(
        "snapshot file '" + path + "' is truncated: body length field says " +
        std::to_string(body_len) + " byte(s) but only " +
        std::to_string(data.size() - body_off - 8) + " are present");
  }
  if (data.size() != body_off + body_len + 8) {
    return Status::ParseError("snapshot file '" + path + "' carries " +
                              std::to_string(data.size() - body_off -
                                             body_len - 8) +
                              " trailing byte(s) after the checksum");
  }
  std::string_view body = std::string_view(data).substr(body_off, body_len);
  Reader footer(std::string_view(data).substr(body_off + body_len, 8));
  uint64_t stored_sum = 0;
  ASEQ_RETURN_NOT_OK(footer.ReadU64(&stored_sum, "snapshot checksum"));
  const uint64_t actual_sum = Fnv1a64(body);
  if (stored_sum != actual_sum) {
    return Status::ParseError(
        "snapshot file '" + path + "' failed its checksum (stored " +
        std::to_string(stored_sum) + ", computed " +
        std::to_string(actual_sum) + "): the body is corrupted");
  }

  Reader body_reader(body);
  ASEQ_RETURN_NOT_OK(
      body_reader.ReadString(&info->engine_name, "snapshot engine name"));
  uint32_t num_queries = 0;
  ASEQ_RETURN_NOT_OK(
      body_reader.ReadU32(&num_queries, "snapshot query count"));
  info->queries.clear();
  for (uint32_t i = 0; i < num_queries; ++i) {
    uint64_t hash = 0;
    ASEQ_RETURN_NOT_OK(body_reader.ReadU64(&hash, "snapshot query hash"));
    info->queries.push_back(hash);
  }
  ASEQ_RETURN_NOT_OK(
      body_reader.ReadU64(&info->stream_offset, "snapshot stream offset"));
  payload->assign(body.substr(body_reader.position()));
  return Status::OK();
}

template <class OutputT>
Status SaveEngineSnapshot(const std::string& path,
                          const BasicEngine<OutputT>& engine,
                          uint64_t stream_offset,
                          std::span<const uint64_t> queries) {
  Writer payload;
  ASEQ_RETURN_NOT_OK(engine.Checkpoint(&payload));
  return WriteSnapshotFile(path, engine.name(), stream_offset,
                           payload.buffer(), queries);
}

template <class OutputT>
Status RestoreEngineSnapshot(const std::string& path,
                             BasicEngine<OutputT>* engine,
                             uint64_t* stream_offset,
                             std::span<const uint64_t> queries) {
  SnapshotInfo info;
  std::string payload;
  ASEQ_RETURN_NOT_OK(ReadSnapshotFile(path, &info, &payload));
  Reader reader(payload);
  if (info.engine_name != engine->name()) {
    std::string note;
    uint32_t shards = 0;
    if (IsShardedName(info.engine_name) &&
        reader.ReadU32(&shards, "shard count").ok()) {
      const std::string n = std::to_string(shards);
      note = " (a sharded snapshot of " + n +
             " shard(s) cannot seed a serial run";
      // The advice only where it helps: the shards run this engine.
      if (info.engine_name == ShardedName(engine->name())) {
        note += "; rerun with --shards " + n;
      }
      note += ")";
    }
    return EngineMismatch(path, info.engine_name, engine->name(), note);
  }
  ASEQ_RETURN_NOT_OK(CheckQueries(path, info, queries));
  ASEQ_RETURN_NOT_OK(engine->Restore(&reader));
  ASEQ_RETURN_NOT_OK(reader.ExpectEnd());
  *stream_offset = info.stream_offset;
  return Status::OK();
}

template <class OutputT>
Status SaveShardedSnapshot(const std::string& path,
                           std::span<const BasicEngine<OutputT>* const> shards,
                           uint64_t stream_offset, const EngineStats& merged,
                           std::string_view router_state,
                           std::span<const uint64_t> queries) {
  if (shards.empty()) {
    return Status::InvalidArgument(
        "sharded snapshot requires at least one shard engine");
  }
  Writer payload;
  payload.WriteU32(static_cast<uint32_t>(shards.size()));
  WriteStats(&payload, merged);
  payload.WriteString(router_state);
  for (const BasicEngine<OutputT>* shard : shards) {
    Writer sub;
    ASEQ_RETURN_NOT_OK(shard->Checkpoint(&sub));
    payload.WriteString(sub.buffer());
  }
  return WriteSnapshotFile(path, ShardedName(shards[0]->name()),
                           stream_offset, payload.buffer(), queries);
}

template <class OutputT>
Status RestoreShardedSnapshot(const std::string& path,
                              std::span<BasicEngine<OutputT>* const> shards,
                              uint64_t* stream_offset, EngineStats* merged,
                              std::string* router_state,
                              std::span<const uint64_t> queries) {
  if (shards.empty()) {
    return Status::InvalidArgument(
        "sharded snapshot requires at least one shard engine");
  }
  SnapshotInfo info;
  std::string payload;
  ASEQ_RETURN_NOT_OK(ReadSnapshotFile(path, &info, &payload));
  const std::string expected = ShardedName(shards[0]->name());
  if (info.engine_name != expected) {
    return EngineMismatch(
        path, info.engine_name, expected,
        IsShardedName(info.engine_name)
            ? ""
            : " (a non-sharded snapshot cannot seed a sharded run)");
  }
  ASEQ_RETURN_NOT_OK(CheckQueries(path, info, queries));
  Reader reader(payload);
  uint32_t count = 0;
  ASEQ_RETURN_NOT_OK(reader.ReadU32(&count, "shard count"));
  if (count != shards.size()) {
    return Status::InvalidArgument(
        "snapshot '" + path + "' holds " + std::to_string(count) +
        " shard(s) but " + std::to_string(shards.size()) +
        " were supplied; rerun with --shards " + std::to_string(count));
  }
  ASEQ_RETURN_NOT_OK(ReadStats(&reader, merged));
  ASEQ_RETURN_NOT_OK(reader.ReadString(router_state, "router state"));
  for (size_t i = 0; i < shards.size(); ++i) {
    std::string sub;
    ASEQ_RETURN_NOT_OK(reader.ReadString(&sub, "shard payload"));
    Reader sub_reader(sub);
    ASEQ_RETURN_NOT_OK(shards[i]->Restore(&sub_reader));
    ASEQ_RETURN_NOT_OK(sub_reader.ExpectEnd());
  }
  ASEQ_RETURN_NOT_OK(reader.ExpectEnd());
  *stream_offset = info.stream_offset;
  return Status::OK();
}

using Hashes = std::span<const uint64_t>;
template Status SaveEngineSnapshot(const std::string&, const QueryEngine&,
                                   uint64_t, Hashes);
template Status SaveEngineSnapshot(const std::string&,
                                   const MultiQueryEngine&, uint64_t, Hashes);
template Status RestoreEngineSnapshot(const std::string&, QueryEngine*,
                                      uint64_t*, Hashes);
template Status RestoreEngineSnapshot(const std::string&, MultiQueryEngine*,
                                      uint64_t*, Hashes);
template Status SaveShardedSnapshot(const std::string&,
                                    std::span<const QueryEngine* const>,
                                    uint64_t, const EngineStats&,
                                    std::string_view, Hashes);
template Status SaveShardedSnapshot(const std::string&,
                                    std::span<const MultiQueryEngine* const>,
                                    uint64_t, const EngineStats&,
                                    std::string_view, Hashes);
template Status RestoreShardedSnapshot(const std::string&,
                                       std::span<QueryEngine* const>,
                                       uint64_t*, EngineStats*, std::string*,
                                       Hashes);
template Status RestoreShardedSnapshot(const std::string&,
                                       std::span<MultiQueryEngine* const>,
                                       uint64_t*, EngineStats*, std::string*,
                                       Hashes);

std::string SnapshotPathForOffset(const std::string& dir, uint64_t offset) {
  std::string digits = std::to_string(offset);
  std::string padded(20 - std::min<size_t>(20, digits.size()), '0');
  padded += digits;
  return dir + "/ckpt-" + padded + ".aseqckpt";
}

}  // namespace ckpt
}  // namespace aseq
