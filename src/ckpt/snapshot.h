#ifndef ASEQ_CKPT_SNAPSHOT_H_
#define ASEQ_CKPT_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/ckpt.h"
#include "common/status.h"
#include "engine/engine.h"

namespace aseq {
namespace ckpt {

/// Snapshot file layout (all integers little-endian):
///
///   [8]  magic "ASEQCKPT"
///   [4]  u32 format version (kSnapshotFormatVersion)
///   [8]  u64 body length B
///   [B]  body: engine name (length-prefixed) + u32 query count Q +
///        Q x u64 query hash + u64 stream offset + the engine's
///        Checkpoint() payload
///   [8]  u64 FNV-1a checksum of the body
///
/// Writes are atomic: the file is written to `<path>.tmp` and renamed over
/// `path`, so a crash mid-write can never leave a half-written snapshot
/// under the published name.
///
/// Version history:
///   1  node-based partition map (bucket-count + insertion-order payload)
///   2  flat partition store: interner table + slab geometry + verbatim
///      expiry heap; sharded containers additionally carry router state
///   3  Chop-Connect snapshot tables as dense cell runs (first tag, cell
///      count, cells) and position-major segment counts
///   4  one composite payload for nonshare, sase and hybrid: the parts in
///      one counted list (hybrid wrote shared and per-query parts as two)
///   5  the run's query hashes after the engine name, so a restore into
///      other queries is refused before any state is read
///   6  HPC SUM/AVG/MIN/MAX payloads carry a populated expiry clock (every
///      aggregate expires through it); a v5 one holds an empty clock, and
///      restoring it would leave its partitions never expiring
inline constexpr uint32_t kSnapshotFormatVersion = 6;
inline constexpr char kSnapshotMagic[] = "ASEQCKPT";  // 8 bytes, no NUL

/// Header fields recovered before the engine payload is touched.
struct SnapshotInfo {
  std::string engine_name;
  /// QueryHash of each query the run executed, in workload order (empty
  /// when the writer named none).
  std::vector<uint64_t> queries;
  /// Number of stream events the engine had consumed when the snapshot was
  /// taken; resuming replays the trace from this offset.
  uint64_t stream_offset = 0;
};

/// FNV-1a 64-bit over `data` (the body checksum).
uint64_t Fnv1a64(std::string_view data);

/// The hash a snapshot records for a query: Fnv1a64 of its canonical text
/// (Query::ToString).
inline uint64_t QueryHash(std::string_view canonical_text) {
  return Fnv1a64(canonical_text);
}

/// Writes a complete snapshot file atomically (temp file + rename).
/// `queries` are the run's QueryHash values, in workload order.
Status WriteSnapshotFile(const std::string& path,
                         const std::string& engine_name,
                         uint64_t stream_offset, std::string_view payload,
                         std::span<const uint64_t> queries = {});

/// Reads and validates a snapshot file: magic, version, body length, and
/// checksum. On success `*info` holds the header and `*payload` the engine
/// payload bytes. Corrupt, truncated, or version-skewed files fail with a
/// descriptive ParseError/IoError and never touch an engine.
Status ReadSnapshotFile(const std::string& path, SnapshotInfo* info,
                        std::string* payload);

/// Checkpoints `engine` (plus the stream offset and the run's query
/// hashes) into a snapshot file. Defined for both output types
/// (single-query and workload engines), as are the three functions below.
template <class OutputT>
Status SaveEngineSnapshot(const std::string& path,
                          const BasicEngine<OutputT>& engine,
                          uint64_t stream_offset,
                          std::span<const uint64_t> queries = {});

/// Restores a snapshot into a freshly constructed engine for the same
/// queries. Fails without modifying `engine` if the file is invalid, was
/// taken by a different engine (name mismatch) or for other queries (the
/// recorded hashes differ from `queries`).
template <class OutputT>
Status RestoreEngineSnapshot(const std::string& path,
                             BasicEngine<OutputT>* engine,
                             uint64_t* stream_offset,
                             std::span<const uint64_t> queries = {});

/// \brief Multi-shard snapshot container (sharded execution).
///
/// Same outer file format as every snapshot; the engine name is
/// "Sharded[<inner engine name>]" so restoring a sharded container into a
/// serial engine (or vice versa) fails the existing name check up front.
/// The payload packs every shard under the one body checksum:
///
///   [4]  u32 shard count N
///   [..] merged EngineStats — the exact cross-shard merged view at the
///        checkpoint (the restored run seeds its peak-object merge from
///        it; per-shard stats live inside each shard payload)
///   [..] u64 length prefix + the router's Checkpoint() payload (the
///        router's key-interner table, whose dense ids decide shard
///        ownership; restoring it makes the replayed suffix route every
///        key to the shard that already owns it)
///   N x  u64 length prefix + the shard engine's Checkpoint() payload
///
/// Restore validates the shard count against the engines supplied, so a
/// run restored with a different --shards N fails with a clear message
/// instead of scrambling partition ownership. Single-query and workload
/// containers share the layout; the engine name check keeps the two
/// families from restoring into each other (a workload engine's name never
/// equals a single-query engine's).
template <class OutputT>
Status SaveShardedSnapshot(const std::string& path,
                           std::span<const BasicEngine<OutputT>* const> shards,
                           uint64_t stream_offset, const EngineStats& merged,
                           std::string_view router_state,
                           std::span<const uint64_t> queries = {});
template <class OutputT>
Status RestoreShardedSnapshot(const std::string& path,
                              std::span<BasicEngine<OutputT>* const> shards,
                              uint64_t* stream_offset, EngineStats* merged,
                              std::string* router_state,
                              std::span<const uint64_t> queries = {});

/// Canonical snapshot filename for a stream offset: `<dir>/ckpt-<offset
/// zero-padded to 20>.aseqckpt` — zero-padding makes lexicographic order
/// equal numeric order, so "latest" is the last name in a sorted listing.
std::string SnapshotPathForOffset(const std::string& dir, uint64_t offset);

}  // namespace ckpt
}  // namespace aseq

#endif  // ASEQ_CKPT_SNAPSHOT_H_
