#ifndef ASEQ_OBS_TRACE_WRITER_H_
#define ASEQ_OBS_TRACE_WRITER_H_

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace aseq {
namespace obs {

/// Escapes `s` for a JSON string literal (quote, backslash, control
/// characters). Shared by the trace and the --stats-json writer.
std::string JsonEscape(const std::string& s);

/// \brief Streams chrome://tracing "JSON array format" events to a file.
///
/// The file is a single JSON array of event objects; the trace viewer
/// tolerates a missing closing bracket, but Close() writes one anyway so
/// the output is also valid JSON for generic tooling. Span() emits a
/// complete-duration event ("ph":"X"), Instant() a process-scoped instant
/// ("ph":"i").
///
/// Thread safety: all emit calls take an internal mutex. Trace emission
/// happens on cold paths only (batch granularity, barriers, supervisor
/// actions), so the lock is never on the per-op hot path.
///
/// Timestamps are microseconds relative to the telemetry epoch, which the
/// owner passes as `epoch_ns`; callers hand in absolute MonotonicNanos()
/// values and the writer rebases them.
class TraceWriter {
 public:
  /// Opens `path` for writing and emits process/thread metadata for
  /// `num_shards` worker lanes plus the coordinator. Check ok() after.
  TraceWriter(const std::string& path, uint64_t epoch_ns, size_t num_shards);
  ~TraceWriter();

  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  bool ok() const { return ok_; }

  /// Tid used for coordinator-side events (router, barriers, checkpoints,
  /// supervisor actions). Worker lanes use tid = shard index.
  static constexpr int64_t kCoordTid = 1000;

  using Args = std::vector<std::pair<std::string, std::string>>;

  /// Complete span [begin_ns, end_ns] (absolute MonotonicNanos values).
  /// String arg values are JSON-escaped; pass numbers pre-formatted via
  /// NumArg to emit them unquoted.
  void Span(const char* name, int64_t tid, uint64_t begin_ns, uint64_t end_ns,
            const Args& args = {});

  /// Instant event at `at_ns` (absolute), rendered as a vertical tick.
  void Instant(const char* name, int64_t tid, uint64_t at_ns,
               const Args& args = {});

  /// Marks an arg value as a raw JSON number (emitted unquoted).
  static std::pair<std::string, std::string> NumArg(const std::string& key,
                                                    uint64_t value);

  /// Flushes buffered events to the OS. Called by the checkpoint observer
  /// so a crash right after a checkpoint still leaves the trace on disk.
  void Flush();

  /// Writes the closing bracket and closes the file. Idempotent.
  void Close();

 private:
  void EmitLocked(const std::string& json);
  void WriteArgsLocked(const Args& args);

  std::ofstream out_;
  std::mutex mu_;
  uint64_t epoch_ns_;
  bool ok_ = false;
  bool first_ = true;
  bool closed_ = false;
};

}  // namespace obs
}  // namespace aseq

#endif  // ASEQ_OBS_TRACE_WRITER_H_
