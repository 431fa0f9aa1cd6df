#ifndef ASEQ_EXEC_SHARD_SUPERVISOR_H_
#define ASEQ_EXEC_SHARD_SUPERVISOR_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/runtime.h"
#include "exec/shard_lanes.h"

namespace aseq {
namespace exec {

/// \brief Supervision of the sharded workers (RunOptions::supervise;
/// docs/internals.md §14): the watchdog, the per-lane recovery points and
/// replay logs, and the restart budget and backoff.
///
/// A worker that dies (injected crash) or goes silent with queued work for
/// longer than the watchdog timeout is quarantined and restarted alone:
/// its engine twin is rebuilt from the lane's last recovery point (an
/// in-memory engine snapshot captured at every barrier) and its routed op
/// slice since that point is replayed, so outputs and stats end bit-exact
/// with an unfailed run. The replay log pins the shared batches of that
/// slice (one reference per entry) next to the lane's op words. A restart
/// is BeginRestart, the coordinator's engine rebuild and respawn, then
/// Replay. Restarts back off exponentially and are budgeted per recovery
/// interval; exhausting the budget aborts the run.
class ShardSupervisor {
 public:
  /// What a lane rolls back to: the engine's Checkpoint payload and the
  /// seq it was taken at (every output and object record of the lane
  /// below it was already collected).
  struct RecoveryPoint {
    std::string snapshot;
    SeqNum seq = 0;
  };

  /// One publication to the lane since its recovery point: the shared
  /// batch (pinned) and the lane's op words for it.
  struct LogEntry {
    SharedBatch* batch = nullptr;
    std::vector<uint32_t> ops;
    SeqNum end_seq = 0;
  };

  ShardSupervisor(size_t num_shards, const RunOptions& options,
                  ShardLanes* lanes);
  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  /// Per-run reset of the watchdog and the counters.
  void ResetForRun();

  /// The watchdog: true when the lane's worker is dead, or silent (not
  /// idle, not at a barrier, heartbeat frozen) past the watchdog timeout.
  bool LaneFailed(size_t shard);

  /// Logs a publication to the lane and pins its batch until the next
  /// recovery point.
  void Log(size_t shard, SharedBatch* batch, std::span<const uint32_t> ops,
           SeqNum end_seq);

  /// Sets the lane's recovery point (workers parked at a barrier): clears
  /// its replay log and refills its restart budget.
  void SetRecoveryPoint(size_t shard, RecoveryPoint point);
  /// Unpins every logged batch (end of run).
  void ClearLogs();

  /// Quarantines and joins the failed worker, charges the lane's restart
  /// budget, backs off, and resets the lane. Returns the recovery point to
  /// rebuild the engine from, or an error once the budget is exhausted.
  Result<const RecoveryPoint*> BeginRestart(size_t shard);

  /// After the coordinator respawned the worker: re-arms the watchdog and
  /// replays the lane's routed slice through `publish` (one call per log
  /// entry, in order), then its owed barrier token. If the fresh worker
  /// fails again mid-replay, or a stop request arrives, it abandons; the
  /// caller's next failure check restarts again, and the budget bounds the
  /// loop.
  void Replay(size_t shard,
              const std::function<PushResult(const LogEntry&)>& publish);

  uint64_t restarts() const { return restarts_; }
  uint64_t replayed_events() const { return replayed_events_; }

 private:
  struct LaneState {
    RecoveryPoint point;
    /// The first `logged` entries are live; the rest keep their op
    /// vectors' capacity.
    std::vector<LogEntry> log;
    size_t logged = 0;
    /// Restarts burned since the last recovery point.
    size_t restart_attempts = 0;
    /// Last observed heartbeat and when it changed.
    uint64_t last_progress = 0;
    std::chrono::steady_clock::time_point last_change;
  };

  obs::TraceWriter* Trace() const {
    return options_.telemetry != nullptr ? options_.telemetry->trace()
                                         : nullptr;
  }

  const RunOptions& options_;
  ShardLanes* lanes_;
  std::vector<LaneState> lanes_state_;
  uint64_t restarts_ = 0;
  uint64_t replayed_events_ = 0;
};

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARD_SUPERVISOR_H_
