#include "exec/shard_supervisor.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

ShardSupervisor::ShardSupervisor(size_t num_shards, const RunOptions& options,
                                 ShardLanes* lanes)
    : options_(options), lanes_(lanes), lanes_state_(num_shards) {}

void ShardSupervisor::ResetForRun() {
  // Recovery points, replay logs and budgets are (re)set by the run's
  // initial SetRecoveryPoint calls.
  for (LaneState& st : lanes_state_) {
    st.last_progress = 0;
    st.last_change = std::chrono::steady_clock::now();
  }
  restarts_ = 0;
  replayed_events_ = 0;
}

bool ShardSupervisor::LaneFailed(size_t shard) {
  ShardLanes::Lane& lane = lanes_->lane(shard);
  LaneState& st = lanes_state_[shard];
  if (lane.dead.load(std::memory_order_acquire)) return true;
  const uint64_t p = lane.progress.load(std::memory_order_relaxed);
  const auto now = std::chrono::steady_clock::now();
  if (p != st.last_progress || lane.idle.load(std::memory_order_relaxed) ||
      lane.at_barrier.load(std::memory_order_relaxed)) {
    st.last_progress = p;
    st.last_change = now;
    return false;
  }
  return std::chrono::duration<double, std::milli>(now - st.last_change)
             .count() > options_.watchdog_timeout_ms;
}

void ShardSupervisor::Log(size_t shard, SharedBatch* batch,
                          std::span<const uint32_t> ops, SeqNum end_seq) {
  LaneState& st = lanes_state_[shard];
  if (st.logged == st.log.size()) st.log.emplace_back();
  LogEntry& entry = st.log[st.logged++];
  SharedBatchPool::Ref(batch);
  entry.batch = batch;
  entry.ops.assign(ops.begin(), ops.end());
  entry.end_seq = end_seq;
}

void ShardSupervisor::SetRecoveryPoint(size_t shard, RecoveryPoint point) {
  LaneState& st = lanes_state_[shard];
  st.point = std::move(point);
  for (size_t i = 0; i < st.logged; ++i) {
    SharedBatchPool::Release(st.log[i].batch);
    st.log[i].batch = nullptr;
  }
  st.logged = 0;
  st.restart_attempts = 0;
}

void ShardSupervisor::ClearLogs() {
  for (size_t s = 0; s < lanes_state_.size(); ++s) {
    SetRecoveryPoint(s, RecoveryPoint{});
  }
}

Result<const ShardSupervisor::RecoveryPoint*> ShardSupervisor::BeginRestart(
    size_t shard) {
  LaneState& st = lanes_state_[shard];
  if (obs::TraceWriter* trace = Trace()) {
    const bool dead =
        lanes_->lane(shard).dead.load(std::memory_order_acquire);
    trace->Instant("quarantine", obs::TraceWriter::kCoordTid,
                   obs::MonotonicNanos(),
                   {obs::TraceWriter::NumArg("shard", shard),
                    {"cause", dead ? "crash" : "stall"}});
  }
  lanes_->Reap(shard);
  ++st.restart_attempts;
  ++restarts_;
  if (st.restart_attempts > options_.max_restarts) {
    return Status::Internal(
        "shard " + std::to_string(shard) + " exhausted its restart budget (" +
        std::to_string(options_.max_restarts) +
        " since the last recovery point); giving up");
  }
  // Bounded exponential backoff before respawning (first restart is
  // immediate): 1, 2, 4, ... 64 ms.
  if (st.restart_attempts > 1) {
    const size_t shift = std::min<size_t>(st.restart_attempts - 2, 6);
    std::this_thread::sleep_for(std::chrono::milliseconds(1ll << shift));
  }
  lanes_->ResetAfterJoin(shard);
  return &st.point;
}

void ShardSupervisor::Replay(
    size_t shard, const std::function<PushResult(const LogEntry&)>& publish) {
  LaneState& st = lanes_state_[shard];
  st.last_progress =
      lanes_->lane(shard).progress.load(std::memory_order_relaxed);
  st.last_change = std::chrono::steady_clock::now();
  obs::TraceWriter* const trace = Trace();
  if (trace != nullptr) {
    trace->Instant("restart", obs::TraceWriter::kCoordTid,
                   obs::MonotonicNanos(),
                   {obs::TraceWriter::NumArg("shard", shard),
                    obs::TraceWriter::NumArg("attempt", st.restart_attempts)});
  }
  uint64_t replayed = 0;
  bool abandoned = false;
  for (size_t i = 0; i < st.logged; ++i) {
    const LogEntry& entry = st.log[i];
    if (publish(entry) != PushResult::kPushed) {
      abandoned = true;
      break;
    }
    for (uint32_t op : entry.ops) {
      if ((op & kMarkerOp) == 0) ++replayed;
    }
  }
  replayed_events_ += replayed;
  if (trace != nullptr) {
    trace->Instant("replay", obs::TraceWriter::kCoordTid,
                   obs::MonotonicNanos(),
                   {obs::TraceWriter::NumArg("shard", shard),
                    obs::TraceWriter::NumArg("events", replayed)});
  }
  // Re-issue a barrier token lost with the cleared ring, or the
  // coordinator's barrier would never complete.
  if (!abandoned && lanes_->lane(shard).barrier_pending) {
    LaneItem token{.tag = LaneItem::Tag::kBarrier};
    lanes_->Push(shard, token);
  }
}

}  // namespace exec
}  // namespace aseq
