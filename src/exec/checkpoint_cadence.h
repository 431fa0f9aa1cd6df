#ifndef ASEQ_EXEC_CHECKPOINT_CADENCE_H_
#define ASEQ_EXEC_CHECKPOINT_CADENCE_H_

#include <cstdint>
#include <limits>
#include <utility>

#include "common/status.h"
#include "engine/runtime.h"
#include "obs/emitter.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

/// \brief When a run snapshots, and the bookkeeping of each attempt —
/// shared by the serial loop and the sharded coordinator.
///
/// A snapshot is due at the first batch boundary at or past each multiple
/// of `every` events after options.start_offset (0 = never). The first
/// failed attempt is latched in RunResultBase::checkpoint_status and ends
/// the cadence. A run stopped by a stop request owes one final snapshot at
/// its stop offset (FinalDue). Supervised sharded runs pace their
/// in-memory recovery points with a second instance (Due + Advance only).
class CheckpointCadence {
 public:
  CheckpointCadence(const RunOptions& options, uint64_t every)
      : telemetry_(options.telemetry),
        final_on_stop_(!options.checkpoint_dir.empty()),
        every_(every),
        next_(every == 0 ? kNever : options.start_offset + every) {}

  bool Due(uint64_t offset) const { return offset >= next_; }

  /// Moves the next due offset past `offset`.
  void Advance(uint64_t offset) {
    while (next_ <= offset) next_ += every_;
  }

  /// The final-snapshot-on-stop rule: an interrupted run with a checkpoint
  /// directory snapshots its stop offset, unless the newest snapshot is
  /// already there or checkpointing failed.
  bool FinalDue(uint64_t offset, const RunResultBase& result) const {
    return result.interrupted && final_on_stop_ &&
           result.checkpoint_status.ok() &&
           (result.checkpoints_written == 0 ||
            result.last_checkpoint_offset < offset);
  }

  /// Records one snapshot attempt at `offset` on `result` (count and last
  /// offset, or the latched failure) and advances past it. A written
  /// snapshot is a durability point: the trace gets a `checkpoint` instant
  /// and the trace and metrics files are flushed, so the observability
  /// files on disk cover at least as much of the run as the newest
  /// snapshot.
  void Record(uint64_t offset, Status status, RunResultBase* result) {
    if (status.ok()) {
      ++result->checkpoints_written;
      result->last_checkpoint_offset = offset;
      if (telemetry_ != nullptr) {
        if (obs::TraceWriter* trace = telemetry_->trace()) {
          trace->Instant("checkpoint", obs::TraceWriter::kCoordTid,
                         obs::MonotonicNanos(),
                         {obs::TraceWriter::NumArg("offset", offset)});
          trace->Flush();
        }
        if (telemetry_->emitter() != nullptr) telemetry_->emitter()->Flush();
        telemetry_->coord().checkpoints.Add(1);
      }
      Advance(offset);
    } else {
      result->checkpoint_status = std::move(status);
      next_ = kNever;
    }
  }

 private:
  static constexpr uint64_t kNever = std::numeric_limits<uint64_t>::max();

  obs::Telemetry* telemetry_;
  bool final_on_stop_;
  uint64_t every_;
  uint64_t next_;
};

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_CHECKPOINT_CADENCE_H_
