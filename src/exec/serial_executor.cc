#include "exec/serial_executor.h"

#include <span>
#include <utility>

#include "ckpt/snapshot.h"
#include "metrics/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

namespace {

/// Writes a snapshot when the stream offset crosses the next checkpoint
/// threshold. `save` is called with (path, offset); shared between the
/// single- and multi-query loops. After the first I/O failure the status
/// is latched and no further snapshots are attempted.
template <typename SaveFn>
void MaybeCheckpoint(const RunOptions& options, uint64_t offset,
                     uint64_t* next_due, RunResultBase* result, SaveFn&& save) {
  if (options.checkpoint_every == 0 || !result->checkpoint_status.ok() ||
      offset < *next_due) {
    return;
  }
  Status s = save(ckpt::SnapshotPathForOffset(options.checkpoint_dir, offset),
                  offset);
  if (s.ok()) {
    ++result->checkpoints_written;
    if (options.telemetry != nullptr) {
      options.telemetry->coord().checkpoints.Add(1);
    }
    result->last_checkpoint_offset = offset;
  } else {
    result->checkpoint_status = std::move(s);
  }
  while (*next_due <= offset) *next_due += options.checkpoint_every;
}

/// The serial loop, shared by single- and multi-query runs:
/// `refill` yields the next batch as a mutable view (empty = stream
/// exhausted); the loop stamps sequence numbers straight into the viewed
/// events, so a source that lends its own storage (VectorSource) feeds
/// the engine with zero per-batch copies. `scratch`/`result->outputs`
/// are the matching Output types.
template <typename ResultT, typename EngineT, typename ScratchT,
          typename RefillFn, typename SaveFn>
ResultT RunSerialLoop(const RunOptions& options, ScratchT* scratch,
                      EngineT* engine, RefillFn&& refill, SaveFn&& save) {
  ResultT result;
  result.batch_size = options.batch_size;
  SeqNum seq = options.start_offset;
  uint64_t next_ckpt = options.start_offset + options.checkpoint_every;
  StopWatch watch;
  for (;;) {
    // Stop-flag check before refill: no batch is pulled and then dropped,
    // so the final checkpoint covers exactly the events already fed.
    if (options.stop_requested != nullptr &&
        options.stop_requested->load(std::memory_order_relaxed)) {
      result.interrupted = true;
      break;
    }
    std::span<Event> batch = refill();
    if (batch.empty()) break;
    for (Event& e : batch) e.set_seq(seq++);
    scratch->clear();
    if (options.telemetry == nullptr) {
      engine->OnBatch(std::span<const Event>(batch), scratch);
    } else {
      // Serial telemetry: admission and execution are fused in OnBatch, so
      // one span covers both; the batch elapsed doubles as the
      // trigger-to-output latency when the batch produced outputs.
      obs::Telemetry& tel = *options.telemetry;
      const uint64_t begin_ns = obs::MonotonicNanos();
      engine->OnBatch(std::span<const Event>(batch), scratch);
      const uint64_t end_ns = obs::MonotonicNanos();
      const uint64_t elapsed = end_ns - begin_ns;
      tel.coord().batches.Add(1);
      tel.coord().events.Add(batch.size());
      tel.coord().admit_ns.Record(elapsed);
      obs::ShardCell& cell = tel.shard(0);
      cell.ops.Add(batch.size());
      cell.events.Add(batch.size());
      cell.outputs.Add(scratch->size());
      cell.items.Add(1);
      cell.busy_ns.Add(elapsed);
      cell.op_service_ns.Record(elapsed / batch.size());
      if (!scratch->empty()) cell.trigger_latency_ns.Record(elapsed);
      if (tel.trace() != nullptr) {
        tel.trace()->Span(
            "batch", 0, begin_ns, end_ns,
            {obs::TraceWriter::NumArg("seq", seq - batch.size()),
             obs::TraceWriter::NumArg("events", batch.size()),
             obs::TraceWriter::NumArg("outputs", scratch->size())});
      }
    }
    if (options.output_sink != nullptr) {
      options.output_sink->Take(std::span<const typename ScratchT::value_type>(
          *scratch));
    } else if (options.collect_outputs) {
      result.outputs.insert(result.outputs.end(), scratch->begin(),
                            scratch->end());
    }
    MaybeCheckpoint(options, seq, &next_ckpt, &result,
                    [&](const std::string& path, uint64_t offset) {
                      return save(path, offset);
                    });
  }
  // Graceful stop: write one final snapshot at the current offset so a
  // later --restore-from resumes without replaying anything.
  if (result.interrupted && !options.checkpoint_dir.empty() &&
      result.checkpoint_status.ok() &&
      (result.checkpoints_written == 0 ||
       result.last_checkpoint_offset < seq)) {
    Status s =
        save(ckpt::SnapshotPathForOffset(options.checkpoint_dir, seq), seq);
    if (s.ok()) {
      ++result.checkpoints_written;
      if (options.telemetry != nullptr) {
        options.telemetry->coord().checkpoints.Add(1);
      }
      result.last_checkpoint_offset = seq;
    } else {
      result.checkpoint_status = std::move(s);
    }
  }
  result.elapsed_seconds = watch.ElapsedSeconds();
  result.events = seq - options.start_offset;
  return result;
}

/// Refill by borrowing from a StreamSource.
struct StreamRefill {
  StreamSource* source;
  size_t batch_size;
  std::span<Event> operator()() const {
    return source->BorrowBatch(batch_size);
  }
};

Status RestoreSnapshot(const std::string& path, QueryEngine* engine,
                       uint64_t* offset) {
  return ckpt::RestoreEngineSnapshot(path, engine, offset);
}
Status RestoreSnapshot(const std::string& path, MultiQueryEngine* engine,
                       uint64_t* offset) {
  return ckpt::RestoreMultiSnapshot(path, engine, offset);
}

}  // namespace

RunResult RunSerial(const RunOptions& options, StreamSource* source,
                    QueryEngine* engine, SerialBuffers* buffers) {
  SerialBuffers local;
  return RunSerialLoop<RunResult>(
      options, &(buffers != nullptr ? buffers : &local)->scratch, engine,
      StreamRefill{source, options.batch_size},
      [&](const std::string& path, uint64_t offset) {
        return ckpt::SaveEngineSnapshot(path, *engine, offset);
      });
}

MultiRunResult RunSerial(const RunOptions& options, StreamSource* source,
                         MultiQueryEngine* engine, SerialBuffers* buffers) {
  SerialBuffers local;
  return RunSerialLoop<MultiRunResult>(
      options, &(buffers != nullptr ? buffers : &local)->multi_scratch,
      engine, StreamRefill{source, options.batch_size},
      [&](const std::string& path, uint64_t offset) {
        return ckpt::SaveMultiSnapshot(path, *engine, offset);
      });
}

template <class EngineT>
SerialExecutorT<EngineT>::SerialExecutorT(const RunOptions& options,
                                          std::unique_ptr<EngineT> engine)
    : options_(options), engine_(std::move(engine)) {
  options_.num_shards = 1;
}

template <class EngineT>
typename SerialExecutorT<EngineT>::RunResultT SerialExecutorT<EngineT>::Run(
    StreamSource* source) {
  RunResultT result = RunSerial(options_, source, engine_.get(), &buffers_);
  stats_view_ = engine_->stats();
  busy_seconds_ = result.elapsed_seconds;
  return result;
}

template <class EngineT>
Status SerialExecutorT<EngineT>::Restore(const std::string& path,
                                         uint64_t* stream_offset) {
  ASEQ_RETURN_NOT_OK(RestoreSnapshot(path, engine_.get(), stream_offset));
  options_.start_offset = *stream_offset;
  return Status::OK();
}

template class SerialExecutorT<QueryEngine>;
template class SerialExecutorT<MultiQueryEngine>;

}  // namespace exec
}  // namespace aseq
