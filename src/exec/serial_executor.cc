#include "exec/serial_executor.h"

#include <span>
#include <tuple>
#include <utility>

#include "ckpt/snapshot.h"
#include "exec/checkpoint_cadence.h"
#include "fault/fault.h"
#include "metrics/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

/// The serial loop. It stamps sequence numbers straight into the borrowed
/// batch, so a source that lends its own storage (VectorSource) feeds the
/// engine with zero per-batch copies.
template <class OutputT>
BasicRunResult<OutputT> RunSerial(const RunOptions& options,
                                  StreamSource* source,
                                  BasicEngine<OutputT>* engine,
                                  SerialBuffers* buffers,
                                  std::span<const uint64_t> query_hashes) {
  SerialBuffers local;
  std::vector<OutputT>* scratch = &std::get<std::vector<OutputT>>(
      (buffers != nullptr ? buffers : &local)->scratch);
  BasicRunResult<OutputT> result;
  result.batch_size = options.batch_size;
  SeqNum seq = options.start_offset;
  CheckpointCadence ckpt(options, options.checkpoint_every);
  const auto save = [&] {
    return ckpt::SaveEngineSnapshot(
        ckpt::SnapshotPathForOffset(options.checkpoint_dir, seq), *engine,
        seq, query_hashes);
  };
  StopWatch watch;
  for (;;) {
    // Stop-flag check before refill: no batch is pulled and then dropped,
    // so the final checkpoint covers exactly the events already fed.
    if (options.StopRequested()) {
      result.interrupted = true;
      break;
    }
    std::span<Event> batch = source->BorrowBatch(options.batch_size);
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
      options.output_sink->Take(std::span<const OutputT>(*scratch));
    } else if (options.collect_outputs) {
      result.outputs.insert(result.outputs.end(), scratch->begin(),
                            scratch->end());
    }
    if (ckpt.Due(seq)) ckpt.Record(seq, save(), &result);
  }
  // Graceful stop: one final snapshot at the stop offset, so a later
  // --restore-from resumes without replaying anything.
  if (ckpt.FinalDue(seq, result)) ckpt.Record(seq, save(), &result);
  result.elapsed_seconds = watch.ElapsedSeconds();
  result.events = seq - options.start_offset;
  return result;
}

template RunResult RunSerial(const RunOptions&, StreamSource*, QueryEngine*,
                             SerialBuffers*, std::span<const uint64_t>);
template MultiRunResult RunSerial(const RunOptions&, StreamSource*,
                                  MultiQueryEngine*, SerialBuffers*,
                                  std::span<const uint64_t>);

template <class EngineT>
SerialExecutorT<EngineT>::SerialExecutorT(const RunOptions& options,
                                          std::unique_ptr<EngineT> engine,
                                          std::vector<uint64_t> query_hashes)
    : options_(options),
      engine_(std::move(engine)),
      query_hashes_(std::move(query_hashes)) {
  options_.num_shards = 1;
}

template <class EngineT>
typename SerialExecutorT<EngineT>::RunResultT SerialExecutorT<EngineT>::Run(
    StreamSource* source) {
  const uint64_t fired_at_start = fault::Injector::Global().fired_count();
  RunResultT result =
      RunSerial(options_, source, engine_.get(), &buffers_, query_hashes_);
  busy_seconds_ = result.elapsed_seconds;
  coord_counts_.fault_injected =
      fault::Injector::Global().fired_count() - fired_at_start;
  return result;
}

template <class EngineT>
Status SerialExecutorT<EngineT>::Restore(const std::string& path,
                                         uint64_t* stream_offset) {
  ASEQ_RETURN_NOT_OK(
      ckpt::RestoreEngineSnapshot(path, engine_.get(), stream_offset,
                                  query_hashes_));
  options_.start_offset = *stream_offset;
  return Status::OK();
}

template class SerialExecutorT<QueryEngine>;
template class SerialExecutorT<MultiQueryEngine>;

}  // namespace exec
}  // namespace aseq
