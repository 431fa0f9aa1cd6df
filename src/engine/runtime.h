#ifndef ASEQ_ENGINE_RUNTIME_H_
#define ASEQ_ENGINE_RUNTIME_H_

#include <atomic>
#include <cstddef>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "stream/stream_source.h"

namespace aseq {

namespace obs {
class Telemetry;
}  // namespace obs

/// Default ingestion batch size for the batched execution pipeline (CLI
/// `--batch-size`, exec::RunSerial, and the bench harnesses). 256 events keeps
/// the refill buffer well inside L2 while amortizing per-event overheads.
inline constexpr size_t kDefaultBatchSize = 256;

/// \brief What the sharded coordinator does when a shard's bounded queue
/// reaches its high-watermark (or the fault injector simulates that).
///
/// Exactness per policy (docs/internals.md §14): block and degrade-serial
/// are lossless — outputs and stats stay bit-exact with the serial run;
/// shed preserves bit-exact outputs for every surviving partition and
/// accounts all drops in the shed_* counters (whole-run stats are then
/// intentionally not comparable to any serial oracle).
enum class OverloadPolicy : uint8_t {
  /// Park the router until the queue drains (the default bounded-queue
  /// backpressure behavior).
  kBlock,
  /// Stop routing ahead: after the overloaded batch, drain every shard
  /// queue to empty before feeding the next batch — pipelining is
  /// sacrificed while the overload lasts, nothing is lost.
  kDegradeSerial,
  /// Deterministically drop whole partitions: the overloaded event's
  /// GROUP BY key joins a shed set, and every current and future event of
  /// that key is discarded before routing.
  kShed,
};

/// \brief Receives a run's outputs in global sequence order, in place of
/// RunResult::outputs (see RunOptions::output_sink).
class OutputSink {
 public:
  virtual ~OutputSink() = default;
  /// Outputs of a single-query run.
  virtual void TakeOutputs(std::span<const Output>) {}
  /// Outputs of a multi-query run.
  virtual void TakeMultiOutputs(std::span<const MultiOutput>) {}

  /// Dispatch for code generic over the output type.
  void Take(std::span<const Output> outputs) { TakeOutputs(outputs); }
  void Take(std::span<const MultiOutput> outputs) {
    TakeMultiOutputs(outputs);
  }
};

/// \brief Knobs for a batched run.
struct RunOptions {
  /// Collect engine outputs into the result (benchmarks turn this off to
  /// avoid measuring vector growth — the scratch buffer is still reused,
  /// clear-not-shrink, between batches).
  bool collect_outputs = true;
  /// When set (it must outlive the run), outputs go to the sink instead of
  /// into the result, and collect_outputs is ignored. A serial run hands
  /// over each batch's outputs as the batch completes; a sharded run
  /// hands over, once per batch, the merged outputs below the lowest seq
  /// every shard has finished. Neither holds the run's outputs. The CLI
  /// keeps only the lines it prints this way.
  OutputSink* output_sink = nullptr;
  /// Events pulled from the source and handed to OnBatch per refill.
  /// A batch size of 1 degenerates to the per-event path (one OnBatch
  /// call per event).
  size_t batch_size = kDefaultBatchSize;
  /// Number of execution shards (1 = serial). Values > 1 request the
  /// partition-parallel policy (exec::MakePolicy): events are hash-routed
  /// by GROUP BY key to per-shard engine twins on worker threads, with
  /// results and stats merged back byte-identical to the serial run.
  /// Queries that cannot shard safely fall back to serial execution.
  size_t num_shards = 1;
  /// Checkpoint the engine every N events (0 disables). Snapshots land at
  /// the first batch boundary at or past each multiple of N, named by the
  /// stream offset they cover (ckpt::SnapshotPathForOffset), so a resumed
  /// run knows exactly where to replay from.
  size_t checkpoint_every = 0;
  /// Directory snapshots are written to; must be set (and exist) when
  /// checkpoint_every > 0.
  std::string checkpoint_dir;
  /// Sequence number assigned to the first event fed this run. A restored
  /// run passes the snapshot's stream offset here and feeds only the trace
  /// tail, so replayed events carry the same seq numbers they would have
  /// had in the uninterrupted run.
  uint64_t start_offset = 0;
  /// Supervise sharded workers (sharded runs only): per-shard heartbeats,
  /// a watchdog that quarantines dead/stalled workers, and
  /// checkpoint-backed single-shard restart with routed-slice replay —
  /// results stay bit-exact with an unfailed run.
  bool supervise = false;
  /// Supervised runs capture an in-memory recovery point (per-shard engine
  /// snapshot + replay-log truncation) at the first batch boundary at or
  /// past each multiple of N events. Disk checkpoints (checkpoint_every)
  /// piggyback on the same barriers.
  size_t recovery_every = 4096;
  /// A worker with queued work is declared stalled after this long without
  /// heartbeat progress; the supervisor then quarantines and restarts it.
  double watchdog_timeout_ms = 1000;
  /// Restart budget per shard between recovery points (each recovery point
  /// resets it). Exceeding the budget aborts the run with
  /// RunResultBase::fault_status.
  size_t max_restarts = 4;
  /// Bounded-queue overload response (sharded runs only).
  OverloadPolicy overload_policy = OverloadPolicy::kBlock;
  /// Queue depth (in queued items, not events) at which a lane counts as
  /// overloaded and the non-blocking overload policies engage. Values
  /// above the bounded queue capacity mean depth alone never triggers the
  /// policy — only an injected overload signal
  /// (--fault-spec router.route:...:overload) does.
  size_t overload_high_watermark = 12;
  /// Cooperative stop flag (graceful SIGTERM/SIGINT): when non-null and
  /// set, the run stops at the next batch boundary, drains in-flight work,
  /// writes a final checkpoint when checkpoint_dir is set, and returns
  /// with RunResultBase::interrupted. A stop while the coordinator is
  /// parked on a full lane ring also exits cleanly: the run is marked
  /// interrupted and the final checkpoint is skipped (queued work could
  /// not drain, so a snapshot at the stop offset would be inconsistent).
  const std::atomic<bool>* stop_requested = nullptr;
  /// True once `stop_requested` is set (a relaxed poll).
  bool StopRequested() const {
    return stop_requested != nullptr &&
           stop_requested->load(std::memory_order_relaxed);
  }
  /// Pin each shard worker to a core (sharded runs, Linux
  /// pthread_setaffinity_np): worker s gets core s. No-op with a warning
  /// when the machine has fewer cores than the run has shards (pinning
  /// would then serialize workers that could share cores) or on platforms
  /// without affinity support. Serial runs ignore it.
  bool pin_threads = false;
  /// Optional telemetry registry (src/obs/): when non-null, executors
  /// record per-shard counters/histograms into its cells and emit trace
  /// spans through its attached TraceWriter. Null (the default) disables
  /// every record site — outputs and EngineStats are bit-exact either way;
  /// telemetry observes the run, it never steers it. The registry must be
  /// built for at least `num_shards` shards and must outlive the run.
  obs::Telemetry* telemetry = nullptr;
};

/// \brief Fields common to every run result (single- and multi-query).
struct RunResultBase {
  uint64_t events = 0;
  /// Wall-clock seconds spent inside the engine (for sharded runs: the
  /// whole route/execute/merge pipeline).
  double elapsed_seconds = 0;
  /// Ingestion batch size used for the run (1 for the per-event path).
  size_t batch_size = 1;
  /// Execution shards the run actually used (1 = serial, including
  /// serial fallback of an unshardable query).
  size_t num_shards = 1;
  /// First checkpoint I/O failure, or OK. Checkpointing stops after the
  /// first failure (the run itself continues), so a full disk does not
  /// spam one error per batch.
  Status checkpoint_status = Status::OK();
  /// Snapshots successfully written this run.
  uint64_t checkpoints_written = 0;
  /// Stream offset of the newest snapshot (meaningful when
  /// checkpoints_written > 0).
  uint64_t last_checkpoint_offset = 0;
  /// True when the run stopped early because RunOptions::stop_requested
  /// was set: `events` counts only what was consumed before the stop, and
  /// in-flight work was drained, so engine state is resumable.
  bool interrupted = false;
  /// First unrecoverable supervisor failure (a shard's restart budget
  /// exhausted, or a worker that cannot be rebuilt), or OK. A non-OK
  /// status means the run aborted early and its results are partial.
  Status fault_status = Status::OK();
  /// Coordinator phase times of a sharded run (zero for serial runs).
  CoordinatorStats coordinator;

  /// Average execution time per window slide in milliseconds — the paper's
  /// primary metric (the window slides once per event).
  double MillisPerSlide() const {
    return events == 0 ? 0 : elapsed_seconds * 1e3 / static_cast<double>(events);
  }
};

/// \brief Result of driving a stream through an engine: the run's fields
/// plus the outputs, of the engine's output type.
template <class OutputT>
struct BasicRunResult : RunResultBase {
  std::vector<OutputT> outputs;
};

/// Result of a single-query run.
using RunResult = BasicRunResult<Output>;
/// Result of a multi-query run.
using MultiRunResult = BasicRunResult<MultiOutput>;

/// \brief Reusable output scratch of the serial execution core
/// (exec::RunSerial), owned by the caller and reused clear-not-shrink
/// across batches and across runs — a harness that loops a run per
/// benchmark iteration allocates only on the first pass. One vector per
/// output type; a run uses the one of its engine's.
struct SerialBuffers {
  std::tuple<std::vector<Output>, std::vector<MultiOutput>> scratch;
};

/// Assigns strictly increasing sequence numbers (0, 1, ...) to events in
/// place. Engines require them; sources that replay pre-built vectors use
/// this before feeding.
void AssignSeqNums(std::vector<Event>* events);

}  // namespace aseq

#endif  // ASEQ_ENGINE_RUNTIME_H_
