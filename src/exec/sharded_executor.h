#ifndef ASEQ_EXEC_SHARDED_EXECUTOR_H_
#define ASEQ_EXEC_SHARDED_EXECUTOR_H_

#include <memory>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/checkpoint_cadence.h"
#include "exec/execution_policy.h"
#include "exec/shard_lanes.h"
#include "exec/shard_router.h"
#include "exec/shard_supervisor.h"
#include "metrics/shard_stats.h"

namespace aseq {
namespace exec {

/// \brief The partition-parallel policy, for one query (QueryEngine) or a
/// whole workload (MultiQueryEngine): N engine twins, each owning the
/// partitions whose GROUP BY key hashes to it, each pumped by one worker
/// over its lane of the dataplane (exec/shard_lanes.h). This class is the
/// coordinator: it routes, runs each worker's per-op engine loop, merges
/// outputs and stats exactly, and saves and restores snapshots.
///
/// Serial equivalence, piece by piece:
///  - Routing: events go to hash(GROUP BY key) % N — all partitions a
///    trigger reads share that key (PlanSharding guarantees it), so every
///    output is computed from exactly the state the serial engine would
///    read. The router admits each borrowed batch in one pass and routes
///    only events some query's pattern names.
///  - Shared batches: each routed event is copied once (the batch may be
///    borrowed source storage; lanes and replay logs outlive the loan)
///    into a recycled, reference-counted SharedBatch, and each lane gets
///    one ring item per source batch: the batch handle and a result slot
///    that holds the lane's 32-bit op words (an event index, or a
///    purge-marker flag plus a trigger index whose query list the batch
///    stores once). A batch returns to its pool once every lane it was
///    published to ran its item and no replay log pins it.
///  - Unshipped events: an event of a type no query names reaches no lane.
///    On a shard it would only have counted one event and one batch of
///    one (every engine returns on its type check), so the coordinator
///    charges exactly that to the merged stats, and a restore recovers the
///    count as the snapshot's merged events minus the shards' own.
///  - Purge markers: a serial trigger purges expired state across every
///    partition (of the triggered queries, for a workload). The router
///    detects triggers with the engines' own admission programs and the
///    coordinator enqueues a purge marker, in seq order, to every non-owner
///    shard; SyncPurgeTo applies exactly the serial cross-partition purge.
///    Unbounded queries skip markers (nothing ever expires).
///  - Outputs: each event's outputs come from exactly one shard, tagged
///    with the event's global seq. A worker writes them into the item's
///    result slot and counts the item finished; the coordinator collects
///    finished slots in publication order and merges by seq into the sink
///    (or result) up to the lowest seq every lane has finished, once per
///    batch, which restores the serial order byte-identical without
///    holding the run's outputs.
///  - Stats: bulk counters are charged on exactly one shard per event and
///    sum exactly (metrics/shard_stats.h); live/peak objects are
///    reconstructed exactly by StatsTimelineMerger from per-event
///    (seq, current_after, window_peak) records, which travel in the
///    result slots with the outputs and are merged in the same seq pass.
///    Workers therefore feed engines one event per OnBatch call (OnEvent)
///    — per-event observation boundaries are what make the peak merge
///    exact — so each shard counts one batch per event; the equivalence
///    contract excludes the batch counters.
///  - Checkpoints: at a due batch boundary the coordinator parks all
///    workers at a barrier and writes one multi-shard container
///    (ckpt::SaveShardedSnapshot) holding every shard's payload plus the
///    merged stats; restore refills the twins and re-seeds the merge.
///
/// Supervision (RunOptions::supervise) lives in exec/shard_supervisor.h;
/// the coordinator's part of a restart is the engine rebuild.
///
/// Overload control (RunOptions::overload_policy): when a lane's bounded
/// ring reaches its high-watermark (or the router.route fault point
/// injects overload), the coordinator either keeps blocking (kBlock, the
/// default), drains every queue through a barrier before routing on
/// (kDegradeSerial), or deterministically sheds the overloaded event's
/// whole partition (kShed, accounted in shed_* counters; surviving
/// partitions stay exact).
template <class Engine>
class ShardedExecutorT : public ExecutionPolicyT<Engine> {
 public:
  using OutputT = typename Engine::OutputT;
  using RunResultT = typename ExecutionPolicyT<Engine>::RunResultT;

  /// `engines` must all be freshly constructed shardable twins for the
  /// workload (the policy factory guarantees both). `router` is the
  /// matching pre-built router. `factory` rebuilds a twin after a
  /// supervised restart.
  ShardedExecutorT(const RunOptions& options,
                   std::vector<std::unique_ptr<Engine>> engines,
                   ShardRouter router, EngineFactoryT<Engine> factory);

  std::string name() const override {
    return "Sharded[" + engines_[0]->name() + "]";
  }
  size_t num_shards() const override { return engines_.size(); }

  /// The run loop. Batches may be borrowed source storage, so the loop
  /// stamps sequence numbers in place but copies routed events into
  /// recycled shared batches instead of consuming them.
  RunResultT Run(StreamSource* source) override;

  const EngineStats& stats() const override { return merged_; }
  std::span<const double> shard_busy_seconds() const override {
    return busy_view_;
  }

  Status Restore(const std::string& path, uint64_t* stream_offset) override;

  /// The executor's shared-batch pool (tests check that every batch comes
  /// home).
  const SharedBatchPool& batch_pool() const { return pool_; }

 private:
  using Record = StatsTimelineMerger::Record;

  /// One published item of a lane: the coordinator writes its op words
  /// and end seq before the push; the worker runs the ops and writes what
  /// they produced.
  struct ResultSlot {
    /// Op words, in seq order.
    std::vector<uint32_t> ops;
    /// One past the source batch's last seq: once the item is finished,
    /// the lane has finished every seq below it.
    SeqNum end_seq = 0;
    std::vector<OutputT> outputs;
    std::vector<Record> records;
  };

  /// A worker's run state. A slot belongs to the worker from the push of
  /// its item until the lane's finished count covers it (the ring and the
  /// count order the hand-overs); the coordinator touches the rest only
  /// while the worker is parked at a barrier or joined. Cache-line
  /// aligned: each worker writes its own per op, and neighbours in states_
  /// must not share a line.
  struct alignas(64) ShardState {
    std::vector<ResultSlot> slots;  // ShardLanes::kDoneSlots
    /// OnEvent's output vector when no outputs are collected.
    std::vector<OutputT> scratch;
    double busy_seconds = 0;
  };

  /// The coordinator's view of one lane: items in flight, and the outputs
  /// and records collected but not yet merged (seq-ascending).
  struct LaneLedger {
    uint64_t published = 0;
    uint64_t collected = 0;
    /// While items are in flight, every seq below this is finished.
    SeqNum done_below = 0;
    std::vector<OutputT> outputs;
    std::vector<Record> records;
    /// MergeBelow's cursors into outputs and records (zero between merges).
    size_t next_output = 0;
    size_t next_record = 0;
  };

  /// Workers keep outputs for the merge, which fills the result or feeds
  /// the output sink.
  bool CollectsOutputs() const {
    return options_.collect_outputs || options_.output_sink != nullptr;
  }
  void WorkerMain(size_t shard);
  /// Moves pending_[shard] into the lane's next result slot and pushes its
  /// item, which takes its own reference to `batch`. Collects the lane's
  /// finished items first, which bounds the items in flight by the slots.
  PushResult PushPending(size_t shard, SharedBatch* batch, SeqNum end_seq,
                         uint64_t publish_ns);
  /// Publishes pending_[shard] (the lane's op words for `batch`) as one
  /// ring push, logged for replay when supervised. `publish_ns`: the
  /// batch's shared publication timestamp for trigger-latency telemetry
  /// (0 when off). `sample_occupancy`: record this lane's ring depth into
  /// the coordinator's occupancy histogram (one rotating shard per batch).
  Status FlushPending(size_t shard, SharedBatch* batch, SeqNum end_seq,
                      uint64_t publish_ns, bool sample_occupancy);
  /// Moves the results of the lane's finished items into its ledger.
  void Collect(size_t shard);
  /// The lowest seq some lane has not finished, given that every batch
  /// below `seq` was published.
  SeqNum Watermark(SeqNum seq) const;
  /// Feeds the merger and the sink (or result) everything collected below
  /// `upto`, in one seq-ordered pass over the lanes.
  void MergeBelow(SeqNum upto, RunResultT* result);
  /// Parks every worker at a barrier, restarting failed lanes
  /// (supervised). OK with lanes_.stop_stalled() set when a stop request
  /// abandoned it; an exhausted restart budget is the error.
  Status Barrier();
  /// The checkpoint/recovery barrier: parks the workers (recorded in
  /// telemetry as a barrier), then — with them quiescent — merges
  /// everything below `seq`, captures recovery points when `recover`,
  /// writes the snapshot when `save`, and resumes them.
  Status Quiesce(uint64_t seq, bool recover, bool save,
                 CheckpointCadence* ckpt, RunResultT* result);
  /// Restarts a failed lane: the supervisor's quarantine and budget, the
  /// engine rebuild from the lane's recovery point, respawn, replay.
  Status RestartShard(size_t shard);
  Status CaptureRecoveryPoints(SeqNum seq);
  /// The shards' stats merged by kStatsFields's rules, plus unshipped
  /// events, the merger's object view and the coordinator's own rows.
  EngineStats ComputeMergedStats() const;
  /// Writes the multi-shard snapshot container at `seq` (workers parked).
  Status SaveSnapshotAt(uint64_t seq);

  RunOptions options_;
  std::vector<std::unique_ptr<Engine>> engines_;
  EngineFactoryT<Engine> factory_;
  ShardRouter router_;

  std::vector<ShardState> states_;
  std::vector<LaneLedger> ledgers_;
  /// Each shard's op words routed since its last publication.
  std::vector<std::vector<uint32_t>> pending_;
  /// Outputs and records below this seq went to the sink and merger.
  SeqNum merged_upto_ = 0;
  /// Events of types no query names, charged to the merged stats.
  uint64_t unshipped_ = 0;
  // The dataplane consults the supervisor as its watchdog, and the
  // supervisor restarts through the dataplane; each stores a pointer to
  // the other (null supervisor = unsupervised). The lanes own the worker
  // threads, so they come after everything a worker touches.
  SharedBatchPool pool_;
  ShardSupervisor supervisor_;
  ShardLanes lanes_;

  /// The coordinator-owned kStatsFields rows of this run.
  EngineStats coord_counts_;
  std::unordered_set<uint32_t> shed_keys_;
  StatsTimelineMerger merger_;
  EngineStats merged_;
  std::vector<double> busy_view_;
};

/// The single-query partition-parallel policy (docs/internals.md §13).
using ShardedExecutor = ShardedExecutorT<QueryEngine>;

/// The multi-query partition-parallel policy: the same executor over a
/// shared GROUP BY attribute, one engine-twin set for the whole workload
/// (docs/internals.md §15).
using MultiShardedExecutor = ShardedExecutorT<MultiQueryEngine>;

extern template class ShardedExecutorT<QueryEngine>;
extern template class ShardedExecutorT<MultiQueryEngine>;

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARDED_EXECUTOR_H_
