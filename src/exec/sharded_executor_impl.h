#ifndef ASEQ_EXEC_SHARDED_EXECUTOR_IMPL_H_
#define ASEQ_EXEC_SHARDED_EXECUTOR_IMPL_H_

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "ckpt/snapshot.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "exec/shard_router.h"
#include "exec/spsc_ring.h"
#include "fault/fault.h"
#include "metrics/shard_stats.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

namespace shard_detail {

/// Bounded-queue depth per lane (ring capacity): enough to keep workers fed
/// ahead of the router, small enough that a fast router cannot buffer the
/// stream.
inline constexpr size_t kMaxQueuedItems = 16;

/// Every park is timed at this one period: the ring protocol's wake
/// handshake is best-effort (a parked-flag miss between the release store
/// and the acquire load is possible by design — making it airtight would
/// need seq_cst fences on the hot path), so a park bounds the cost of a
/// lost wakeup to this, and the coordinator polls stop_requested (and,
/// supervised, the watchdog) at the same cadence.
inline constexpr std::chrono::milliseconds kParkPoll{1};

/// Spin budget before parking, per push/pop attempt. The common stall is a
/// counterpart mid-item, gone within microseconds; parking for those would
/// trade two atomic ops for a futex round-trip.
inline constexpr size_t kRingSpinIters = 128;

inline constexpr uint64_t kNeverDue = std::numeric_limits<uint64_t>::max();

}  // namespace shard_detail

/// One unit of shard work: an event for the owner shard, or a purge marker
/// replaying a trigger's cross-partition purge on a non-owner shard.
/// Shared between the single- and multi-query executor instantiations;
/// `trigger_queries` is meaningful for multi-query markers only (which
/// workload queries the trigger completed) and stays empty otherwise.
struct ShardOp {
  enum class Kind : uint8_t { kEvent, kPurgeMarker };
  Kind kind = Kind::kEvent;
  Timestamp ts = 0;
  SeqNum seq = 0;
  Event event;  // meaningful for kEvent only
  std::vector<size_t> trigger_queries;  // meaningful for multi markers only
};

/// \brief The partition-parallel policy, generic over single- vs
/// multi-query execution: N engine twins, each owning the partitions whose
/// GROUP BY key hashes to it, pumped by one worker thread over a bounded
/// per-shard SPSC ring.
///
/// `Traits` binds the two instantiations (see exec/sharded_executor.h):
///   - Engine        QueryEngine / MultiQueryEngine (the executor
///                   implements ExecutionPolicyT<Engine>)
///   - Shardable     ShardableEngine / MultiShardableEngine
///   - OutputSeq     the output's global event seq (merge key)
///   - StampMarker   copies the route's trigger payload into a marker op
///   - SyncPurge     applies a marker through the shardable interface
///
/// The dataplane (docs/internals.md §16): each lane's queue is a
/// fixed-capacity single-producer/single-consumer ring (exec/spsc_ring.h)
/// — the coordinator is the only pusher, the lane's worker the only
/// popper, so an uncontended publication or drain is two acquire/release
/// atomic ops, no lock. The lane's mutex + condition variable survive only
/// as the *park* layer of a spin-then-park protocol: both sides spin a
/// bounded budget first, then park with a timed wait (the wake handshake
/// via the parked flags is best-effort; the timed wait bounds a lost
/// wakeup and lets the coordinator poll stop_requested and the watchdog
/// while blocked on a full ring — see Push and Barrier). Routing
/// itself is batched: the router admits the whole borrowed batch through
/// the vectorized admission prefilter in one pass, and the coordinator
/// publishes each shard's op run as one ring push per shard per batch.
///
/// Serial equivalence, piece by piece:
///  - Routing: events go to hash(GROUP BY key) % N — all partitions a
///    trigger reads share that key (PlanSharding guarantees it), so every
///    output is computed from exactly the state the serial engine would
///    read.
///  - Purge markers: a serial trigger purges expired state across every
///    partition (of the triggered queries, for a workload). The router
///    detects triggers with the engines' own admission programs and
///    enqueues a purge marker, in seq order, to every non-owner shard;
///    SyncPurgeTo applies exactly the serial cross-partition purge.
///    Unbounded queries skip markers (nothing ever expires).
///  - Outputs: each event's outputs come from exactly one shard, tagged
///    with the event's global seq; a k-way merge by seq restores the
///    serial order byte-identical.
///  - Stats: bulk counters are charged on exactly one shard per event and
///    sum exactly (metrics/shard_stats.h); live/peak objects are
///    reconstructed exactly by StatsTimelineMerger from per-event
///    (seq, current_after, window_peak) records. Workers therefore feed
///    engines one event per OnBatch call (OnEvent) — per-event
///    observation boundaries are what make the peak merge exact — so each
///    shard counts one batch per event; the equivalence contract excludes
///    the batch counters.
///  - Checkpoints: at a due batch boundary the coordinator parks all
///    workers at a barrier and writes one multi-shard container
///    (ckpt::SaveShardedSnapshot) holding every shard's payload plus the
///    merged stats; restore refills the twins and re-seeds the merge.
///
/// Supervision (RunOptions::supervise; docs/internals.md §14): the
/// coordinator doubles as a watchdog. Every worker heartbeats once per op;
/// a worker that dies (injected crash) or goes silent with queued work for
/// longer than the watchdog timeout is quarantined and restarted alone:
/// its engine twin is rebuilt from the lane's last recovery point (an
/// in-memory engine snapshot captured at every barrier) and its routed op
/// slice since that point is replayed from the lane's replay log — outputs
/// and stats end bit-exact with an unfailed run. Restarts back off
/// exponentially and are budgeted per recovery interval; exhausting the
/// budget aborts the run with RunResultBase::fault_status.
///
/// Overload control (RunOptions::overload_policy): when a lane's bounded
/// ring reaches its high-watermark (or the router.route fault point
/// injects overload), the coordinator either keeps blocking (kBlock, the
/// default), drains every queue before routing on (kDegradeSerial), or
/// deterministically sheds the overloaded event's whole partition (kShed,
/// accounted in shed_* counters; surviving partitions stay exact).
template <class Traits>
class ShardedExecutorT : public ExecutionPolicyT<typename Traits::Engine> {
 public:
  using Engine = typename Traits::Engine;
  using Shardable = typename Traits::Shardable;
  using OutputT = typename Engine::OutputT;
  using RunResultT = typename ExecutionPolicyT<Engine>::RunResultT;
  using FactoryT = EngineFactoryT<Engine>;

  /// `engines` must all be freshly constructed twins for the workload,
  /// each implementing `Shardable` (the policy factory guarantees both).
  /// `router` is the matching pre-built router; `send_markers` gates
  /// purge markers (false when nothing ever expires). `factory` rebuilds
  /// a twin after a supervised restart; supervision requires it.
  ShardedExecutorT(const RunOptions& options,
                   std::vector<std::unique_ptr<Engine>> engines,
                   ShardRouter router, bool send_markers, FactoryT factory);
  ~ShardedExecutorT() override = default;

  std::string name() const override {
    return "Sharded[" + engines_[0]->name() + "]";
  }
  size_t num_shards() const override { return engines_.size(); }

  /// The run loop. Batches may be borrowed source storage, so the loop
  /// stamps sequence numbers in place but copies events into shard ops
  /// instead of consuming them.
  RunResultT Run(StreamSource* source) override;

  const EngineStats& stats() const override { return merged_; }
  std::span<const EngineStats> shard_stats() const override {
    return shard_stats_view_;
  }
  std::span<const double> shard_busy_seconds() const override {
    return busy_view_;
  }

  Status Restore(const std::string& path, uint64_t* stream_offset) override;

 private:
  /// Lanes keep outputs for the end-of-run merge, which fills the result
  /// or feeds the output sink.
  bool CollectsOutputs() const {
    return options_.collect_outputs || options_.output_sink != nullptr;
  }

  struct LaneItem {
    enum class Tag : uint8_t { kOps, kBarrier, kStop };
    Tag tag = Tag::kOps;
    std::vector<ShardOp> ops;
    /// Publication timestamp (obs::MonotonicNanos at ring push), stamped
    /// only when telemetry is on — the base of the trigger-to-output
    /// latency histogram. Zero when telemetry is off.
    uint64_t publish_ns = 0;
  };

  /// One shard's dataplane plus its worker-owned run state. The
  /// coordinator touches outputs/records/busy_seconds only while the
  /// worker is parked at a barrier or joined (including the joined window
  /// of a supervised restart).
  struct Lane {
    /// Work ring: the coordinator publishes, the worker drains (SPSC by
    /// construction — nothing else ever touches it while both live).
    SpscRing<LaneItem> ring{shard_detail::kMaxQueuedItems};
    /// Reverse ring, worker → coordinator: drained op vectors recycled
    /// back to the router, clear-not-shrink. Best-effort — a full ring
    /// just lets the vector deallocate.
    SpscRing<std::vector<ShardOp>> free_ring{shard_detail::kMaxQueuedItems};

    /// Park layer (never on the fast path): both ring sides spin first,
    /// then park on cv with a timed wait. The parked flags let the
    /// counterpart skip the lock+notify when nobody is parked.
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> consumer_parked{false};
    std::atomic<bool> producer_parked{false};
    /// Spin iterations this worker burned before parking (worker-owned
    /// plain counter; the coordinator reads it only after the join in
    /// StopWorkers, which synchronizes).
    uint64_t spin_count = 0;

    std::vector<OutputT> outputs;
    std::vector<StatsTimelineMerger::Record> records;
    size_t records_consumed = 0;
    std::vector<OutputT> scratch;
    double busy_seconds = 0;

    // ---- Worker-side supervision state (atomics; coordinator reads). ----
    /// Heartbeat: bumped once per executed op. Frozen progress with queued
    /// work for longer than the watchdog timeout means a stalled worker.
    std::atomic<uint64_t> progress{0};
    /// True while the worker is parked waiting for work (an idle worker is
    /// never "stalled").
    std::atomic<bool> idle{false};
    /// Worker died (injected crash): its thread returned without cleanup.
    std::atomic<bool> dead{false};
    /// Coordinator order to exit: wakes a parked (idle or stalled) worker
    /// so the restart path can join its thread. Checked once per popped
    /// item, so a quarantined worker exits promptly even with a non-empty
    /// ring.
    std::atomic<bool> quarantine{false};
    /// Worker is parked at a coordinator barrier (never a failure).
    std::atomic<bool> at_barrier{false};

    // ---- Coordinator-only recovery state (supervised runs). ----
    /// Engine Checkpoint payload at the last recovery point (barrier).
    std::string snapshot;
    /// outputs/records high-water marks at that recovery point: a restart
    /// truncates back to them before replaying.
    size_t ckpt_outputs = 0;
    size_t ckpt_records = 0;
    /// Every op routed to this lane since the recovery point, in order —
    /// the restart replay slice. Cleared at each barrier.
    std::vector<ShardOp> replay_log;
    /// Restarts burned since the last recovery point (budgeted).
    size_t restart_attempts = 0;
    /// A barrier token is owed: it was enqueued (or lost with a cleared
    /// queue) and the worker has not arrived yet — a restart re-issues it
    /// after the replay slice.
    bool barrier_pending = false;
    /// Watchdog bookkeeping: last observed heartbeat and when it changed.
    uint64_t last_progress = 0;
    std::chrono::steady_clock::time_point last_change;
  };

  /// Coordinator-owned fault/overload accounting, folded into the merged
  /// stats at the end of the run.
  struct FaultCounters {
    uint64_t restarts = 0;
    uint64_t replayed_events = 0;
    uint64_t shed_partitions = 0;
    uint64_t shed_events = 0;
    uint64_t overload_stalls = 0;
  };

  /// Coordinator-owned dataplane accounting (workers keep their spin
  /// counts lane-local; see Lane::spin_count), folded into the merged
  /// stats at the end of the run.
  struct RingCounters {
    uint64_t pub_batches = 0;
    uint64_t full_waits = 0;
    uint64_t spins = 0;
  };

  void WorkerMain(size_t shard);
  /// Lock-free wake hint: lock + notify only when the counterpart's
  /// parked flag is up (a missed flag costs at most one kParkPoll).
  void WakeConsumer(Lane& lane) {
    if (lane.consumer_parked.load(std::memory_order_acquire)) {
      { std::lock_guard<std::mutex> lk(lane.mu); }
      lane.cv.notify_all();
    }
  }
  void WakeProducer(Lane& lane) {
    if (lane.producer_parked.load(std::memory_order_acquire)) {
      { std::lock_guard<std::mutex> lk(lane.mu); }
      lane.cv.notify_all();
    }
  }
  bool StopRequestedNow() const {
    return options_.stop_requested != nullptr &&
           options_.stop_requested->load(std::memory_order_relaxed);
  }
  enum class PushResult : uint8_t { kPushed, kStopped, kFailed };
  /// The coordinator's one ring push, for both modes: TryPush, then a
  /// bounded spin, then timed parks at kParkPoll. After each park it gives
  /// up, leaving `item` unqueued, with kStopped on a stop request (marking
  /// the run stop-stalled, so SIGINT during a full-ring stall exits instead
  /// of waiting for a drain that may never come), or with kFailed when the
  /// run is supervised and LaneFailed(shard). It never restarts a lane:
  /// each caller decides what a failure means.
  PushResult Push(size_t shard, LaneItem& item);
  /// Publishes pending_[shard] to the lane's ring as one chunked
  /// publication and re-arms pending_ with a recycled vector.
  /// `publish_ns`: the batch's shared publication timestamp for trigger-
  /// latency telemetry (one clock read covers every shard's publication of
  /// a batch); 0 when telemetry is off. `sample_occupancy`: record this
  /// lane's ring depth into the coordinator's occupancy histogram (the
  /// caller rotates the sample across shards, one per batch).
  Status FlushPending(size_t shard, uint64_t publish_ns,
                      bool sample_occupancy);
  /// Parks every worker at a barrier. Returns OK once all have arrived, or
  /// OK with stop_stalled_ set when a stop request abandoned it (the run
  /// then tears down via quarantine and skips the final checkpoint).
  /// Supervised, failed lanes are restarted until every lane arrives; an
  /// exhausted restart budget is the error.
  Status Barrier();
  /// Telemetry for a completed barrier: duration histogram + trace span
  /// (no-op when telemetry is off; `barrier_begin` is then ignored).
  void RecordBarrier(uint64_t barrier_begin);
  /// Releases workers parked by Barrier.
  void ResumeAll();
  /// Feeds each lane's new records to the merger (lanes quiescent).
  void DrainMerger();
  /// Bulk-sums engine stats + the merger's object view.
  EngineStats ComputeMergedStats() const;
  /// Writes the multi-shard snapshot container at `seq` (workers parked).
  Status SaveSnapshotAt(uint64_t seq);
  /// Applies --pin-threads to a freshly spawned worker (Linux affinity;
  /// no-op with a one-shot warning when cores < shards or unsupported).
  void PinWorker(size_t shard);

  // ---- Supervision (coordinator side). ----
  /// True when the lane's worker is dead, or silent with queued work past
  /// the watchdog timeout. Updates the lane's watchdog bookkeeping.
  bool LaneFailed(size_t shard);
  /// Sweeps all lanes, restarting any that failed.
  Status CheckLanes();
  /// Quarantines + joins the failed worker, rebuilds the engine twin from
  /// the lane's recovery snapshot, truncates outputs/records to the
  /// recovery watermarks, respawns the worker, and replays the lane's
  /// routed slice (plus any owed barrier token). Bounded exponential
  /// backoff; exceeding the restart budget returns an error.
  Status RestartShard(size_t shard);
  /// Captures a recovery point per lane: engine snapshot, output/record
  /// watermarks, replay log truncation, budget reset. Workers must be
  /// parked at a barrier.
  Status CaptureRecoveryPoints();
  /// Waits until every lane is empty and idle (degrade-serial overload
  /// response), restarting failed lanes when supervised; a stop request
  /// aborts the wait (stop_stalled_).
  Status DrainAllQueues();
  /// Pushes stop tokens to live lanes and joins every worker thread.
  /// Falls back to quarantine teardown when the run is supervised or a
  /// stop request stranded work on a full ring.
  void StopWorkers();

  RunOptions options_;
  std::vector<std::unique_ptr<Engine>> engines_;
  std::vector<Shardable*> shardables_;
  FactoryT factory_;
  ShardRouter router_;
  bool send_markers_;  // false when nothing ever expires

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<std::thread> workers_;
  std::vector<std::vector<ShardOp>> pending_;

  // Barrier coordination (checkpoints + recovery points).
  std::mutex coord_mu_;
  std::condition_variable coord_cv_;
  size_t barrier_arrived_ = 0;
  uint64_t barrier_epoch_ = 0;

  // Per-run supervision/overload state (coordinator only).
  FaultCounters fcounters_;
  RingCounters rcounters_;
  std::unordered_set<uint32_t> shed_keys_;
  uint64_t fired_at_start_ = 0;
  /// A stop request caught the coordinator parked on a full ring (or a
  /// drain): queued work could not flush, so the final barrier/checkpoint
  /// are skipped and teardown quarantines instead of draining.
  bool stop_stalled_ = false;
  bool pin_warned_ = false;

  StatsTimelineMerger merger_;
  EngineStats merged_;
  std::vector<EngineStats> shard_stats_view_;
  std::vector<double> busy_view_;
};

template <class Traits>
ShardedExecutorT<Traits>::ShardedExecutorT(
    const RunOptions& options, std::vector<std::unique_ptr<Engine>> engines,
    ShardRouter router, bool send_markers, FactoryT factory)
    : options_(options),
      engines_(std::move(engines)),
      factory_(std::move(factory)),
      router_(std::move(router)),
      send_markers_(send_markers) {
  assert(engines_.size() > 1);
  options_.num_shards = engines_.size();
  for (auto& e : engines_) {
    auto* shardable = dynamic_cast<Shardable*>(e.get());
    assert(shardable != nullptr &&
           "ShardedExecutorT requires shardable engine twins (the policy "
           "factory enforces this)");
    shardables_.push_back(shardable);
  }
  lanes_.reserve(engines_.size());
  for (size_t i = 0; i < engines_.size(); ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  pending_.resize(engines_.size());
  shard_stats_view_.resize(engines_.size());
  busy_view_.resize(engines_.size(), 0);
}

template <class Traits>
void ShardedExecutorT<Traits>::WorkerMain(size_t shard) {
  Lane& lane = *lanes_[shard];
  Engine* engine = engines_[shard].get();
  Shardable* shardable = shardables_[shard];
  EngineStats* stats = shardable->shard_mutable_stats();
  const bool boundary_objects = Traits::BoundaryObjects(shardable);
  const bool supervised = options_.supervise;
  const bool check_faults = fault::Injector::Global().armed();
  // Telemetry cell for this shard (null = off). The worker is the cell's
  // only writer; all record sites below are relaxed stores, and the per-op
  // sites reuse timing the busy-seconds accounting already pays for.
  obs::ShardCell* const cell = options_.telemetry != nullptr
                                   ? &options_.telemetry->shard(shard)
                                   : nullptr;
  // Per-drain accumulators for the cell's counter fields: the hot loop
  // adds into plain locals and flushes to the shared cell only at drain
  // boundaries (ring empty before a park, barrier, ordered exit) or every
  // kCellFlushItems items under saturation — one batch of relaxed stores
  // per drain instead of six per item keeps the record cost inside the
  // <= 3% bench_dataplane overhead gate. The emitter sees counters at
  // most one drain (bounded by kCellFlushItems items) stale.
  constexpr uint64_t kCellFlushItems = 64;
  uint64_t acc_items = 0, acc_ops = 0, acc_events = 0, acc_outputs = 0,
           acc_busy_ns = 0;
  const auto flush_cell = [&] {
    if (cell == nullptr || acc_items == 0) return;
    cell->items.Add(acc_items);
    cell->ops.Add(acc_ops);
    cell->events.Add(acc_events);
    if (acc_outputs > 0) cell->outputs.Add(acc_outputs);
    cell->busy_ns.Add(acc_busy_ns);
    // Occupancy observed at the end of a drain (or a saturation flush):
    // zero when the worker caught up, queue depth when it didn't.
    cell->ring_occupancy.Set(lane.ring.size());
    acc_items = acc_ops = acc_events = acc_outputs = acc_busy_ns = 0;
  };
  for (;;) {
    LaneItem item;
    // Pop protocol: quarantine first (an ordered exit must not drain the
    // ring — the restart path replays it), then a bounded spin on the
    // ring, then a timed park flying the idle + parked flags.
    for (size_t spin = 0;;) {
      if (lane.quarantine.load(std::memory_order_relaxed)) {
        flush_cell();
        return;
      }
      if (lane.ring.TryPop(&item)) break;
      if (++spin <= shard_detail::kRingSpinIters) {
        CpuRelax();
        ++lane.spin_count;
        continue;
      }
      // Drain over (spin budget exhausted on an empty ring): publish the
      // accumulated counters before parking.
      flush_cell();
      lane.idle.store(true, std::memory_order_relaxed);
      const uint64_t park_begin =
          cell != nullptr ? obs::MonotonicNanos() : 0;
      {
        std::unique_lock<std::mutex> lk(lane.mu);
        lane.consumer_parked.store(true, std::memory_order_release);
        lane.cv.wait_for(lk, shard_detail::kParkPoll, [&] {
          return !lane.ring.Empty() ||
                 lane.quarantine.load(std::memory_order_relaxed);
        });
        lane.consumer_parked.store(false, std::memory_order_relaxed);
      }
      if (cell != nullptr) {
        const uint64_t parked = obs::MonotonicNanos() - park_begin;
        cell->parks.Add(1);
        cell->park_ns.Add(parked);
        cell->park_wait_ns.Record(parked);
      }
      lane.idle.store(false, std::memory_order_relaxed);
      spin = 0;
    }
    // The coordinator may be parked on a full ring.
    WakeProducer(lane);
    if (item.tag == LaneItem::Tag::kStop) {
      flush_cell();
      return;
    }
    if (item.tag == LaneItem::Tag::kBarrier) {
      flush_cell();
      std::unique_lock<std::mutex> lk(coord_mu_);
      const uint64_t epoch = barrier_epoch_;
      ++barrier_arrived_;
      lane.at_barrier.store(true, std::memory_order_release);
      coord_cv_.notify_all();
      // Quarantine must break a barrier park too: an aborted supervised
      // barrier (restart budget exhausted elsewhere) never resumes the
      // epoch, and teardown would otherwise join a thread parked here.
      coord_cv_.wait(lk, [&] {
        return barrier_epoch_ != epoch ||
               lane.quarantine.load(std::memory_order_relaxed);
      });
      lane.at_barrier.store(false, std::memory_order_release);
      continue;
    }
    StopWatch watch;
    // Per-item accumulators for the per-op telemetry counts: one cell
    // store per drained item instead of one per op keeps the record cost
    // inside the <= 3% bench_dataplane overhead gate.
    uint64_t item_events = 0;
    uint64_t item_outputs = 0;
    for (ShardOp& op : item.ops) {
      if (check_faults) {
        if (auto fired =
                fault::Injector::Global().Hit(fault::Point::kWorkerOp, shard)) {
          if (fired->kind == fault::Kind::kSlow) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(fired->delay_us));
          } else if (supervised && fired->kind == fault::Kind::kCrash) {
            // Abrupt worker death: no cleanup, the op is lost mid-item.
            // The supervisor detects the dead flag, rebuilds this shard
            // from its recovery point, and replays the routed slice.
            lane.dead.store(true, std::memory_order_release);
            coord_cv_.notify_all();
            lane.cv.notify_all();
            return;
          } else if (supervised && fired->kind == fault::Kind::kStall) {
            // Hang without heartbeating until the watchdog quarantines us.
            std::unique_lock<std::mutex> lk(lane.mu);
            lane.cv.wait(lk, [&] {
              return lane.quarantine.load(std::memory_order_relaxed);
            });
            return;
          }
          // Other kinds are not meaningful at this point; ignore.
        }
      }
      ObjectCounter& objects = stats->objects;
      objects.BeginPeakWindow();
      const int64_t before = objects.current();
      if (op.kind == ShardOp::Kind::kEvent) {
        lane.scratch.clear();
        engine->OnEvent(op.event, &lane.scratch);
        if (cell != nullptr) {
          ++item_events;
          item_outputs += lane.scratch.size();
        }
        if (CollectsOutputs() && !lane.scratch.empty()) {
          lane.outputs.insert(lane.outputs.end(), lane.scratch.begin(),
                              lane.scratch.end());
        }
      } else {
        Traits::SyncPurge(shardable, op);
      }
      const int64_t after = objects.current();
      int64_t window_peak = objects.window_peak();
      // Boundary-sampled engines take one Add per event, so window_peak
      // (= max(before, after)) is not a point the serial engine observed;
      // clamping it to min(before, after) silences the merger's mid-event
      // candidate and leaves the exact boundary totals.
      if (boundary_objects) window_peak = std::min(before, after);
      // Record only state changes: the merge needs every current
      // transition and every mid-event maximum above the entry count.
      if (after != before || window_peak > before) {
        lane.records.push_back({op.seq, after, window_peak});
      }
      lane.progress.fetch_add(1, std::memory_order_relaxed);
    }
    if (cell == nullptr) {
      lane.busy_seconds += watch.ElapsedSeconds();
    } else {
      // One elapsed read serves both the busy-seconds accounting and the
      // telemetry cell; the service-time histogram amortizes its record
      // over the whole drained item, and the counter fields land in the
      // per-drain accumulators (flushed by flush_cell at drain
      // boundaries).
      const uint64_t busy = watch.ElapsedNanos();
      lane.busy_seconds += static_cast<double>(busy) * 1e-9;
      ++acc_items;
      acc_ops += item.ops.size();
      acc_events += item_events;
      acc_outputs += item_outputs;
      acc_busy_ns += busy;
      cell->op_service_ns.Record(busy / item.ops.size());
      if (item_outputs > 0) {
        // Trigger-to-output latency: the batch's publication to the
        // completion of the item that produced the outputs. The absolute
        // end instant is reconstructed from the busy StopWatch (same
        // steady-clock epoch), so the record costs no extra clock read.
        cell->trigger_latency_ns.Record(watch.StartNanos() + busy -
                                        item.publish_ns);
      }
      if (acc_items >= kCellFlushItems) flush_cell();
    }
    // Recycle the drained op vector to the router (best-effort: a full
    // free ring just lets the capacity go).
    item.ops.clear();
    lane.free_ring.TryPush(item.ops);
  }
}

template <class Traits>
typename ShardedExecutorT<Traits>::PushResult ShardedExecutorT<Traits>::Push(
    size_t shard, LaneItem& item) {
  Lane& lane = *lanes_[shard];
  if (lane.ring.TryPush(item)) {
    WakeConsumer(lane);
    return PushResult::kPushed;
  }
  ++rcounters_.full_waits;
  for (size_t spin = 0;;) {
    if (lane.ring.TryPush(item)) {
      WakeConsumer(lane);
      return PushResult::kPushed;
    }
    if (++spin <= shard_detail::kRingSpinIters) {
      CpuRelax();
      ++rcounters_.spins;
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(lane.mu);
      lane.producer_parked.store(true, std::memory_order_release);
      lane.cv.wait_for(lk, shard_detail::kParkPoll, [&] {
        return !lane.ring.Full() || lane.dead.load(std::memory_order_relaxed);
      });
      lane.producer_parked.store(false, std::memory_order_relaxed);
    }
    if (StopRequestedNow()) {
      stop_stalled_ = true;
      return PushResult::kStopped;
    }
    if (options_.supervise && LaneFailed(shard)) return PushResult::kFailed;
    spin = 0;
  }
}

template <class Traits>
Status ShardedExecutorT<Traits>::FlushPending(size_t shard,
                                              uint64_t publish_ns,
                                              bool sample_occupancy) {
  if (pending_[shard].empty()) return Status::OK();
  Lane& lane = *lanes_[shard];
  ++rcounters_.pub_batches;
  LaneItem item{LaneItem::Tag::kOps, std::move(pending_[shard])};
  if (options_.telemetry != nullptr) {
    obs::CoordCell& cc = options_.telemetry->coord();
    cc.publications.Add(1);
    // Occupancy sampled before the push: what the publication found in
    // front of it — the dataplane's backpressure profile. One rotating
    // shard per batch (see the occ_rotor in Run) keeps the histogram
    // off the per-publication hot path.
    if (sample_occupancy) cc.ring_occupancy.Record(lane.ring.size());
    item.publish_ns = publish_ns;
  }
  const PushResult pushed = Push(shard, item);
  if (pushed == PushResult::kFailed) ASEQ_RETURN_NOT_OK(RestartShard(shard));
  if (pushed != PushResult::kPushed) {
    // Drop the ops and recycle the vector. Stopped: the run ends
    // stop-stalled (interrupted, no final checkpoint). Failed: the restart
    // replays everything routed since the recovery point, these ops
    // included, so pushing them now would double-feed.
    item.ops.clear();
    pending_[shard] = std::move(item.ops);
    return Status::OK();
  }
  // Re-arm pending_ with a worker-recycled vector when one is available.
  std::vector<ShardOp> replacement;
  lane.free_ring.TryPop(&replacement);
  pending_[shard] = std::move(replacement);
  return Status::OK();
}

template <class Traits>
Status ShardedExecutorT<Traits>::Barrier() {
  const uint64_t barrier_begin =
      options_.telemetry != nullptr ? obs::MonotonicNanos() : 0;
  const size_t n = lanes_.size();
  {
    std::lock_guard<std::mutex> lk(coord_mu_);
    barrier_arrived_ = 0;
  }
  for (size_t s = 0; s < n; ++s) {
    LaneItem token{LaneItem::Tag::kBarrier, {}};
    for (;;) {
      const PushResult pushed = Push(s, token);
      if (pushed == PushResult::kPushed) break;
      // Stopped: abandon the barrier. Lanes that did get a token park on
      // the epoch; the quarantine teardown wakes them.
      if (pushed == PushResult::kStopped) return Status::OK();
      // Failed: the restart clears the ring, so the retry pushes the token
      // right after the replay slice. barrier_pending flips true only once
      // the token is queued, so the restart does not re-issue it too.
      ASEQ_RETURN_NOT_OK(RestartShard(s));
    }
    lanes_[s]->barrier_pending = true;
  }
  std::unique_lock<std::mutex> lk(coord_mu_);
  while (!coord_cv_.wait_for(lk, shard_detail::kParkPoll,
                             [&] { return barrier_arrived_ == n; })) {
    if (StopRequestedNow()) {
      // Tokens are queued but a worker is not arriving (stalled): a stop
      // request must still exit cleanly.
      stop_stalled_ = true;
      return Status::OK();
    }
    if (!options_.supervise) continue;
    lk.unlock();
    for (size_t s = 0; s < n; ++s) {
      if (!lanes_[s]->at_barrier.load(std::memory_order_acquire) &&
          LaneFailed(s)) {
        // The lane's barrier token died with its queue; RestartShard
        // re-issues it after the replay slice (barrier_pending is set).
        ASEQ_RETURN_NOT_OK(RestartShard(s));
      }
    }
    lk.lock();
  }
  lk.unlock();
  for (auto& lane : lanes_) lane->barrier_pending = false;
  RecordBarrier(barrier_begin);
  return Status::OK();
}

template <class Traits>
void ShardedExecutorT<Traits>::RecordBarrier(uint64_t barrier_begin) {
  if (options_.telemetry == nullptr) return;
  const uint64_t end = obs::MonotonicNanos();
  obs::CoordCell& cc = options_.telemetry->coord();
  cc.barriers.Add(1);
  cc.barrier_ns.Record(end - barrier_begin);
  if (options_.telemetry->trace() != nullptr) {
    options_.telemetry->trace()->Span(
        "barrier", obs::TraceWriter::kCoordTid, barrier_begin, end,
        {obs::TraceWriter::NumArg("shards", lanes_.size())});
  }
}

template <class Traits>
void ShardedExecutorT<Traits>::ResumeAll() {
  {
    std::lock_guard<std::mutex> lk(coord_mu_);
    ++barrier_epoch_;
  }
  coord_cv_.notify_all();
}

template <class Traits>
void ShardedExecutorT<Traits>::DrainMerger() {
  std::vector<std::span<const StatsTimelineMerger::Record>> spans;
  spans.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    spans.push_back(std::span<const StatsTimelineMerger::Record>(
        lane->records.data() + lane->records_consumed,
        lane->records.size() - lane->records_consumed));
  }
  merger_.Consume(spans);
  for (auto& lane : lanes_) lane->records_consumed = lane->records.size();
}

template <class Traits>
EngineStats ShardedExecutorT<Traits>::ComputeMergedStats() const {
  EngineStats merged;
  for (const auto& e : engines_) MergeBulkStats(e->stats(), &merged);
  merged.objects.RestoreCounts(merger_.merged_current(),
                               merger_.merged_peak());
  return merged;
}

template <class Traits>
Status ShardedExecutorT<Traits>::SaveSnapshotAt(uint64_t seq) {
  const EngineStats merged_now = ComputeMergedStats();
  std::vector<const Engine*> shards;
  shards.reserve(engines_.size());
  for (const auto& e : engines_) shards.push_back(e.get());
  // The router is quiescent here (this coordinator thread is the only one
  // that touches it, and the workers are parked at the barrier), so its
  // interner table is captured consistently with shard state.
  ckpt::Writer router_state;
  router_.Checkpoint(&router_state);
  return ckpt::SaveShardedSnapshot(
      ckpt::SnapshotPathForOffset(options_.checkpoint_dir, seq), shards, seq,
      merged_now, router_state.buffer());
}

template <class Traits>
void ShardedExecutorT<Traits>::PinWorker(size_t shard) {
  if (!options_.pin_threads) return;
#if defined(__linux__)
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < engines_.size()) {
    if (!pin_warned_) {
      pin_warned_ = true;
      std::fprintf(stderr,
                   "warning: --pin-threads: %u core(s) for %zu shards; "
                   "pinning disabled\n",
                   cores, engines_.size());
    }
    return;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(shard % cores, &set);
  if (pthread_setaffinity_np(workers_[shard].native_handle(), sizeof(set),
                             &set) != 0 &&
      !pin_warned_) {
    pin_warned_ = true;
    std::fprintf(stderr,
                 "warning: --pin-threads: pthread_setaffinity_np failed; "
                 "running unpinned\n");
  }
#else
  if (!pin_warned_) {
    pin_warned_ = true;
    std::fprintf(stderr,
                 "warning: --pin-threads is not supported on this platform; "
                 "running unpinned\n");
  }
#endif
}

template <class Traits>
bool ShardedExecutorT<Traits>::LaneFailed(size_t shard) {
  Lane& lane = *lanes_[shard];
  if (lane.dead.load(std::memory_order_acquire)) return true;
  const uint64_t p = lane.progress.load(std::memory_order_relaxed);
  const auto now = std::chrono::steady_clock::now();
  if (p != lane.last_progress || lane.idle.load(std::memory_order_relaxed) ||
      lane.at_barrier.load(std::memory_order_relaxed)) {
    lane.last_progress = p;
    lane.last_change = now;
    return false;
  }
  // Not idle, not at a barrier, heartbeat frozen: stalled once the silence
  // outlasts the watchdog timeout.
  return std::chrono::duration<double, std::milli>(now - lane.last_change)
             .count() > options_.watchdog_timeout_ms;
}

template <class Traits>
Status ShardedExecutorT<Traits>::CheckLanes() {
  for (size_t s = 0; s < lanes_.size(); ++s) {
    if (LaneFailed(s)) {
      ASEQ_RETURN_NOT_OK(RestartShard(s));
    }
  }
  return Status::OK();
}

template <class Traits>
Status ShardedExecutorT<Traits>::RestartShard(size_t shard) {
  Lane& lane = *lanes_[shard];
  obs::TraceWriter* const trace = options_.telemetry != nullptr
                                      ? options_.telemetry->trace()
                                      : nullptr;
  const bool was_dead = lane.dead.load(std::memory_order_acquire);
  if (trace != nullptr) {
    trace->Instant("quarantine", obs::TraceWriter::kCoordTid,
                   obs::MonotonicNanos(),
                   {obs::TraceWriter::NumArg("shard", shard),
                    {"cause", was_dead ? "crash" : "stall"}});
  }
  // Quarantine + reap: a stalled worker parks until the quarantine flag
  // flips; a crashed one already returned; an idle one wakes and exits.
  {
    std::lock_guard<std::mutex> lk(lane.mu);
    lane.quarantine.store(true, std::memory_order_relaxed);
  }
  lane.cv.notify_all();
  if (workers_[shard].joinable()) workers_[shard].join();

  ++lane.restart_attempts;
  ++fcounters_.restarts;
  if (lane.restart_attempts > options_.max_restarts) {
    return Status::Internal(
        "shard " + std::to_string(shard) + " exhausted its restart budget (" +
        std::to_string(options_.max_restarts) +
        " since the last recovery point); giving up");
  }
  // Bounded exponential backoff before respawning (first restart is
  // immediate): 1, 2, 4, ... 64 ms.
  if (lane.restart_attempts > 1) {
    const size_t shift = std::min<size_t>(lane.restart_attempts - 2, 6);
    std::this_thread::sleep_for(std::chrono::milliseconds(1ll << shift));
  }

  // Roll the lane back to its recovery point. The worker is joined, so
  // everything here is single-threaded (including the ring Clears — the
  // SPSC protocol does not cover concurrent resets).
  lane.ring.Clear();
  lane.free_ring.Clear();
  lane.consumer_parked.store(false, std::memory_order_relaxed);
  lane.producer_parked.store(false, std::memory_order_relaxed);
  lane.dead.store(false, std::memory_order_relaxed);
  lane.quarantine.store(false, std::memory_order_relaxed);
  lane.at_barrier.store(false, std::memory_order_relaxed);
  lane.idle.store(false, std::memory_order_relaxed);
  lane.outputs.resize(lane.ckpt_outputs);
  lane.records.resize(lane.ckpt_records);
  lane.records_consumed = lane.ckpt_records;
  // Ops routed but not yet flushed are already in the replay log; dropping
  // them here keeps the replay from double-feeding them.
  pending_[shard].clear();

  // Rebuild the engine twin from the recovery snapshot (engine Checkpoint
  // payloads carry stats, so the merged view stays exact).
  if (!factory_) {
    return Status::Internal(
        "supervised restart requires an engine factory (construct the "
        "executor through exec::MakePolicy / exec::MakeMultiPolicy)");
  }
  ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> fresh, factory_());
  auto* shardable = dynamic_cast<Shardable*>(fresh.get());
  if (shardable == nullptr) {
    return Status::Internal(
        "engine factory stopped producing shardable engines during a "
        "supervised restart");
  }
  if (!lane.snapshot.empty()) {
    ckpt::Reader reader(lane.snapshot);
    ASEQ_RETURN_NOT_OK(fresh->Restore(&reader));
    ASEQ_RETURN_NOT_OK(reader.ExpectEnd());
  }
  engines_[shard] = std::move(fresh);
  shardables_[shard] = shardable;

  lane.last_progress = lane.progress.load(std::memory_order_relaxed);
  lane.last_change = std::chrono::steady_clock::now();
  workers_[shard] =
      std::thread(&ShardedExecutorT<Traits>::WorkerMain, this, shard);
  PinWorker(shard);
  if (trace != nullptr) {
    trace->Instant("restart", obs::TraceWriter::kCoordTid,
                   obs::MonotonicNanos(),
                   {obs::TraceWriter::NumArg("shard", shard),
                    obs::TraceWriter::NumArg("attempt", lane.restart_attempts)});
  }

  // Replay the routed slice since the recovery point, then re-issue a
  // barrier token lost with the cleared queue (or the coordinator's barrier
  // would never complete). If the fresh worker fails again mid-replay
  // (another armed fault: dead, or stalled past the watchdog) or a stop
  // request arrives, abandon — the caller's detection loop restarts again,
  // and the budget bounds the loop.
  uint64_t replayed = 0;
  bool abandoned = false;
  const size_t chunk_size =
      options_.batch_size == 0 ? kDefaultBatchSize : options_.batch_size;
  for (size_t i = 0; i < lane.replay_log.size();) {
    const size_t chunk = std::min(chunk_size, lane.replay_log.size() - i);
    LaneItem item;
    item.tag = LaneItem::Tag::kOps;
    item.ops.assign(lane.replay_log.begin() + static_cast<ptrdiff_t>(i),
                    lane.replay_log.begin() + static_cast<ptrdiff_t>(i + chunk));
    if (options_.telemetry != nullptr) item.publish_ns = obs::MonotonicNanos();
    if (Push(shard, item) != PushResult::kPushed) {
      abandoned = true;
      break;
    }
    for (size_t j = i; j < i + chunk; ++j) {
      if (lane.replay_log[j].kind == ShardOp::Kind::kEvent) ++replayed;
    }
    i += chunk;
  }
  fcounters_.replayed_events += replayed;
  if (trace != nullptr) {
    trace->Instant("replay", obs::TraceWriter::kCoordTid,
                   obs::MonotonicNanos(),
                   {obs::TraceWriter::NumArg("shard", shard),
                    obs::TraceWriter::NumArg("events", replayed)});
  }
  if (lane.barrier_pending && !abandoned) {
    LaneItem token{LaneItem::Tag::kBarrier, {}};
    Push(shard, token);
  }
  return Status::OK();
}

template <class Traits>
Status ShardedExecutorT<Traits>::CaptureRecoveryPoints() {
  for (size_t s = 0; s < engines_.size(); ++s) {
    Lane& lane = *lanes_[s];
    ckpt::Writer writer;
    ASEQ_RETURN_NOT_OK(engines_[s]->Checkpoint(&writer));
    lane.snapshot = writer.buffer();
    lane.ckpt_outputs = lane.outputs.size();
    lane.ckpt_records = lane.records.size();
    lane.replay_log.clear();
    lane.restart_attempts = 0;
  }
  return Status::OK();
}

template <class Traits>
Status ShardedExecutorT<Traits>::DrainAllQueues() {
  for (;;) {
    bool drained = true;
    for (size_t s = 0; s < lanes_.size(); ++s) {
      Lane& lane = *lanes_[s];
      if (!lane.ring.Empty() ||
          !lane.idle.load(std::memory_order_relaxed)) {
        drained = false;
        if (options_.supervise && LaneFailed(s)) {
          ASEQ_RETURN_NOT_OK(RestartShard(s));
        }
      }
    }
    if (drained) return Status::OK();
    if (StopRequestedNow()) {
      // A stop against a wedged or slow worker must not poll forever:
      // abandon the drain; the run ends interrupted via quarantine.
      stop_stalled_ = true;
      return Status::OK();
    }
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

template <class Traits>
void ShardedExecutorT<Traits>::StopWorkers() {
  bool quarantine_teardown = options_.supervise || stop_stalled_;
  if (!quarantine_teardown) {
    for (size_t s = 0; s < lanes_.size(); ++s) {
      LaneItem token{LaneItem::Tag::kStop, {}};
      if (Push(s, token) != PushResult::kPushed) {
        // Stop request against a full ring: fall back to quarantine for
        // every lane (workers that already took their token just exit).
        quarantine_teardown = true;
        break;
      }
    }
  }
  if (quarantine_teardown) {
    // Quarantine-based teardown: rings are either empty (the final health
    // barrier ran) or abandoned (the run aborted or stop-stalled), so
    // nothing needs draining, and the quarantine flag wakes every kind of
    // park — the idle wait, an injected stall, and (with the epoch bump
    // below) a barrier whose resume was skipped by an abort path.
    for (auto& lane : lanes_) {
      {
        std::lock_guard<std::mutex> lk(lane->mu);
        lane->quarantine.store(true, std::memory_order_relaxed);
      }
      lane->cv.notify_all();
    }
    // Quarantine flags are set before the bump: a worker reaching a
    // barrier token after this sees quarantine in the wait predicate and
    // never blocks on the stale epoch.
    ResumeAll();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
}

template <class Traits>
typename ShardedExecutorT<Traits>::RunResultT ShardedExecutorT<Traits>::Run(
    StreamSource* source) {
  const size_t n = engines_.size();
  const bool supervised = options_.supervise;
  obs::Telemetry* const tel = options_.telemetry;
  obs::TraceWriter* const trace = tel != nullptr ? tel->trace() : nullptr;
  RunResultT result;
  result.batch_size = options_.batch_size;
  result.num_shards = n;

  // Per-run lane state, clear-not-shrink. Workers are not spawned yet, so
  // the single-threaded ring Clears are safe.
  for (auto& lane : lanes_) {
    lane->ring.Clear();
    lane->free_ring.Clear();
    lane->consumer_parked.store(false, std::memory_order_relaxed);
    lane->producer_parked.store(false, std::memory_order_relaxed);
    lane->spin_count = 0;
    lane->outputs.clear();
    lane->records.clear();
    lane->records_consumed = 0;
    lane->busy_seconds = 0;
    lane->progress.store(0, std::memory_order_relaxed);
    lane->idle.store(false, std::memory_order_relaxed);
    lane->dead.store(false, std::memory_order_relaxed);
    lane->quarantine.store(false, std::memory_order_relaxed);
    lane->at_barrier.store(false, std::memory_order_relaxed);
    lane->snapshot.clear();
    lane->ckpt_outputs = 0;
    lane->ckpt_records = 0;
    lane->replay_log.clear();
    lane->restart_attempts = 0;
    lane->barrier_pending = false;
    lane->last_progress = 0;
    lane->last_change = std::chrono::steady_clock::now();
  }
  fcounters_ = FaultCounters{};
  rcounters_ = RingCounters{};
  shed_keys_.clear();
  stop_stalled_ = false;
  fired_at_start_ = fault::Injector::Global().fired_count();
  {
    std::vector<int64_t> currents;
    currents.reserve(n);
    for (const auto& e : engines_) {
      currents.push_back(e->stats().objects.current());
    }
    // Seed with the merged view carried across runs/restores: engines
    // keep their state, so the peak must continue from where it stood.
    merger_.Reset(currents, merged_.objects.peak());
  }

  if (supervised) {
    // The initial recovery point: a restart before the first barrier must
    // rebuild the engines' *current* state — which, after a Restore(), is
    // not the fresh-constructed one.
    Status cs = CaptureRecoveryPoints();
    if (!cs.ok()) {
      result.fault_status = std::move(cs);
      return result;
    }
  }

  StopWatch watch;
  workers_.reserve(n);
  for (size_t s = 0; s < n; ++s) {
    workers_.emplace_back(&ShardedExecutorT<Traits>::WorkerMain, this, s);
    PinWorker(s);
  }

  SeqNum seq = options_.start_offset;
  // Occupancy-sample rotor: each batch samples ONE shard's ring depth into
  // the coordinator's occupancy histogram, rotating through the shards —
  // full coverage over n batches at 1/n of the per-publication record
  // cost (and no shard aliasing, which a modulo on the publication count
  // would produce).
  size_t occ_rotor = 0;
  const auto save_checkpoint = [&] {
    Status s = SaveSnapshotAt(seq);
    if (s.ok()) {
      ++result.checkpoints_written;
      if (tel != nullptr) tel->coord().checkpoints.Add(1);
      result.last_checkpoint_offset = seq;
    } else {
      result.checkpoint_status = std::move(s);
    }
  };
  uint64_t next_ckpt = options_.checkpoint_every > 0
                           ? options_.start_offset + options_.checkpoint_every
                           : shard_detail::kNeverDue;
  uint64_t next_rec = supervised && options_.recovery_every > 0
                          ? options_.start_offset + options_.recovery_every
                          : shard_detail::kNeverDue;
  for (;;) {
    if (StopRequestedNow()) {
      result.interrupted = true;
      break;
    }
    std::span<Event> batch = source->BorrowBatch(options_.batch_size);
    if (batch.empty()) break;
    // Stamp the whole batch, then route it in one pass: the router runs
    // the vectorized admission prefilter + one BatchAdmitter sweep over
    // the borrowed batch instead of a per-event walk.
    for (Event& e : batch) e.set_seq(seq++);
    const uint64_t batch_begin = tel != nullptr ? obs::MonotonicNanos() : 0;
    const auto routes =
        router_.RouteBatch(std::span<const Event>(batch.data(), batch.size()));
    if (tel != nullptr) {
      // Batch-admission latency: the routing pass alone (vectorized
      // prefilter + compiled admission + hash routing).
      tel->coord().admit_ns.Record(obs::MonotonicNanos() - batch_begin);
      tel->coord().batches.Add(1);
      tel->coord().events.Add(batch.size());
    }
    bool overload_hit = false;
    for (size_t bi = 0; bi < batch.size(); ++bi) {
      Event& e = batch[bi];
      const auto& route = routes[bi];
      const Timestamp ts = e.ts();
      const SeqNum eseq = e.seq();
      if (options_.overload_policy != OverloadPolicy::kBlock) {
        const bool overloaded =
            route.inject_overload ||
            lanes_[route.shard]->ring.size() >=
                options_.overload_high_watermark;
        if (options_.overload_policy == OverloadPolicy::kShed &&
            route.has_key) {
          // Drop whole partitions, deterministically: once a key is shed,
          // every later event of that key is discarded before routing.
          // Events of other keys never read a shed partition's state (the
          // GROUP BY key scopes all reads), so survivors stay exact.
          if (shed_keys_.count(route.key_id) != 0) {
            ++fcounters_.shed_events;
            continue;
          }
          if (overloaded) {
            shed_keys_.insert(route.key_id);
            ++fcounters_.shed_partitions;
            ++fcounters_.shed_events;
            if (trace != nullptr) {
              trace->Instant("shed", obs::TraceWriter::kCoordTid,
                             obs::MonotonicNanos(),
                             {obs::TraceWriter::NumArg("key", route.key_id),
                              obs::TraceWriter::NumArg("seq", eseq)});
            }
            continue;
          }
        } else if (overloaded) {
          overload_hit = true;
        }
      }
      // Copy, not move: the batch may be borrowed source storage that a
      // Reset replay will serve again.
      pending_[route.shard].push_back(
          ShardOp{ShardOp::Kind::kEvent, ts, eseq, e, {}});
      if (supervised) {
        lanes_[route.shard]->replay_log.push_back(
            ShardOp{ShardOp::Kind::kEvent, ts, eseq, e, {}});
      }
      if (send_markers_ && !route.trigger_queries.empty()) {
        // The serial trigger purges every partition (of each triggered
        // query); non-owner shards replay it as a marker at the same seq,
        // keeping their state and object counts in lockstep.
        for (size_t s = 0; s < n; ++s) {
          if (s == route.shard) continue;
          ShardOp marker{ShardOp::Kind::kPurgeMarker, ts, eseq, Event(), {}};
          Traits::StampMarker(route, &marker);
          if (supervised) {
            lanes_[s]->replay_log.push_back(marker);
          }
          pending_[s].push_back(std::move(marker));
        }
      }
    }
    // One chunked publication per shard per batch; one shared timestamp
    // covers all of them (the trigger-latency epoch is the batch's
    // publication, not each shard's push).
    const uint64_t publish_ns = tel != nullptr ? obs::MonotonicNanos() : 0;
    const size_t occ_shard = occ_rotor++ % n;
    for (size_t s = 0; s < n; ++s) {
      Status fs = FlushPending(s, publish_ns, s == occ_shard);
      if (!fs.ok()) {
        result.fault_status = std::move(fs);
        break;
      }
    }
    if (trace != nullptr) {
      // The coordinator-side batch span: routing through publication
      // (worker-side execution shows up in the shard rows).
      trace->Span("batch", obs::TraceWriter::kCoordTid, batch_begin,
                  obs::MonotonicNanos(),
                  {obs::TraceWriter::NumArg("seq", seq - batch.size()),
                   obs::TraceWriter::NumArg("events", batch.size())});
    }
    if (!result.fault_status.ok() || stop_stalled_) break;
    if (supervised) {
      Status cs = CheckLanes();
      if (!cs.ok()) {
        result.fault_status = std::move(cs);
        break;
      }
    }
    if (overload_hit &&
        options_.overload_policy == OverloadPolicy::kDegradeSerial) {
      ++fcounters_.overload_stalls;
      if (trace != nullptr) {
        trace->Instant("overload-degrade", obs::TraceWriter::kCoordTid,
                       obs::MonotonicNanos(),
                       {obs::TraceWriter::NumArg("seq", seq)});
      }
      Status ds = DrainAllQueues();
      if (!ds.ok()) {
        result.fault_status = std::move(ds);
        break;
      }
      if (stop_stalled_) break;
    }

    const bool ckpt_due = result.checkpoint_status.ok() && seq >= next_ckpt;
    const bool rec_due = seq >= next_rec;
    if (ckpt_due || rec_due) {
      Status bs = Barrier();
      if (!bs.ok()) {
        result.fault_status = std::move(bs);
        break;
      }
      if (stop_stalled_) break;
      DrainMerger();
      if (supervised) {
        Status cs = CaptureRecoveryPoints();
        if (!cs.ok()) {
          result.fault_status = std::move(cs);
          ResumeAll();
          break;
        }
      }
      if (ckpt_due) save_checkpoint();
      ResumeAll();
      if (next_ckpt != shard_detail::kNeverDue) {
        while (next_ckpt <= seq) next_ckpt += options_.checkpoint_every;
      }
      if (next_rec != shard_detail::kNeverDue) {
        while (next_rec <= seq) next_rec += options_.recovery_every;
      }
    }
  }

  // Graceful-stop drain + final snapshot, and (supervised) a final health
  // barrier so a worker that died after the last check still gets its ops
  // recovered before the stop tokens go out. A stop-stalled run skips all
  // of it: queued work could not flush, so a snapshot at the stop offset
  // would be inconsistent, and the barrier could never complete.
  const bool want_final_ckpt =
      result.interrupted && !options_.checkpoint_dir.empty() &&
      result.checkpoint_status.ok() &&
      (result.checkpoints_written == 0 ||
       result.last_checkpoint_offset < seq);
  if (result.fault_status.ok() && !stop_stalled_ &&
      (supervised || want_final_ckpt)) {
    Status bs = Barrier();
    if (!bs.ok()) {
      result.fault_status = std::move(bs);
    } else if (!stop_stalled_) {
      if (want_final_ckpt) {
        DrainMerger();
        save_checkpoint();
      }
      ResumeAll();
    }
    // stop_stalled_: StopWorkers tears down by quarantine.
  }

  StopWorkers();
  // Work stranded by a stop-stalled push, barrier or drain never ran.
  if (stop_stalled_) result.interrupted = true;

  DrainMerger();
  merged_ = ComputeMergedStats();
  merged_.fault_injected =
      fault::Injector::Global().fired_count() - fired_at_start_;
  merged_.fault_restarts = fcounters_.restarts;
  merged_.fault_replayed_events = fcounters_.replayed_events;
  merged_.shed_partitions = fcounters_.shed_partitions;
  merged_.shed_events = fcounters_.shed_events;
  merged_.overload_stalls = fcounters_.overload_stalls;
  merged_.pub_batches = rcounters_.pub_batches;
  merged_.ring_full_waits = rcounters_.full_waits;
  {
    // Workers are joined, so their plain spin counters are visible.
    uint64_t spins = rcounters_.spins;
    for (const auto& lane : lanes_) spins += lane->spin_count;
    merged_.ring_spins = spins;
  }
  for (size_t s = 0; s < n; ++s) {
    shard_stats_view_[s] = engines_[s]->stats();
    busy_view_[s] = lanes_[s]->busy_seconds;
  }

  if (CollectsOutputs()) {
    OutputSink* sink = options_.output_sink;
    if (sink == nullptr) {
      size_t total = 0;
      for (const auto& lane : lanes_) total += lane->outputs.size();
      result.outputs.reserve(total);
    }
    std::vector<size_t> cursor(n, 0);
    for (;;) {
      size_t best = n;
      SeqNum best_seq = std::numeric_limits<SeqNum>::max();
      for (size_t s = 0; s < n; ++s) {
        const auto& outs = lanes_[s]->outputs;
        if (cursor[s] < outs.size() &&
            Traits::OutputSeq(outs[cursor[s]]) < best_seq) {
          best_seq = Traits::OutputSeq(outs[cursor[s]]);
          best = s;
        }
      }
      if (best == n) break;
      // One event's outputs all come from its owner shard, in order.
      auto& outs = lanes_[best]->outputs;
      const size_t first = cursor[best];
      while (cursor[best] < outs.size() &&
             Traits::OutputSeq(outs[cursor[best]]) == best_seq) {
        ++cursor[best];
      }
      const auto begin = outs.begin() + static_cast<ptrdiff_t>(first);
      const auto end = outs.begin() + static_cast<ptrdiff_t>(cursor[best]);
      if (sink != nullptr) {
        sink->Take(std::span<const OutputT>(begin, end));
      } else {
        result.outputs.insert(result.outputs.end(),
                              std::make_move_iterator(begin),
                              std::make_move_iterator(end));
      }
    }
  }

  result.elapsed_seconds = watch.ElapsedSeconds();
  result.events = seq - options_.start_offset;
  return result;
}

template <class Traits>
Status ShardedExecutorT<Traits>::Restore(const std::string& path,
                                         uint64_t* stream_offset) {
  std::vector<Engine*> shards;
  shards.reserve(engines_.size());
  for (auto& e : engines_) shards.push_back(e.get());
  EngineStats merged;
  std::string router_state;
  ASEQ_RETURN_NOT_OK(ckpt::RestoreShardedSnapshot(path, shards, stream_offset,
                                                  &merged, &router_state));
  ckpt::Reader router_reader(router_state);
  ASEQ_RETURN_NOT_OK(router_.Restore(&router_reader));
  ASEQ_RETURN_NOT_OK(router_reader.ExpectEnd());
  merged_ = merged;
  options_.start_offset = *stream_offset;
  return Status::OK();
}

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARDED_EXECUTOR_IMPL_H_
