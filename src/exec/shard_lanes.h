#ifndef ASEQ_EXEC_SHARD_LANES_H_
#define ASEQ_EXEC_SHARD_LANES_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/event.h"
#include "engine/runtime.h"
#include "exec/spsc_ring.h"
#include "obs/telemetry.h"

namespace aseq {
namespace exec {

class ShardSupervisor;

/// One unit of shard work: an event for the owner shard, or a purge marker
/// replaying a trigger's cross-partition purge on a non-owner shard.
/// `trigger_queries` is meaningful for markers only: which workload
/// queries the trigger completed (empty for a single query's markers).
///
/// Ops live in recycled storage (LaneItem), so they are filled by the
/// Assign calls, which overwrite every field a worker reads and keep the
/// event's attribute capacity.
struct ShardOp {
  enum class Kind : uint8_t { kEvent, kPurgeMarker };
  Kind kind = Kind::kEvent;
  /// The event; a marker uses only its ts and seq (the trigger's).
  Event event;
  std::vector<size_t> trigger_queries;

  /// An event op. A slim op (`with_attrs` false) carries only the event's
  /// type, ts and seq: for a type no query names, every engine returns on
  /// the type check before it reads an attribute.
  void AssignEvent(const Event& e, bool with_attrs) {
    kind = Kind::kEvent;
    if (with_attrs) {
      event = e;
      return;
    }
    event.set_type(e.type());
    event.set_ts(e.ts());
    event.set_seq(e.seq());
    event.ClearAttrs();
  }
  /// A purge marker for the trigger `e`.
  void AssignMarker(const Event& e, std::span<const size_t> queries) {
    kind = Kind::kPurgeMarker;
    event.set_ts(e.ts());
    event.set_seq(e.seq());
    event.ClearAttrs();
    trigger_queries.assign(queries.begin(), queries.end());
  }
};

/// One ring slot: a chunk of ops (one publication), or a barrier or stop
/// token.
struct LaneItem {
  enum class Tag : uint8_t { kOps, kBarrier, kStop };
  Tag tag = Tag::kOps;
  /// Op storage; the first `live` ops are the item's work. The rest are
  /// stale ops kept for their capacity: a drained vector travels back
  /// through the lane's free ring uncleared, and the coordinator
  /// overwrites its ops in place (Append), so a steady-state run
  /// allocates and frees nothing per op.
  std::vector<ShardOp> ops;
  size_t live = 0;
  /// Publication timestamp (obs::MonotonicNanos at ring push), stamped
  /// only when telemetry is on — the base of the trigger-to-output
  /// latency histogram. Zero when telemetry is off.
  uint64_t publish_ns = 0;

  /// The next op slot: a recycled one when the storage has it.
  ShardOp& Append() {
    if (live == ops.size()) ops.emplace_back();
    return ops[live++];
  }
  std::span<const ShardOp> live_ops() const { return {ops.data(), live}; }
};

/// How a coordinator push or barrier ended. kStopped: a stop request
/// abandoned it (the run is then stop-stalled). kFailed: the run is
/// supervised and the lane's worker died or stalled; the caller restarts
/// it.
enum class PushResult : uint8_t { kPushed, kStopped, kFailed };

/// A worker's telemetry counts, accumulated in plain fields by the hot
/// loop and flushed to its shard cell only at drain boundaries (ring empty
/// before a park, barrier, ordered exit) or every kFlushItems items under
/// saturation — one batch of relaxed stores per drain instead of six per
/// item keeps the record cost inside the <= 3% bench_dataplane overhead
/// gate. The emitter sees counters at most one drain stale.
struct WorkerTally {
  static constexpr uint64_t kFlushItems = 64;
  obs::ShardCell* cell = nullptr;  // null = telemetry off
  uint64_t items = 0, ops = 0, events = 0, outputs = 0, busy_ns = 0;
  /// Publishes and zeroes the counts; `ring_occupancy` is the queue depth
  /// at the end of the drain (zero when the worker caught up).
  void Flush(size_t ring_occupancy);
};

/// \brief The sharded dataplane (docs/internals.md §16): one bounded SPSC
/// work ring per shard, pumped by one worker thread, with the coordinator
/// as the only pusher. It knows nothing of engines or outputs.
///
/// Both ring sides spin a bounded budget first, then park on the lane's
/// condition variable with a timed wait (kParkPoll). The wake handshake
/// via the parked flags is best-effort; the timed wait bounds a lost
/// wakeup and lets the coordinator poll stop_requested and, supervised,
/// the supervisor's watchdog while it waits. Barrier tokens park every
/// worker at one rendezvous (checkpoints, recovery points, the
/// degrade-serial drain); stop tokens or quarantine end a worker.
class ShardLanes {
 public:
  /// Bounded-queue depth per lane (ring capacity): enough to keep workers
  /// fed ahead of the router, small enough that a fast router cannot
  /// buffer the stream.
  static constexpr size_t kMaxQueuedItems = 16;
  /// Every park is timed at this one period: a lost wakeup costs at most
  /// this, and the coordinator polls stop_requested (and, supervised, the
  /// watchdog) at the same cadence.
  static constexpr std::chrono::milliseconds kParkPoll{1};
  /// Spin budget before parking, per push/pop attempt. The common stall is
  /// a counterpart mid-item, gone within microseconds; parking for those
  /// would trade two atomic ops for a futex round-trip.
  static constexpr size_t kRingSpinIters = 128;

  /// One shard's queues, park layer and worker signals.
  struct Lane {
    /// Work ring: the coordinator publishes, the worker drains.
    SpscRing<LaneItem> ring{kMaxQueuedItems};
    /// Reverse ring, worker → coordinator: drained op vectors recycled
    /// back to the router uncleared (LaneItem::ops). Best-effort — a full
    /// ring just lets the vector deallocate.
    SpscRing<std::vector<ShardOp>> free_ring{kMaxQueuedItems};
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<bool> consumer_parked{false};
    std::atomic<bool> producer_parked{false};
    /// Spin iterations the worker burned before parking (worker-owned;
    /// read after the join in StopWorkers, which synchronizes).
    uint64_t spin_count = 0;
    /// Worker-owned telemetry accumulators.
    WorkerTally tally;

    /// Heartbeat: bumped by the worker once per executed op.
    std::atomic<uint64_t> progress{0};
    /// The worker is parked waiting for work (idle is never "stalled").
    std::atomic<bool> idle{false};
    /// The worker died (injected crash): its thread returned without
    /// cleanup.
    std::atomic<bool> dead{false};
    /// Order to exit, checked before every pop: an ordered exit must not
    /// drain the ring (a restart replays it). Also wakes every park.
    std::atomic<bool> quarantine{false};
    /// The worker is parked at a barrier (never a failure).
    std::atomic<bool> at_barrier{false};
    /// A barrier token is owed: it was queued (or lost with a cleared
    /// ring) and the worker has not arrived yet. Coordinator-only.
    bool barrier_pending = false;
  };

  /// `supervisor` is null for an unsupervised run; it is only stored here
  /// (the coordinator owns both parts) and consulted as the watchdog.
  ShardLanes(size_t num_shards, const RunOptions& options,
             ShardSupervisor* supervisor);
  /// Quarantines and joins any worker still running (a run that unwound
  /// before StopWorkers).
  ~ShardLanes();

  Lane& lane(size_t shard) { return lanes_[shard]; }

  // ---- Coordinator side. ----

  /// Per-run reset, before any worker is spawned.
  void ResetForRun();
  /// Post-join reset of one lane: empty rings, cleared worker flags. An
  /// owed barrier token stays owed.
  void ResetAfterJoin(size_t shard);
  /// Starts the shard's worker running `body` and applies --pin-threads.
  void Spawn(size_t shard, std::function<void()> body);
  /// The coordinator's one ring push: TryPush, a bounded spin, then timed
  /// parks. After each park it gives up, leaving `item` unqueued, with
  /// kStopped on a stop request (the run is then stop-stalled) or with
  /// kFailed when the supervisor's watchdog reports the lane failed. It
  /// never restarts a lane: each caller decides what a failure means.
  PushResult Push(size_t shard, LaneItem& item);
  /// Parks every worker at a barrier: every queued item runs first.
  /// kPushed once all have arrived; kStopped on a stop request; kFailed
  /// with `*failed` set to a lane the caller must restart before calling
  /// again, which resumes the same barrier (the restart re-queues the
  /// lane's owed token after its replay).
  PushResult Barrier(size_t* failed);
  /// Releases the workers parked by Barrier.
  void ResumeAll();
  /// Quarantines the shard's worker and joins it (a stalled worker parks
  /// until quarantine; a crashed one already returned).
  void Reap(size_t shard);
  /// Pushes stop tokens and joins every worker. Falls back to quarantine
  /// teardown when the run is supervised or stop-stalled, or when a stop
  /// request strands a token on a full ring.
  void StopWorkers();

  /// A stop request caught the coordinator waiting (full ring or barrier):
  /// queued work could not flush, so the final barrier and checkpoint are
  /// skipped and teardown quarantines instead of draining.
  bool stop_stalled() const { return stop_stalled_; }
  /// Pushes that found a full ring, and spins on both sides (valid after
  /// StopWorkers).
  uint64_t full_waits() const { return full_waits_; }
  uint64_t spins() const;

  // ---- Worker side. ----

  /// Pops the shard's next op chunk; barrier tokens are served inside
  /// (the worker parks until ResumeAll). Returns false when the worker
  /// must exit: a stop token or quarantine.
  bool Pop(size_t shard, LaneItem* item);
  /// One `worker.op` fault hit: slow sleeps; supervised, crash and stall
  /// make the worker die or hang until quarantined. True when the worker
  /// must return at once.
  bool HitWorkerFault(size_t shard);

 private:
  void Quarantine(Lane& lane);
  /// Joins every worker, quarantining them all first when `quarantine`.
  void JoinWorkers(bool quarantine);
  void PinWorker(size_t shard);

  const RunOptions& options_;
  ShardSupervisor* supervisor_;
  std::vector<Lane> lanes_;  // sized once: a Lane never moves
  std::vector<std::thread> workers_;

  // Barrier rendezvous.
  std::mutex coord_mu_;
  std::condition_variable coord_cv_;
  size_t barrier_arrived_ = 0;
  uint64_t barrier_epoch_ = 0;
  bool barrier_open_ = false;  // a Barrier call returned kFailed mid-way

  bool stop_stalled_ = false;
  bool pin_warned_ = false;
  uint64_t full_waits_ = 0;
  uint64_t push_spins_ = 0;
};

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARD_LANES_H_
