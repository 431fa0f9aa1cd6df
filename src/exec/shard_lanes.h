#ifndef ASEQ_EXEC_SHARD_LANES_H_
#define ASEQ_EXEC_SHARD_LANES_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
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

/// Op word flag: the word's low bits index the shared batch's trigger
/// table (a purge marker) instead of its events.
inline constexpr uint32_t kMarkerOp = 1u << 31;

class SharedBatchPool;

/// \brief The events of one source batch that some lane needs, copied once
/// by the coordinator and read by every lane it is published to. Lanes
/// address it with 32-bit op words: an event index, or kMarkerOp plus a
/// trigger index for a purge marker.
///
/// Batches are recycled through their SharedBatchPool: event slots keep
/// their attribute capacity across uses, so a copy allocates nothing once
/// the pool is warm. A batch is reference-counted (SharedBatchPool::Ref /
/// Release) and returns to the pool when its last holder lets go.
struct SharedBatch {
  /// A trigger event whose cross-partition purge the non-owner lanes
  /// replay. Its query list is stored once here, however many lanes get
  /// the marker.
  struct Trigger {
    uint32_t event = 0;
    uint32_t first_query = 0;
    uint32_t num_queries = 0;
  };

  const Event& event(uint32_t index) const { return events_[index]; }
  const Trigger& trigger(uint32_t index) const { return triggers_[index]; }
  std::span<const size_t> queries(const Trigger& t) const {
    return {trigger_queries_.data() + t.first_query, t.num_queries};
  }
  size_t size() const { return size_; }

  /// Copies `e` into the next event slot and returns its index.
  uint32_t Append(const Event& e) {
    if (size_ == events_.size()) events_.emplace_back();
    events_[size_] = e;
    return static_cast<uint32_t>(size_++);
  }
  /// Records event `index` as a trigger of `queries`; returns the op word
  /// of its purge marker.
  uint32_t AddTrigger(uint32_t index, std::span<const size_t> queries) {
    triggers_.push_back({index, static_cast<uint32_t>(trigger_queries_.size()),
                         static_cast<uint32_t>(queries.size())});
    trigger_queries_.insert(trigger_queries_.end(), queries.begin(),
                            queries.end());
    return kMarkerOp | static_cast<uint32_t>(triggers_.size() - 1);
  }

 private:
  friend class SharedBatchPool;

  /// The first size_ slots are live; the rest keep their capacity.
  std::vector<Event> events_;
  size_t size_ = 0;
  std::vector<Trigger> triggers_;
  std::vector<size_t> trigger_queries_;
  std::atomic<uint32_t> refs_{0};
  SharedBatchPool* pool_ = nullptr;
};

/// \brief Owns every SharedBatch of a sharded executor and recycles them.
/// Acquire is coordinator-only; Release may run on any thread (the last
/// holder of a batch is usually a worker), so the free list is locked —
/// once per batch, not per event.
class SharedBatchPool {
 public:
  /// An empty batch holding one reference (the caller's).
  SharedBatch* Acquire();
  static void Ref(SharedBatch* batch) {
    batch->refs_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Drops one reference; the last one returns the batch to its pool.
  static void Release(SharedBatch* batch) {
    if (batch->refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      batch->pool_->Return(batch);
    }
  }

  /// Pool accounting: batches ever allocated, Acquire calls, returns, and
  /// batches currently idle. With no batch in flight, acquires == returns
  /// and idle == created.
  struct Counts {
    size_t created = 0;
    uint64_t acquires = 0;
    uint64_t returns = 0;
    size_t idle = 0;
  };
  Counts counts() const;

 private:
  void Return(SharedBatch* batch);

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SharedBatch>> all_;
  std::vector<SharedBatch*> free_;
  uint64_t acquires_ = 0;
  uint64_t returns_ = 0;
};

/// One ring slot: one lane's work for one source batch (one publication),
/// or a barrier or stop token.
struct LaneItem {
  enum class Tag : uint8_t { kOps, kBarrier, kStop };
  Tag tag = Tag::kOps;
  /// The batch the op words index. A queued item holds one reference; the
  /// worker drops it once the item ran.
  SharedBatch* batch = nullptr;
  /// The executor's result slot for this item. The coordinator wrote the
  /// item's op words there before the push; the worker writes the item's
  /// outputs and object records there, then bumps Lane::finished.
  uint32_t slot = 0;
  /// Publication timestamp (obs::MonotonicNanos at ring push), stamped
  /// only when telemetry is on — the base of the trigger-to-output
  /// latency histogram. Zero when telemetry is off.
  uint64_t publish_ns = 0;
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
/// as the only pusher. It knows nothing of engines or outputs: results go
/// back through the executor's result slots, and one counter per lane
/// (Lane::finished) says how many of them are done.
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
  /// Bounded-queue depth per lane (ring capacity): deep enough that a
  /// worker descheduled for a millisecond does not stall the router (an
  /// item is one source batch, so 64 items are 16k events at the default
  /// batch size), small enough that a fast router cannot buffer the
  /// stream. The memory it bounds is the shared batches in flight.
  static constexpr size_t kMaxQueuedItems = 64;
  /// Every park is timed at this one period: a lost wakeup costs at most
  /// this, and the coordinator polls stop_requested (and, supervised, the
  /// watchdog) at the same cadence.
  static constexpr std::chrono::milliseconds kParkPoll{1};
  /// Spin budget before parking, per push/pop attempt. The common stall is
  /// a counterpart mid-item, gone within microseconds; parking for those
  /// would trade two atomic ops for a futex round-trip.
  static constexpr size_t kRingSpinIters = 128;
  /// Result slots per lane: a lane's k-th ops item since its last reset
  /// uses slot k % kDoneSlots. The coordinator collects a lane's finished
  /// items before each push to it, so at most kMaxQueuedItems + 2 of its
  /// items are ever outstanding (queued, running, or finished and not yet
  /// collected).
  static constexpr size_t kDoneSlots = 2 * kMaxQueuedItems;

  /// One shard's queues, park layer and worker signals.
  struct Lane {
    /// Work ring: the coordinator publishes, the worker drains.
    SpscRing<LaneItem> ring{kMaxQueuedItems};
    /// Ops items the worker finished, in publication order
    /// (CountFinished); the coordinator reads it with acquire and may then
    /// read those items' result slots.
    std::atomic<uint64_t> finished{0};
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

    /// Worker side: one more item finished, its result slot written and
    /// its batch let go; the slot is the coordinator's from here on. The
    /// worker is the only writer, so a release store suffices, as for the
    /// ring's own indexes (no read-modify-write on the per-item path).
    void CountFinished() {
      finished.store(finished.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
    }
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
  /// Post-join reset of one lane: an empty ring (queued items drop their
  /// batch references), a zero finished count, cleared worker flags. An
  /// owed barrier token stays owed.
  void ResetAfterJoin(size_t shard);
  /// Post-join: drops the batch references of items still queued on the
  /// lane (a stop-stalled or aborted run never ran them).
  void ReleaseQueued(size_t shard);
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
