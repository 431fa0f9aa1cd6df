#include "exec/shard_lanes.h"

#include <cstdio>
#include <string>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "exec/shard_supervisor.h"
#include "fault/fault.h"

namespace aseq {
namespace exec {

namespace {

/// Lock-free wake hint: lock + notify only when the counterpart's parked
/// flag is up (a missed flag costs at most one kParkPoll).
void Wake(ShardLanes::Lane& lane, const std::atomic<bool>& parked) {
  if (parked.load(std::memory_order_acquire)) {
    { std::lock_guard<std::mutex> lk(lane.mu); }
    lane.cv.notify_all();
  }
}

}  // namespace

void WorkerTally::Flush(size_t ring_occupancy) {
  if (cell == nullptr || items == 0) return;
  cell->items.Add(items);
  cell->ops.Add(ops);
  cell->events.Add(events);
  if (outputs > 0) cell->outputs.Add(outputs);
  cell->busy_ns.Add(busy_ns);
  cell->ring_occupancy.Set(ring_occupancy);
  items = ops = events = outputs = busy_ns = 0;
}

ShardLanes::ShardLanes(size_t num_shards, const RunOptions& options,
                       ShardSupervisor* supervisor)
    : options_(options),
      supervisor_(supervisor),
      lanes_(num_shards),
      workers_(num_shards) {}

void ShardLanes::ResetForRun() {
  for (size_t s = 0; s < lanes_.size(); ++s) {
    ResetAfterJoin(s);
    Lane& lane = lanes_[s];
    lane.spin_count = 0;
    lane.progress.store(0, std::memory_order_relaxed);
    lane.barrier_pending = false;
    lane.tally.cell = options_.telemetry != nullptr
                          ? &options_.telemetry->shard(s)
                          : nullptr;
  }
  barrier_open_ = false;
  stop_stalled_ = false;
  full_waits_ = 0;
  push_spins_ = 0;
}

SharedBatch* SharedBatchPool::Acquire() {
  SharedBatch* batch;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++acquires_;
    if (free_.empty()) {
      all_.push_back(std::make_unique<SharedBatch>());
      batch = all_.back().get();
      batch->pool_ = this;
    } else {
      batch = free_.back();
      free_.pop_back();
    }
  }
  batch->size_ = 0;
  batch->triggers_.clear();
  batch->trigger_queries_.clear();
  batch->refs_.store(1, std::memory_order_relaxed);
  return batch;
}

void SharedBatchPool::Return(SharedBatch* batch) {
  std::lock_guard<std::mutex> lk(mu_);
  ++returns_;
  free_.push_back(batch);
}

SharedBatchPool::Counts SharedBatchPool::counts() const {
  std::lock_guard<std::mutex> lk(mu_);
  return {all_.size(), acquires_, returns_, free_.size()};
}

void ShardLanes::ReleaseQueued(size_t shard) {
  LaneItem item;
  while (lanes_[shard].ring.TryPop(&item)) {
    if (item.batch != nullptr) SharedBatchPool::Release(item.batch);
  }
}

void ShardLanes::ResetAfterJoin(size_t shard) {
  // Single-threaded: the worker is joined or not yet spawned, and the SPSC
  // protocol does not cover concurrent Clears.
  Lane& lane = lanes_[shard];
  ReleaseQueued(shard);
  lane.finished.store(0, std::memory_order_relaxed);
  lane.consumer_parked.store(false, std::memory_order_relaxed);
  lane.producer_parked.store(false, std::memory_order_relaxed);
  lane.idle.store(false, std::memory_order_relaxed);
  lane.dead.store(false, std::memory_order_relaxed);
  lane.quarantine.store(false, std::memory_order_relaxed);
  lane.at_barrier.store(false, std::memory_order_relaxed);
  // A crashed worker's unflushed counts die with it.
  lane.tally = WorkerTally{lane.tally.cell};
}

void ShardLanes::Spawn(size_t shard, std::function<void()> body) {
  workers_[shard] = std::thread(std::move(body));
  PinWorker(shard);
}

PushResult ShardLanes::Push(size_t shard, LaneItem& item) {
  Lane& lane = lanes_[shard];
  if (lane.ring.TryPush(item)) {
    Wake(lane, lane.consumer_parked);
    return PushResult::kPushed;
  }
  ++full_waits_;
  if (options_.telemetry != nullptr) {
    options_.telemetry->coord().ring_full_waits.Add(1);
  }
  for (size_t spin = 0;;) {
    if (lane.ring.TryPush(item)) {
      Wake(lane, lane.consumer_parked);
      return PushResult::kPushed;
    }
    if (++spin <= kRingSpinIters) {
      CpuRelax();
      ++push_spins_;
      continue;
    }
    {
      std::unique_lock<std::mutex> lk(lane.mu);
      lane.producer_parked.store(true, std::memory_order_release);
      lane.cv.wait_for(lk, kParkPoll, [&] {
        return !lane.ring.Full() || lane.dead.load(std::memory_order_relaxed);
      });
      lane.producer_parked.store(false, std::memory_order_relaxed);
    }
    if (options_.StopRequested()) {
      stop_stalled_ = true;
      return PushResult::kStopped;
    }
    if (supervisor_ != nullptr && supervisor_->LaneFailed(shard)) {
      return PushResult::kFailed;
    }
    spin = 0;
  }
}

PushResult ShardLanes::Barrier(size_t* failed) {
  const size_t n = lanes_.size();
  if (!barrier_open_) {
    std::lock_guard<std::mutex> lk(coord_mu_);
    barrier_arrived_ = 0;
    barrier_open_ = true;
  }
  for (size_t s = 0; s < n; ++s) {
    if (lanes_[s].barrier_pending) continue;
    LaneItem token{.tag = LaneItem::Tag::kBarrier};
    const PushResult pushed = Push(s, token);
    if (pushed != PushResult::kPushed) {
      // Stopped: lanes that did get a token park on the epoch until the
      // quarantine teardown wakes them. Failed: the restart clears the
      // ring, and the next call pushes this lane's token after the replay.
      *failed = s;
      return pushed;
    }
    lanes_[s].barrier_pending = true;
  }
  std::unique_lock<std::mutex> lk(coord_mu_);
  while (!coord_cv_.wait_for(lk, kParkPoll,
                             [&] { return barrier_arrived_ == n; })) {
    if (options_.StopRequested()) {
      // Tokens are queued but a worker is not arriving (stalled or slow):
      // a stop request must still exit cleanly.
      stop_stalled_ = true;
      return PushResult::kStopped;
    }
    if (supervisor_ == nullptr) continue;
    for (size_t s = 0; s < n; ++s) {
      if (!lanes_[s].at_barrier.load(std::memory_order_acquire) &&
          supervisor_->LaneFailed(s)) {
        // The lane's token died with its ring; its restart re-queues it.
        *failed = s;
        return PushResult::kFailed;
      }
    }
  }
  barrier_open_ = false;
  for (Lane& lane : lanes_) lane.barrier_pending = false;
  return PushResult::kPushed;
}

void ShardLanes::ResumeAll() {
  {
    std::lock_guard<std::mutex> lk(coord_mu_);
    ++barrier_epoch_;
  }
  coord_cv_.notify_all();
}

void ShardLanes::Quarantine(Lane& lane) {
  {
    std::lock_guard<std::mutex> lk(lane.mu);
    lane.quarantine.store(true, std::memory_order_relaxed);
  }
  lane.cv.notify_all();
}

void ShardLanes::Reap(size_t shard) {
  Quarantine(lanes_[shard]);
  if (workers_[shard].joinable()) workers_[shard].join();
}

ShardLanes::~ShardLanes() { JoinWorkers(/*quarantine=*/true); }

void ShardLanes::StopWorkers() {
  bool quarantine = supervisor_ != nullptr || stop_stalled_;
  for (size_t s = 0; !quarantine && s < lanes_.size(); ++s) {
    // A stop request against a full ring falls back to quarantine for
    // every lane (workers that already took their token just exit).
    LaneItem token{.tag = LaneItem::Tag::kStop};
    quarantine = Push(s, token) != PushResult::kPushed;
  }
  JoinWorkers(quarantine);
}

void ShardLanes::JoinWorkers(bool quarantine) {
  if (quarantine) {
    // Rings are either empty (the final health barrier ran) or abandoned
    // (the run aborted or stop-stalled), so nothing needs draining, and
    // the quarantine flag wakes every kind of park — the idle wait, an
    // injected stall, and (with the epoch bump below) a barrier whose
    // resume was skipped by an abort path.
    for (Lane& lane : lanes_) Quarantine(lane);
    // Quarantine flags are set before the bump: a worker reaching a
    // barrier token after this sees quarantine in the wait predicate and
    // never blocks on the stale epoch.
    ResumeAll();
  }
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

uint64_t ShardLanes::spins() const {
  uint64_t spins = push_spins_;
  for (const Lane& lane : lanes_) spins += lane.spin_count;
  return spins;
}

bool ShardLanes::Pop(size_t shard, LaneItem* item) {
  Lane& lane = lanes_[shard];
  WorkerTally& tally = lane.tally;
  for (;;) {
    // Quarantine first, then a bounded spin on the ring, then a timed park
    // flying the idle + parked flags.
    for (size_t spin = 0;;) {
      if (lane.quarantine.load(std::memory_order_relaxed)) {
        tally.Flush(lane.ring.size());
        return false;
      }
      if (lane.ring.TryPop(item)) break;
      if (++spin <= kRingSpinIters) {
        CpuRelax();
        ++lane.spin_count;
        continue;
      }
      // Drain over: publish the accumulated counts before parking.
      tally.Flush(lane.ring.size());
      lane.idle.store(true, std::memory_order_relaxed);
      const uint64_t park_begin =
          tally.cell != nullptr ? obs::MonotonicNanos() : 0;
      {
        std::unique_lock<std::mutex> lk(lane.mu);
        lane.consumer_parked.store(true, std::memory_order_release);
        lane.cv.wait_for(lk, kParkPoll, [&] {
          return !lane.ring.Empty() ||
                 lane.quarantine.load(std::memory_order_relaxed);
        });
        lane.consumer_parked.store(false, std::memory_order_relaxed);
      }
      if (tally.cell != nullptr) {
        const uint64_t parked = obs::MonotonicNanos() - park_begin;
        tally.cell->parks.Add(1);
        tally.cell->park_ns.Add(parked);
        tally.cell->park_wait_ns.Record(parked);
      }
      lane.idle.store(false, std::memory_order_relaxed);
      spin = 0;
    }
    // The coordinator may be parked on a full ring.
    Wake(lane, lane.producer_parked);
    if (item->tag == LaneItem::Tag::kOps) return true;
    tally.Flush(lane.ring.size());
    if (item->tag == LaneItem::Tag::kStop) return false;
    // Barrier: arrive, then park until the coordinator resumes the epoch.
    // Quarantine breaks this park too: an aborted supervised barrier never
    // resumes the epoch, and teardown would otherwise join a parked thread.
    std::unique_lock<std::mutex> lk(coord_mu_);
    const uint64_t epoch = barrier_epoch_;
    ++barrier_arrived_;
    lane.at_barrier.store(true, std::memory_order_release);
    coord_cv_.notify_all();
    coord_cv_.wait(lk, [&] {
      return barrier_epoch_ != epoch ||
             lane.quarantine.load(std::memory_order_relaxed);
    });
    lane.at_barrier.store(false, std::memory_order_release);
  }
}

bool ShardLanes::HitWorkerFault(size_t shard) {
  auto fired = fault::Injector::Global().Hit(fault::Point::kWorkerOp, shard);
  if (!fired) return false;
  Lane& lane = lanes_[shard];
  const bool supervised = supervisor_ != nullptr;
  if (fired->kind == fault::Kind::kSlow) {
    std::this_thread::sleep_for(std::chrono::microseconds(fired->delay_us));
  } else if (supervised && fired->kind == fault::Kind::kCrash) {
    // Abrupt worker death: no cleanup, the op is lost mid-item. The
    // supervisor detects the dead flag, rebuilds this shard from its
    // recovery point, and replays the routed slice.
    lane.dead.store(true, std::memory_order_release);
    coord_cv_.notify_all();
    lane.cv.notify_all();
    return true;
  } else if (fired->kind == fault::Kind::kStall) {
    // Hang without heartbeating until quarantined: by the watchdog when
    // supervised, else by the teardown of a stopped run (an unsupervised
    // stall also ends at the stop request itself, so a stream that ends
    // before the ring fills does not join a parked worker forever).
    std::unique_lock<std::mutex> lk(lane.mu);
    while (!lane.cv.wait_for(lk, kParkPoll, [&] {
      return lane.quarantine.load(std::memory_order_relaxed) ||
             (!supervised && options_.StopRequested());
    })) {
    }
    return true;
  }
  // Other kinds are not meaningful at this point; ignore.
  return false;
}

void ShardLanes::PinWorker(size_t shard) {
  if (!options_.pin_threads) return;
  std::string warning;
#if defined(__linux__)
  const unsigned cores = std::thread::hardware_concurrency();
  if (cores < lanes_.size()) {
    warning = "--pin-threads: " + std::to_string(cores) + " core(s) for " +
              std::to_string(lanes_.size()) + " shards; pinning disabled";
  } else {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(shard % cores, &set);
    if (pthread_setaffinity_np(workers_[shard].native_handle(), sizeof(set),
                               &set) != 0) {
      warning =
          "--pin-threads: pthread_setaffinity_np failed; running unpinned";
    }
  }
#else
  warning = "--pin-threads is not supported on this platform; running unpinned";
#endif
  if (warning.empty() || pin_warned_) return;
  pin_warned_ = true;
  std::fprintf(stderr, "warning: %s\n", warning.c_str());
}

}  // namespace exec
}  // namespace aseq
