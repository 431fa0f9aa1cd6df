// Dataplane dispatch gate: the sharded executor's coordinator→worker
// handoff protocol (SPSC ring + parked-flag wake, exec/spsc_ring.h,
// docs/internals.md §16) and the cost of recording telemetry on it.
//
// A threaded throughput number on a shared host would only measure the
// scheduler. Instead the gate replays the exact per-publication
// synchronization sequence of the dataplane single-threaded and
// deterministic — same item payloads, same burst/drain cadence, same
// result-slot handback — and times each pass against a reference pass in
// the same process (MeasurePaired, bench_util.h):
//
//   dispatch_ring  — the live protocol: op words swapped into the lane's
//                    next result slot, SpscRing TryPush/TryPop plus the
//                    parked-flag wake check, and the slot handed back by
//                    the lane's finished count; timed against the same
//                    pass through a plain unsynchronized ring
//                    (dispatch_plain), so the ratio is the ring's cost
//   dispatch_ring_clock
//                  — the ring protocol plus synthetic per-op work and the
//                    per-item busy-time StopWatch the live worker has had
//                    since PR 8 (telemetry off: elapsed folds into a
//                    double); timed against the same work through the
//                    plain ring without the StopWatch (dispatch_work)
//   dispatch_ring_metrics
//                  — the clock pass recording every telemetry cell site the
//                    live hot path hits when --metrics-out is given
//                    (obs::ShardCell/CoordCell counters, gauges, and
//                    histograms; docs/internals.md §17); its throughput
//                    must stay >= 0.97x dispatch_ring_clock's (PR 9's
//                    <= 3% telemetry-overhead acceptance)
//
// Whether the sharded dataplane pays end to end is measured by perfbench's
// stock_grouped_shard2 workload (process wall, trace in, results out), not
// here.

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <optional>
#include <vector>

#include "bench/bench_util.h"
#include "exec/spsc_ring.h"
#include "metrics/metrics.h"
#include "obs/telemetry.h"

namespace aseq {
namespace bench {
namespace {

/// Mirrors the executor's LaneItem: a tag plus the result slot that holds
/// the item's ops.
struct Item {
  uint64_t tag = 0;
  uint32_t slot = 0;
};

constexpr size_t kLanes = 8;          // the acceptance point: 8 shards
constexpr size_t kCapacity = 64;      // ShardLanes::kMaxQueuedItems
constexpr size_t kSlots = 2 * kCapacity;  // ShardLanes::kDoneSlots
constexpr size_t kBurst = 12;         // the default overload watermark
constexpr size_t kOpsPerItem = 8;     // ops per publication

/// The reference ring: the same slots and indices as SpscRing, with plain
/// loads and stores in place of its acquire/release pairs.
class PlainRing {
 public:
  explicit PlainRing(size_t capacity) : slots_(capacity) {}
  bool TryPush(Item& item) {
    if (tail_ - head_ == slots_.size()) return false;
    slots_[tail_++ % slots_.size()] = item;
    return true;
  }
  bool TryPop(Item* out) {
    if (head_ == tail_) return false;
    *out = slots_[head_++ % slots_.size()];
    return true;
  }
  size_t size() const { return tail_ - head_; }

 private:
  std::vector<Item> slots_;
  size_t head_ = 0;
  size_t tail_ = 0;
};

/// The live protocol: ring push/pop plus the parked-flag wake check
/// (nobody is ever parked here, which is also the live fast path), and
/// the result slots with their finished count. The op payload is a
/// stand-in of the same shape as the executor's op words.
template <class Ring>
struct RingLane {
  Ring ring{kCapacity};
  std::vector<std::vector<uint64_t>> slots =
      std::vector<std::vector<uint64_t>>(kSlots);
  std::atomic<uint64_t> finished{0};
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> consumer_parked{false};
  std::atomic<bool> producer_parked{false};
  // Coordinator side: the routed ops and the lane's ledger.
  std::vector<uint64_t> pending;
  uint64_t published = 0;
  uint64_t collected = 0;

  /// The coordinator's publication up to the push: collect the finished
  /// slots, then swap the routed ops into the next slot (FlushPending).
  void FillNextSlot(Item* item, uint64_t round) {
    collected = finished.load(std::memory_order_acquire);
    item->slot = static_cast<uint32_t>(published % kSlots);
    pending.resize(kOpsPerItem, round);
    slots[item->slot].swap(pending);
    pending.clear();
  }
  /// The coordinator's push, spinning while the ring is full (never, since
  /// a burst fits), then the wake check.
  void Push(Item& item) {
    while (!ring.TryPush(item)) {
      exec::CpuRelax();
    }
    ++published;
    if (consumer_parked.load(std::memory_order_acquire)) {
      { std::lock_guard<std::mutex> lk(mu); }
      cv.notify_all();
    }
  }
  /// The worker's pop and wake check.
  void Pop(Item* item) {
    while (!ring.TryPop(item)) {
      exec::CpuRelax();
    }
    if (producer_parked.load(std::memory_order_acquire)) {
      { std::lock_guard<std::mutex> lk(mu); }
      cv.notify_all();
    }
  }
  /// The worker's handback once the slot's ops ran
  /// (ShardLanes::Lane::CountFinished).
  void CountFinished() {
    finished.store(finished.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  }
};

/// Protocol only: dispatch_ring with the SpscRing, dispatch_plain with the
/// PlainRing.
template <class Ring>
double DispatchPass(size_t rounds) {
  std::vector<RingLane<Ring>> lanes(kLanes);
  Item item;
  StopWatch watch;
  for (size_t r = 0; r < rounds; ++r) {
    for (auto& lane : lanes) {
      for (size_t b = 0; b < kBurst; ++b) {
        item.tag = r;
        lane.FillNextSlot(&item, r);
        lane.Push(item);
      }
    }
    for (auto& lane : lanes) {
      for (size_t b = 0; b < kBurst; ++b) {
        lane.Pop(&item);
        lane.CountFinished();
      }
    }
  }
  return watch.ElapsedSeconds();
}

/// Both passes below "execute" work alongside the protocol, calibrated
/// against the live telemetry's own measurements on the acceptance
/// workload: a dependent-multiply chain of ~90 ns per op on the consumer
/// side (the engine's measured mean op service time) and ~23 ns per op on
/// the producer side (the coordinator's measured admission+routing cost
/// per event). The telemetry records amortize over real per-item work in
/// production, and gating the bare protocol would measure a hot path that
/// does not exist.
template <int kIters>
uint64_t ExecuteOps(const std::vector<uint64_t>& ops, uint64_t seed) {
  uint64_t x = seed;
  for (uint64_t op : ops) {
    x ^= op;
    for (int i = 0; i < kIters; ++i) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    }
  }
  return x;
}
constexpr int kConsumerOpIters = 64;  // ~90 ns/op on the CI reference host
constexpr int kProducerOpIters = 16;  // ~23 ns/op admission+routing

/// The ring protocol with the work above: dispatch_ring_clock (SpscRing,
/// plus the per-item busy-time StopWatch, recording nothing — telemetry
/// off: elapsed folds into a double, exactly the live null-telemetry
/// branch) and its reference dispatch_work (PlainRing, no StopWatch).
template <class Ring, bool kClock>
double WorkPass(size_t rounds) {
  std::vector<RingLane<Ring>> lanes(kLanes);
  Item item;
  double busy_acc = 0;
  uint64_t sink = 0;
  StopWatch watch;
  for (size_t r = 0; r < rounds; ++r) {
    // Producer side batch-major: one "batch" per b publishes to every
    // lane, the live coordinator's publication pattern.
    for (size_t b = 0; b < kBurst; ++b) {
      for (auto& lane : lanes) {
        item.tag = r;
        lane.FillNextSlot(&item, r);
        sink ^= ExecuteOps<kProducerOpIters>(lane.slots[item.slot], r);
        lane.Push(item);
      }
    }
    for (auto& lane : lanes) {
      for (size_t b = 0; b < kBurst; ++b) {
        lane.Pop(&item);
        std::optional<StopWatch> item_watch;
        if constexpr (kClock) item_watch.emplace();
        sink ^= ExecuteOps<kConsumerOpIters>(lane.slots[item.slot], r);
        lane.CountFinished();
        if constexpr (kClock) {
          busy_acc += static_cast<double>(item_watch->ElapsedNanos()) * 1e-9;
        }
      }
    }
  }
  // Keep the accumulators observable so the folds aren't optimized away.
  if (busy_acc < 0 || sink == 1) std::fprintf(stderr, "impossible\n");
  return watch.ElapsedSeconds();
}

/// dispatch_ring_metrics: the clock pass recording every hot-path cell
/// site the live worker/coordinator hit when telemetry is on (counters,
/// gauges, two histograms, plus the trigger-latency clock read on
/// output-producing items, here every 4th). The clock reads exist in both
/// passes, so the measured delta is purely the obs::*Cell store cost — the
/// quantity the <= 3% acceptance gate bounds.
double MetricsPass(size_t rounds) {
  std::vector<RingLane<exec::SpscRing<Item>>> lanes(kLanes);
  obs::Telemetry tel(kLanes);
  Item item;
  double busy_acc = 0;
  uint64_t sink = 0;
  StopWatch watch;
  for (size_t r = 0; r < rounds; ++r) {
    for (size_t b = 0; b < kBurst; ++b) {
      // One shared publish timestamp per batch, exactly like RunImpl's
      // hoisted clock read covering every lane's publication.
      const uint64_t publish_ns = obs::MonotonicNanos();
      // One rotating occupancy sample per batch (RunImpl's occ_rotor).
      const size_t occ_lane = b % kLanes;
      for (size_t l = 0; l < kLanes; ++l) {
        auto& lane = lanes[l];
        // The coordinator's per-publication sites: publications counter,
        // sampled occupancy histogram, shared publish timestamp.
        tel.coord().publications.Add(1);
        if (l == occ_lane) tel.coord().ring_occupancy.Record(lane.ring.size());
        item.tag = publish_ns;
        lane.FillNextSlot(&item, r);
        sink ^= ExecuteOps<kProducerOpIters>(lane.slots[item.slot], r);
        lane.Push(item);
      }
    }
    for (size_t l = 0; l < kLanes; ++l) {
      auto& lane = lanes[l];
      obs::ShardCell& cell = tel.shard(l);
      // The live worker's per-drain accumulators (see WorkerMain): the
      // hot loop adds into locals; the shared cell takes one batch of
      // relaxed stores when the drain ends.
      uint64_t acc_items = 0, acc_ops = 0, acc_events = 0, acc_outputs = 0,
               acc_busy_ns = 0;
      for (size_t b = 0; b < kBurst; ++b) {
        lane.Pop(&item);
        StopWatch item_watch;
        sink ^= ExecuteOps<kConsumerOpIters>(lane.slots[item.slot], r);
        lane.CountFinished();
        const uint64_t busy = item_watch.ElapsedNanos();
        busy_acc += static_cast<double>(busy) * 1e-9;
        ++acc_items;
        acc_ops += kOpsPerItem;
        acc_events += kOpsPerItem;
        if ((b & 3) == 0) ++acc_outputs;
        acc_busy_ns += busy;
        cell.op_service_ns.Record(busy / kOpsPerItem);
        if ((b & 3) == 0) {  // "this item produced outputs" sites
          // Publication-to-item-completion, reconstructed from the busy
          // StopWatch — no extra clock read (see WorkerMain).
          cell.trigger_latency_ns.Record(item_watch.StartNanos() + busy -
                                         item.tag);
        }
      }
      // Drain-boundary cell flush, exactly like WorkerMain's flush_cell.
      cell.items.Add(acc_items);
      cell.ops.Add(acc_ops);
      cell.events.Add(acc_events);
      if (acc_outputs > 0) cell.outputs.Add(acc_outputs);
      cell.busy_ns.Add(acc_busy_ns);
      cell.ring_occupancy.Set(lane.ring.size());
    }
  }
  if (busy_acc < 0 || sink == 1) std::fprintf(stderr, "impossible\n");
  return watch.ElapsedSeconds();
}

// Rounds per pass: a protocol-only pass is ~3 ms, a pass with work
// ~30 ms, so a regime shift rarely splits a pair.
constexpr size_t kDispatchRounds = 2000;
constexpr size_t kWorkRounds = 400;

// Bounds on the median per-pair ratios (EXPERIMENTS.md has the readings).
constexpr double kRingBound = 1.12;  // dispatch_ring / dispatch_plain time
constexpr double kClockBound = 1.25;  // dispatch_ring_clock / dispatch_work
constexpr double kMetricsFloor = 0.97;  // metrics / clock throughput

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  using namespace aseq::bench;
  using aseq::exec::SpscRing;
  // At least 96 pairs by default: the median needs enough samples that
  // outlier pairs — a pass preempted mid-chunk — stay a minority. At 48
  // pairs the metrics/clock median still wobbled ~1% on a half-loaded
  // core; at 96 it holds within ~0.5%.
  const GateFlags flags = ParseGateFlags(argc, argv, /*default_reps=*/96);
  std::printf("dataplane dispatch gate: pairs=%d warmup=%d lanes=%zu "
              "burst=%zu ops/item=%zu\n",
              flags.reps, flags.warmup, kLanes, kBurst, kOpsPerItem);
  // One round runs the five passes in this order.
  enum { kRing, kPlain, kClock, kWork, kMetrics };
  const char* const names[] = {"dispatch_ring", "dispatch_plain",
                               "dispatch_ring_clock", "dispatch_work",
                               "dispatch_ring_metrics"};
  const PairedRun run = MeasurePaired(
      {[] { return DispatchPass<SpscRing<Item>>(kDispatchRounds); },
       [] { return DispatchPass<PlainRing>(kDispatchRounds); },
       [] { return WorkPass<SpscRing<Item>, true>(kWorkRounds); },
       [] { return WorkPass<PlainRing, false>(kWorkRounds); },
       [] { return MetricsPass(kWorkRounds); }},
      flags.warmup, flags.reps);
  for (int p = kRing; p <= kMetrics; ++p) {
    std::printf("  %-22s median %9.6f s\n", names[p], run.MedianSeconds(p));
  }
  bool ok = CheckRatio("dispatch_ring/dispatch_plain time",
                       run.Ratio(kRing, kPlain), kRingBound,
                       /*floor=*/false);
  ok = CheckRatio("dispatch_ring_clock/dispatch_work time",
                  run.Ratio(kClock, kWork), kClockBound, /*floor=*/false) &&
       ok;
  // Throughput ratio metrics/clock is the time ratio clock/metrics.
  ok = CheckRatio("dispatch_ring_metrics/clock throughput",
                  run.Ratio(kClock, kMetrics), kMetricsFloor,
                  /*floor=*/true) &&
       ok;
  return ok ? 0 : 1;
}
