#ifndef ASEQ_OBS_TELEMETRY_H_
#define ASEQ_OBS_TELEMETRY_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace aseq {
namespace obs {

class TraceWriter;
class MetricsEmitter;

/// Monotonic nanoseconds since an arbitrary process-local epoch — the one
/// time base every telemetry record and trace span uses, so intervals
/// subtract directly.
inline uint64_t MonotonicNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief Log-bucketed HDR-style histogram with a lock-free single-writer
/// record path and a concurrent snapshot reader.
///
/// Bucketing: values below kSubBuckets are exact (one bucket per value);
/// above that, each power-of-two octave is split into kSubBuckets linear
/// sub-buckets, so the relative quantization error is bounded by
/// 1/kSubBuckets (6.25%) at every magnitude — the right trade for latency
/// distributions spanning nanoseconds to seconds.
///
/// Concurrency contract (deliberately narrower than a general-purpose
/// concurrent histogram, so the record path stays at a handful of
/// non-RMW atomic stores):
///   - Exactly ONE thread may call Record() at a time (each dataplane cell
///     is owned by its shard worker or by the coordinator).
///   - Any thread may call SnapshotInto() concurrently with the writer.
///     All fields are relaxed atomics: the reader sees a near-point-in-time
///     view (counts may trail the total by in-flight records), which the
///     emitter tolerates — every counter it derives is still monotonic
///     because the underlying cells only grow.
/// Merge() and Reset() require the writer quiescent.
class LogHistogram {
 public:
  static constexpr int kSubBucketBits = 4;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 16
  /// Values are clamped to 2^kMaxValueBits - 1 (~78 hours in ns): keeps the
  /// bucket array compact while covering any latency this runtime can see.
  static constexpr int kMaxValueBits = 48;
  static constexpr size_t kNumBuckets =
      static_cast<size_t>(kMaxValueBits - kSubBucketBits + 1) * kSubBuckets;

  /// Bucket index for a value (exact below kSubBuckets, log-linear above).
  static size_t BucketFor(uint64_t v) {
    if (v < kSubBuckets) return static_cast<size_t>(v);
    if (v >> kMaxValueBits) v = (uint64_t{1} << kMaxValueBits) - 1;
    const int msb = 63 - std::countl_zero(v);
    const int shift = msb - kSubBucketBits;
    const size_t sub = static_cast<size_t>(v >> shift) & (kSubBuckets - 1);
    return static_cast<size_t>(msb - kSubBucketBits + 1) * kSubBuckets + sub;
  }

  /// Smallest value mapping to `bucket` (the bucket's lower bound);
  /// BucketFor(BucketLowerBound(i)) == i for every valid index.
  static uint64_t BucketLowerBound(size_t bucket) {
    if (bucket < kSubBuckets) return bucket;
    const size_t block = bucket / kSubBuckets;       // msb - kSubBucketBits + 1
    const size_t sub = bucket % kSubBuckets;
    const int msb = static_cast<int>(block) + kSubBucketBits - 1;
    return (uint64_t{1} << msb) |
           (static_cast<uint64_t>(sub) << (msb - kSubBucketBits));
  }

  /// Largest value mapping to `bucket` (inclusive upper bound) — what the
  /// percentile readout reports, so a quantile never under-states.
  static uint64_t BucketUpperBound(size_t bucket) {
    return bucket + 1 < kNumBuckets ? BucketLowerBound(bucket + 1) - 1
                                    : (uint64_t{1} << kMaxValueBits) - 1;
  }

  LogHistogram() : counts_(new std::atomic<uint64_t>[kNumBuckets]{}) {}

  /// Single-writer record: plain add + relaxed store per field (no RMW —
  /// see the class contract), so a record is a few nanoseconds. The total
  /// count is not stored separately; SnapshotInto derives it from the
  /// bucket sum, which also guarantees a reader's quantile ranks always
  /// land inside a bucket.
  void Record(uint64_t value) {
    const size_t b = BucketFor(value);
    StoreAdd(counts_[b], 1);
    StoreAdd(sum_, value);
    if (value > max_.load(std::memory_order_relaxed)) {
      max_.store(value, std::memory_order_relaxed);
    }
  }

  /// Point-in-time copy for readout; safe against a concurrent writer.
  struct Snapshot {
    uint64_t count = 0;
    uint64_t sum = 0;
    uint64_t max = 0;
    std::vector<uint64_t> counts;  // kNumBuckets entries

    /// Value at quantile q in [0, 1]: upper bound of the bucket holding the
    /// ceil(q * count)-th observation (max-exact: q = 1 reports the bucket
    /// containing the true maximum). Zero when empty.
    uint64_t ValueAtQuantile(double q) const;
    double Mean() const {
      return count == 0 ? 0.0
                        : static_cast<double>(sum) / static_cast<double>(count);
    }
  };
  void SnapshotInto(Snapshot* snap) const;

  /// Folds `other` into this histogram. Both writers must be quiescent.
  void Merge(const LogHistogram& other);

  /// Writer-quiescent reset.
  void Reset();

 private:
  static void StoreAdd(std::atomic<uint64_t>& a, uint64_t n) {
    a.store(a.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
  }

  std::unique_ptr<std::atomic<uint64_t>[]> counts_;
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> max_{0};
};

/// \brief Single-writer monotonic counter with concurrent relaxed readers
/// (the same non-RMW store protocol as LogHistogram).
class Counter {
 public:
  void Add(uint64_t n) {
    v_.store(v_.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
  }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief Last-value gauge, same writer/reader contract as Counter.
class Gauge {
 public:
  void Set(uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> v_{0};
};

/// \brief One shard worker's metric cell. Cache-line-aligned and padded so
/// two workers (or a worker and the coordinator) never share a line.
/// Writer: the owning shard worker only. Readers: the emitter thread and
/// the end-of-run summary.
struct alignas(64) ShardCell {
  /// Ops executed (events + purge markers).
  Counter ops;
  /// Events executed (ops minus markers).
  Counter events;
  /// Outputs produced.
  Counter outputs;
  /// LaneItems (publications) drained.
  Counter items;
  /// Times the worker gave up its spin budget and parked idle.
  Counter parks;
  /// Wall nanoseconds spent executing ops (the busy time).
  Counter busy_ns;
  /// Wall nanoseconds spent parked waiting for work.
  Counter park_ns;
  /// Ring occupancy (queued items) observed by the worker after each drain.
  Gauge ring_occupancy;
  /// Per-op service time: each drained item records its elapsed / op count
  /// once, so the record cost amortizes over the item (the clock reads
  /// already exist for busy-time accounting).
  LogHistogram op_service_ns;
  /// Park durations (idle waits; supervised waits poll, so one park can
  /// span several poll rounds).
  LogHistogram park_wait_ns;
  /// Trigger-to-output latency: publication of an op's batch to the
  /// completion of the drained item that produced the outputs (the point
  /// where the outputs are visible to the collector). Recorded once per
  /// output-producing item, from timing the busy accounting already pays
  /// for — no extra clock read on the hot path.
  LogHistogram trigger_latency_ns;
  char pad_[64];
};

/// \brief The coordinator's metric cell (router/admission + barriers +
/// ring publication). Writer: the coordinator thread only.
struct alignas(64) CoordCell {
  /// Batches routed.
  Counter batches;
  /// Events admitted into routing.
  Counter events;
  /// Publications pushed (one per shard per batch with ops).
  Counter publications;
  /// Pushes that found a lane's ring full and waited (counted as the wait
  /// begins, so a reader sees a coordinator parked on backpressure).
  Counter ring_full_waits;
  /// Barriers completed (checkpoints + recovery points).
  Counter barriers;
  /// Checkpoints flushed through the snapshot layer.
  Counter checkpoints;
  /// Batch-admission latency: RouteBatch (vectorized prefilter + compiled
  /// admission + hash routing) per batch. For serial runs this is the whole
  /// OnBatch call (admission + execution are fused there).
  LogHistogram admit_ns;
  /// Barrier durations (first token enqueued to all workers parked).
  LogHistogram barrier_ns;
  /// Ring occupancy observed at each publication, per-shard values folded
  /// into one distribution (the backpressure profile of the dataplane).
  LogHistogram ring_occupancy;
  char pad_[64];
};

/// \brief The run's telemetry registry: per-shard cells plus the
/// coordinator cell, allocated once per run setup (cells are stable for
/// the registry's lifetime — threads keep raw references).
///
/// Ownership: the CLI (or a test/bench harness) builds one, hangs the
/// optional TraceWriter/MetricsEmitter off it, and passes it through
/// RunOptions::telemetry; executors treat a null pointer as "telemetry
/// off" and skip every record site.
class Telemetry {
 public:
  explicit Telemetry(size_t num_shards)
      : num_shards_(num_shards == 0 ? 1 : num_shards),
        shards_(new ShardCell[num_shards == 0 ? 1 : num_shards]),
        start_ns_(MonotonicNanos()) {}

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  size_t num_shards() const { return num_shards_; }
  ShardCell& shard(size_t i) { return shards_[i < num_shards_ ? i : 0]; }
  const ShardCell& shard(size_t i) const {
    return shards_[i < num_shards_ ? i : 0];
  }
  CoordCell& coord() { return coord_; }
  const CoordCell& coord() const { return coord_; }

  /// The run's telemetry epoch; trace timestamps and emitter intervals are
  /// offsets from it.
  uint64_t start_ns() const { return start_ns_; }

  /// Optional sinks, wired by the owner. Executors and the checkpoint
  /// observer null-check before use.
  TraceWriter* trace() const { return trace_; }
  void set_trace(TraceWriter* t) { trace_ = t; }
  MetricsEmitter* emitter() const { return emitter_; }
  void set_emitter(MetricsEmitter* e) { emitter_ = e; }

 private:
  size_t num_shards_;
  std::unique_ptr<ShardCell[]> shards_;
  CoordCell coord_;
  uint64_t start_ns_;
  TraceWriter* trace_ = nullptr;
  MetricsEmitter* emitter_ = nullptr;
};

}  // namespace obs
}  // namespace aseq

#endif  // ASEQ_OBS_TELEMETRY_H_
