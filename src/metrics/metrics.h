#ifndef ASEQ_METRICS_METRICS_H_
#define ASEQ_METRICS_METRICS_H_

#include <cassert>
#include <chrono>
#include <cstdint>
#include <iterator>

namespace aseq {

/// \brief Live/peak object accounting.
///
/// Reproduces the paper's memory metric (Sec. 6.1): "the maximum number of
/// active Java objects or references". Engines report every unit of live
/// state through this counter — the stack-based baseline counts stacked
/// event references, adjacency pointers, and retained (partial) matches;
/// A-Seq engines count live prefix-counter cells.
class ObjectCounter {
 public:
  void Add(int64_t n) {
    current_ += n;
    if (current_ > peak_) peak_ = current_;
    if (current_ > window_peak_) window_peak_ = current_;
  }
  void Remove(int64_t n) {
    current_ -= n;
    // Live-object accounting must never go negative: a negative count means
    // an engine removed state it never added (double-purge, lost Add).
    assert(current_ >= 0 &&
           "ObjectCounter::Remove drove the live count negative");
  }

  /// Moves the live count to `current` in one step, for an engine that
  /// samples its live state once per event instead of counting each Add.
  /// The peak follows; the window peak does not, since a sample is a
  /// boundary value, never a mid-event maximum.
  void Sample(int64_t current) {
    assert(current >= 0 && "ObjectCounter::Sample of a negative count");
    current_ = current;
    if (current_ > peak_) peak_ = current_;
  }

  int64_t current() const { return current_; }
  int64_t peak() const { return peak_; }

  /// Opens a peak-observation window: window_peak() then reports the
  /// maximum the live count reaches from this point on. The sharded
  /// executor opens one window per event so the cross-shard stats merge
  /// can reconstruct the serial global peak exactly — a shard's peak may
  /// occur mid-event, between an Add and the purges a later probe runs.
  void BeginPeakWindow() { window_peak_ = current_; }
  int64_t window_peak() const { return window_peak_; }

  /// Overwrites both counters from a checkpoint. Engines restore stats
  /// wholesale after rebuilding their state structures, whose constructors
  /// would otherwise have double-counted the rebuilt objects.
  void RestoreCounts(int64_t current, int64_t peak) {
    assert(current >= 0 && peak >= current &&
           "restored object counters are inconsistent");
    current_ = current;
    peak_ = peak;
    window_peak_ = current;
  }

 private:
  int64_t current_ = 0;
  int64_t peak_ = 0;
  /// Maximum since the last BeginPeakWindow (see above); transient — not
  /// checkpointed, not compared by the equivalence tests.
  int64_t window_peak_ = 0;
};

/// \brief Per-engine execution statistics.
///
/// Two kinds of counter live here side by side. The first eight values
/// (events, outputs, work units, live and peak objects, batches, largest
/// batch, drops) are the paper's run metrics (Sec. 6.1) and the
/// checkpointed equivalence contract. Every other counter is a transient
/// diagnostic. kStatsFields below is the one place a counter is declared:
/// its row gives the --stats-json key, the shard-merge rule, the
/// composite-part rule and whether it is checkpointed, and the shard
/// merge, the composite fold, the JSON dump and the snapshot codec all
/// read that row. A new counter is a member here, a row there, and the
/// code that counts it.
struct EngineStats {
  /// Events consumed (== window slides, since the window slides on every
  /// arrival per the paper's window semantics).
  uint64_t events_processed = 0;
  /// Aggregation results delivered (TRIG outputs, per group).
  uint64_t outputs = 0;
  /// Elementary work units: counter updates for A-Seq, stack pushes +
  /// DFS edge visits + match constructions for the baseline. A
  /// hardware-independent CPU-cost proxy.
  uint64_t work_units = 0;
  /// Live/peak state objects (see ObjectCounter).
  ObjectCounter objects;
  /// Batches consumed through OnBatch (OnEvent counts a batch of one; runs
  /// that batch a stream differently are otherwise stat-identical).
  uint64_t batches_processed = 0;
  /// Largest batch seen by OnBatch.
  uint64_t max_batch_events = 0;
  /// Events discarded before reaching the engine — today that is late
  /// arrivals past the K-slack bound in the reordering layer. Anything
  /// dropped must be visible here, never silently swallowed.
  uint64_t dropped_events = 0;

  // ---- Flat partition-store diagnostics (src/container/) ----
  //
  // Transient: probe lengths depend on the physical table layout, which a
  // restore rebuilds from the canonical snapshot order rather than
  // replaying the original insert/erase history.
  /// Lookups issued against the engine's open-addressing tables.
  uint64_t ht_probes = 0;
  /// Total probe steps across those lookups (1 step = a direct hit; the
  /// average ht_probe_steps / ht_probes is the probe-length health metric).
  uint64_t ht_probe_steps = 0;
  /// Current slot capacity across the engine's flat tables (load factor =
  /// ht_entries / ht_slots).
  uint64_t ht_slots = 0;
  /// Current live entries across the engine's flat tables.
  uint64_t ht_entries = 0;

  // ---- Admission diagnostics (src/plan/) ----
  /// (event, role) pairs admitted: qualified, carrier-valid, and with a
  /// complete partition key.
  uint64_t adm_admitted = 0;
  /// (event, role) pairs rejected by a local predicate (including a
  /// missing/non-numeric aggregate-carrier attribute).
  uint64_t adm_rejected_local = 0;
  /// (event, role) pairs dropped because a covering partition part's
  /// attribute was missing or null.
  uint64_t adm_missing_attr = 0;
  /// Comparisons that took the generic EvalCmp fallback instead of a typed
  /// opcode (mixed-type operands, attr-vs-attr terms, missing attributes).
  uint64_t adm_generic_cmps = 0;

  // ---- Supervised-runtime fault/overload counters (src/fault/, exec/) ----
  //
  // The executor owns them, engines never touch them. shed_events is
  // deliberately separate from dropped_events: dropped_events is part of
  // the durable equivalence contract, while shedding is a live-overload
  // response whose accounting must not perturb checkpointed state.
  /// Faults fired by the process-wide fault::Injector during the run.
  uint64_t fault_injected = 0;
  /// Shard workers restarted by the supervisor after a crash or stall.
  uint64_t fault_restarts = 0;
  /// Events re-executed from supervisor replay logs during restarts.
  uint64_t fault_replayed_events = 0;
  /// Partitions (GROUP BY keys) dropped by the shed overload policy.
  uint64_t shed_partitions = 0;
  /// Events discarded because their partition was shed.
  uint64_t shed_events = 0;
  /// Full-drain stalls taken by the degrade-serial overload policy.
  uint64_t overload_stalls = 0;

  // ---- Sharded dataplane counters (src/exec/, docs/internals.md §16) ----
  //
  // Counted by the sharded coordinator and its lanes; serial runs leave
  // them zero.
  /// Chunked route publications: one per shard per batch that had ops for
  /// that shard (the unit of coordinator→worker synchronization).
  uint64_t pub_batches = 0;
  /// Publications that found the lane's ring full and had to wait for the
  /// worker (the dataplane's backpressure signal).
  uint64_t ring_full_waits = 0;
  /// Spin iterations burned in the rings' spin-then-park protocols before
  /// parking, summed over the coordinator and every worker.
  uint64_t ring_spins = 0;

  /// Records one OnBatch call of `n` events.
  void NoteBatch(size_t n) {
    ++batches_processed;
    if (n > max_batch_events) max_batch_events = n;
  }
};

/// How a counter combines across the shards of a sharded run:
///  * kShardSum — summed. Each serial event is charged on exactly one
///    shard (purge markers never reach admission), or the count does not
///    depend on purge timing (work units: a counter mutation always
///    follows a purge to the event's timestamp), so the sum is the serial
///    value. The ht_* rows sum each shard's own tables, whose probe
///    lengths may differ from a serial run's;
///  * kShardMax — the largest shard value (a high-water mark);
///  * kCoordinatorOwned — the executor's own count, which engines never
///    write; FoldCoordinatorStats sets it, serial or sharded alike;
///  * kObjectTimeline — live and peak objects: a sum of per-shard peaks
///    overestimates the serial peak, so StatsTimelineMerger
///    (shard_stats.h) replays them.
enum StatsShardRule : uint8_t {
  kShardSum,
  kShardMax,
  kCoordinatorOwned,
  kObjectTimeline,
};

/// How a composite engine's counter (src/multi/composite_engine.h)
/// relates to its parts': kSumOfParts is the sum of the parts' counts;
/// kCompositeOwn is the composite's own count (it sees each event once,
/// samples the parts' combined live objects per event, owns its batches).
enum StatsPartRule : uint8_t { kSumOfParts, kCompositeOwn };

/// \brief One EngineStats counter's row in kStatsFields.
struct StatsField {
  /// The --stats-json key: the member's name, or objects_current/_peak.
  const char* key;
  /// The counter; null for the objects rows, which read `object`.
  uint64_t EngineStats::*field;
  StatsShardRule shard;
  StatsPartRule part;
  /// The counter's name in snapshot decode errors; null for a transient
  /// counter. A checkpointed counter is part of the equivalence contract.
  const char* ckpt;
  int64_t (ObjectCounter::*object)() const = nullptr;

  uint64_t Get(const EngineStats& s) const {
    return field != nullptr ? s.*field
                            : static_cast<uint64_t>((s.objects.*object)());
  }
};

/// A row whose --stats-json key is the member's name.
#define ASEQ_STAT(member, shard, part, ckpt) \
  StatsField { #member, &EngineStats::member, shard, part, ckpt }

/// Every EngineStats counter, once, in --stats-json and snapshot order. The
/// checkpointed rows are written as 8-byte words in this order (the
/// objects current row before the peak row).
inline constexpr StatsField kStatsFields[] = {
    ASEQ_STAT(events_processed, kShardSum, kCompositeOwn, "stats.events"),
    ASEQ_STAT(outputs, kShardSum, kCompositeOwn, "stats.outputs"),
    ASEQ_STAT(work_units, kShardSum, kSumOfParts, "stats.work_units"),
    {"objects_current", nullptr, kObjectTimeline, kCompositeOwn,
     "stats.objects.current", &ObjectCounter::current},
    {"objects_peak", nullptr, kObjectTimeline, kCompositeOwn,
     "stats.objects.peak", &ObjectCounter::peak},
    ASEQ_STAT(batches_processed, kShardSum, kCompositeOwn, "stats.batches"),
    ASEQ_STAT(max_batch_events, kShardMax, kCompositeOwn, "stats.max_batch"),
    ASEQ_STAT(dropped_events, kShardSum, kCompositeOwn, "stats.dropped"),
    ASEQ_STAT(ht_probes, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(ht_probe_steps, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(ht_slots, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(ht_entries, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(adm_admitted, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(adm_rejected_local, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(adm_missing_attr, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(adm_generic_cmps, kShardSum, kSumOfParts, nullptr),
    ASEQ_STAT(fault_injected, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(fault_restarts, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(fault_replayed_events, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(shed_partitions, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(shed_events, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(overload_stalls, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(pub_batches, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(ring_full_waits, kCoordinatorOwned, kCompositeOwn, nullptr),
    ASEQ_STAT(ring_spins, kCoordinatorOwned, kCompositeOwn, nullptr),
};

#undef ASEQ_STAT

// A member without a row (or a row too many) fails here.
static_assert(sizeof(EngineStats) ==
              sizeof(ObjectCounter) +
                  (std::size(kStatsFields) - 2) * sizeof(uint64_t));

/// Sets the coordinator-owned rows of `merged` from `coordinator`, the
/// executor's own counts for the run.
inline void FoldCoordinatorStats(const EngineStats& coordinator,
                                 EngineStats* merged) {
  for (const StatsField& f : kStatsFields) {
    if (f.shard == kCoordinatorOwned) merged->*f.field = coordinator.*f.field;
  }
}

/// \brief What a trace source's ingest layer did in a run (src/stream/
/// trace_io.h): the `ingest` object of --stats-json. Observe-only.
struct IngestStats {
  /// Parser threads the source ran (0: every chunk parsed inline).
  uint64_t parse_threads = 0;
  /// Chunks the consumer took, in order.
  uint64_t chunks = 0;
  /// Trace bytes read.
  uint64_t bytes = 0;
  /// Time BorrowBatch spent waiting for a parser to finish a chunk.
  double consumer_wait_s = 0;
  /// Parse time summed over every thread that parsed (inline parses too).
  double parse_busy_s = 0;
  /// Chunks whose events carried chunk-local name ids the consumer
  /// rewrote (names first seen before the parsers' name table had them).
  uint64_t remapped_chunks = 0;
  /// Attribute values converted and stored, and values only validated
  /// because no query reads them (always 0 without a read set).
  uint64_t values_parsed = 0;
  uint64_t values_skipped = 0;
};

/// \brief Where a sharded run's coordinator thread spent its time: the
/// `coordinator` object of --stats-json. One clock read per phase per
/// batch; observe-only.
struct CoordinatorStats {
  /// Routing and op assembly: admission, shard choice, the copy of each
  /// routed event into its shared batch.
  double route_s = 0;
  /// Ring publication, including waits on a full ring.
  double publish_s = 0;
  /// Collecting drained items and merging their outputs and object
  /// records into the sink and the stats merger.
  double merge_s = 0;
  /// Events of types no query names: never shipped to a lane.
  uint64_t unshipped_events = 0;
};

/// \brief Wall-clock stopwatch (steady clock).
class StopWatch {
 public:
  StopWatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  /// Elapsed seconds since construction/restart.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Elapsed milliseconds since construction/restart.
  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

  /// Elapsed whole nanoseconds since construction/restart — the integral
  /// form the telemetry histograms record (src/obs/), avoiding a
  /// double round-trip on the dataplane hot path.
  uint64_t ElapsedNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start_)
            .count());
  }

  /// Construction/restart instant on the steady-clock epoch — the same
  /// time base as obs::MonotonicNanos(), so StartNanos() + ElapsedNanos()
  /// reconstructs an absolute end timestamp without a third clock read.
  uint64_t StartNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            start_.time_since_epoch())
            .count());
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace aseq

#endif  // ASEQ_METRICS_METRICS_H_
