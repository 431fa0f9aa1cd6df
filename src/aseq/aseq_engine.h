#ifndef ASEQ_ASEQ_ASEQ_ENGINE_H_
#define ASEQ_ASEQ_ASEQ_ENGINE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "aseq/counter_set.h"
#include "common/status.h"
#include "container/key_interner.h"
#include "engine/engine.h"
#include "plan/admission.h"
#include "query/compiled_query.h"
#include "state/partition_store.h"
#include "state/window_clock.h"

namespace aseq {

/// \brief The single-query A-Seq engine for unpartitioned queries:
/// Dynamic Prefix Counting (Sec. 3.1) for unbounded windows, Start Event
/// Marking (Sec. 3.2) for sliding windows, with negation via the
/// Recounting Rule (Sec. 3.3) and local predicates pushed in front.
///
/// No sequence match is ever constructed: each event updates O(1) cells in
/// each live prefix counter and is immediately discarded.
class AseqEngine : public QueryEngine {
 public:
  explicit AseqEngine(CompiledQuery query);

  /// Hoists the window-expiry check out of the per-event loop via a
  /// cached next-expiry lower bound (purge calls that would be no-ops are
  /// skipped, so state and stats do not depend on the batching) and
  /// dispatches roles through a flat per-type table instead of a hash
  /// probe.
  void OnBatch(std::span<const Event> batch, std::vector<Output>* out) override;
  std::vector<Output> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override {
    return query_.has_window() ? "A-Seq(SEM)" : "A-Seq(DPC)";
  }

  const CompiledQuery& query() const { return query_; }

  /// Number of live prefix counters (testing hook).
  size_t num_counters() const { return counters_.num_counters(); }

 private:
  /// Role dispatch + trigger handling for one event; the caller has
  /// already ensured expired counters are purged as of e.ts().
  void ProcessEvent(const Event& e, std::vector<Output>* out);

  CompiledQuery query_;
  EngineStats stats_;
  size_t length_;        // L: number of positive elements
  size_t carrier_pos1_;  // 1-based aggregate carrier position; 0 for COUNT
  CounterSet counters_;
  /// Compiled admission program (src/plan/): dense EventTypeId-indexed
  /// role dispatch + typed local-predicate opcodes + fused carrier load.
  /// Borrows query_'s predicate storage — declared after it.
  plan::AdmissionProgram program_;
};

/// \brief The partitioned A-Seq engine: Hashed Prefix Counters (Sec. 3.4)
/// for equivalence predicates and GROUP BY.
///
/// Each distinct partition key owns a CounterSet; positive instances route
/// to their partition, negated instances invalidate the partitions matching
/// on the key parts that constrain them.
///
/// Execution is staged through the compiled admission layer (src/plan/):
/// plan::BatchAdmitter::AdmitBatch qualifies, extracts, and *interns*
/// every partition key of a batch up front (each distinct key Value maps
/// to a dense uint32_t id, so a staged key is a fixed-size id array — no
/// Value copies or allocations), PrefetchIndex/PrefetchPartitions issue
/// DRAMHiT-style software prefetches for the flat-table slots the batch
/// will probe, and ExecuteEvent replays the staged records in arrival
/// order.
///
/// State lives in the partition-state spine (src/state/): a
/// state::PartitionStore of Partition entries (interned keys, slab slots
/// as the observable iteration order, dense single-part index) and a
/// state::WindowClock driving lazy window expiry on the COUNT fast path.
/// Every observable sweep (ScanTotal's SUM/AVG merge order, Poll's
/// per-group output order, partial-negation scans) walks ascending slot
/// order, and checkpoints carry the exact slab geometry so restores
/// reproduce it byte-for-byte.
///
/// Each partition key owns disjoint state, so the executor can split the
/// partition store across N twin instances by GROUP BY key (the grouped
/// sharing engines shard the same way). The only cross-partition coupling
/// is window expiry at trigger time, which ShardableEngine::SyncPurgeTo
/// replicates on the shards that do not own the trigger.
class HpcEngine : public QueryEngine, public ShardableEngine {
 public:
  explicit HpcEngine(CompiledQuery query);

  void OnBatch(std::span<const Event> batch, std::vector<Output>* out) override;
  std::vector<Output> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  /// Serializes the interner table (values in id order), the partition
  /// slab — entries in canonical interned-id key order, each with its slot
  /// index, plus the freelist and high-water mark, pinning the slab's
  /// observable iteration order exactly — the running COUNT totals (group
  /// counts sorted by group id), and the expiry heap verbatim in array
  /// order (equal-deadline pops must replay identically after a restore;
  /// see ckpt::HeapContainer). The FlatMap index is *not* serialized: its
  /// layout is never observable, so Restore() rebuilds it fresh.
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return "A-Seq(HPC)"; }

  const CompiledQuery& query() const { return query_; }

  size_t num_partitions() const { return store_.size(); }

  /// Entries on the COUNT fast path's expiry clock: at most one per live
  /// partition (a Poll's erasing scan can leave extra ones behind).
  size_t clock_size() const { return clock_.size(); }

  /// ShardableEngine: replays the cross-partition purge a trigger at `now`
  /// performs — AdvanceExpiry on the COUNT fast path, ScanTotal's
  /// purge-and-erase sweep (without the aggregation) otherwise. The query
  /// list is always {0}.
  void SyncPurgeTo(Timestamp now, std::span<const size_t>) override;
  EngineStats* shard_mutable_stats() override { return &stats_; }

 private:
  /// One partition: its interned key (plus the key's hash, pinned at
  /// creation so erase/expiry paths never rehash) and its counter state.
  /// Slab-allocated; the CounterSet's deque storage is the only per-
  /// partition heap allocation left.
  struct Partition {
    container::InternedKey key;
    uint64_t hash = 0;
    CounterSet counters;

    Partition(const container::InternedKey& k, uint64_t h, size_t length,
              AggFunc func, size_t carrier_pos1, Timestamp window_ms,
              EngineStats* stats)
        : key(k),
          hash(h),
          counters(length, func, carrier_pos1, window_ms, stats) {}
  };

  /// "No partition" sentinel in the dense slot index (see src/state/).
  static constexpr uint32_t kNoSlot = state::kNoSlot;

  /// Dense-index position for an interned id (see state::DenseIdx): used
  /// here for the group_counts_ array, which is indexed the same way the
  /// store's single-part slot array is.
  static constexpr uint32_t DenseIdx(uint32_t id) {
    return state::DenseIdx(id);
  }

  /// Prefetch pass after admission: warms the partition-index (and
  /// group-count) slots each staged record will probe. The interner slots
  /// were already prefetched during admission's extraction pass.
  void PrefetchIndex() const;

  /// Resolves each staged record against the partition index and issues
  /// software prefetches for the slab lines ExecuteEvent will touch (read
  /// intent, high temporal locality). Purely a cache warmer: results are
  /// deliberately not reused, since executing earlier batch events can
  /// create or erase partitions and stale slots must never be trusted.
  void PrefetchPartitions() const;

  /// Replays one event's staged admission records against the partition
  /// store.
  void ExecuteEvent(const Event& e,
                    std::span<const plan::AdmissionRecord> records,
                    std::vector<Output>* out);

  /// Sums live counters of partitions whose group id equals `gid`; with
  /// `match_group == false`, sums every partition. Walks the slab in slot
  /// order (the engine's observable iteration order), purging as it goes
  /// and erasing partitions left empty.
  AggAccum ScanTotal(Timestamp now, bool match_group, uint32_t gid);

  /// Removes the partition at `slot` from the index and the slab.
  void ErasePartition(uint32_t slot);

  /// True when triggers read the O(1) running COUNT totals instead of
  /// scanning every partition.
  bool count_fast_path() const { return query_.agg().func == AggFunc::kCount; }

  /// Runs `mutate` against `part` and folds the resulting change of its
  /// full-match count into the running totals (COUNT fast path only;
  /// other aggregates still scan at trigger time).
  template <typename Fn>
  void MutatePartition(Partition& part, Fn&& mutate) {
    if (!count_fast_path()) {
      mutate();
      return;
    }
    const uint64_t before = part.counters.total_count();
    mutate();
    const uint64_t after = part.counters.total_count();
    if (after != before) {
      // Modular, like the counters themselves: a count past 2^63 (or a
      // restored one) must not overflow a signed difference.
      const uint64_t delta = after - before;
      if (per_group_) {
        const uint32_t idx = DenseIdx(part.key.ids[group_part_]);
        if (idx >= group_counts_.size()) {
          // Interned ids are dense, so the interner size bounds every
          // group id the engine can ever hand us right now.
          group_counts_.resize(store_.interner().size() + 1, 0);
        }
        group_counts_[idx] += delta;
      } else {
        running_count_ += delta;
      }
    }
  }

  /// Pushes `part`'s next expiration onto the clock (windowed mode, COUNT
  /// fast path; a no-op when nothing can expire). Called once, when the
  /// partition is inserted: its entry then stays queued, rescheduled by
  /// each revisit, until a revisit finds it empty and erases it.
  void EnqueueExpiry(const Partition& part);

  /// Purges every partition whose earliest expiration is due at `now`,
  /// keeping the running totals exact; erases partitions left empty. The
  /// lazy heap makes this amortized O(expired counters), so COUNT triggers
  /// are O(1) instead of O(partitions).
  void AdvanceExpiry(Timestamp now);

  /// Refreshes the transient EngineStats::ht_* probe/occupancy gauges
  /// from the flat tables (index + group counts + interner).
  void UpdateHtStats();

  CompiledQuery query_;
  EngineStats stats_;
  size_t length_;
  size_t carrier_pos1_;
  size_t num_parts_;
  uint64_t full_mask_;    // covered_mask value meaning "every part"
  bool per_group_;        // GROUP BY present
  size_t group_part_;     // index of the GROUP BY part (0 if none)
  bool single_part_;      // one-part key: dense direct-mapped store index
  /// The partition-state spine (src/state/): interner + index + slab.
  state::PartitionStore<Partition> store_;
  /// Compiled admission program (src/plan/): dense role dispatch, typed
  /// local-predicate opcodes, fused carrier load + key extraction.
  /// Borrows query_'s predicate storage — declared after it.
  plan::AdmissionProgram program_;
  /// Batched admission scratch, reused (clear-not-shrink) across batches.
  plan::BatchAdmitter admitter_;
  // COUNT fast path: running full-match totals (global, or per group id)
  // and the window clock that keeps them exact under lazy purging. Group
  // totals live in a flat array indexed by DenseIdx(gid) — interned group
  // ids are dense, so a trigger reads its total with one array access and
  // zero means "no full matches", exactly as an absent hash-table entry
  // used to.
  uint64_t running_count_ = 0;
  std::vector<uint64_t> group_counts_;
  state::WindowClock clock_;
};

/// \brief Builds the right A-Seq engine for an analyzed query.
///
/// Fails with Unsupported if the query carries join predicates (A-Seq
/// pushes only local and equivalence predicates into counting; use the
/// stack-based baseline for general joins), or if a partitioned query's
/// composite key is wider than container::kMaxKeyParts (the flat store
/// carries keys as fixed-size interned-id arrays).
Result<std::unique_ptr<QueryEngine>> CreateAseqEngine(
    const CompiledQuery& query);

}  // namespace aseq

#endif  // ASEQ_ASEQ_ASEQ_ENGINE_H_
