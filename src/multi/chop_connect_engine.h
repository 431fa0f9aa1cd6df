#ifndef ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_
#define ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_

#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "multi/chop_plan.h"
#include "plan/admission.h"
#include "query/compiled_query.h"
#include "state/partition_store.h"
#include "state/window_clock.h"

namespace aseq {

/// \brief Chop-Connect shared multi-query A-Seq (Sec. 4.2).
///
/// Each unique plan segment runs one shared SEM-style counter set (one
/// per-start PreCntr per live segment-START instance). Queries *connect*
/// their segments:
///
///  * A **CNET** instance — the START of a non-first segment of some query —
///    receives a **SnapShot** (Fig. 10): rows (tag, expiration, count) of
///    the query's pattern-so-far per full-sequence START, computed from the
///    upstream segment's live counters (and, recursively, their snapshots —
///    the multi-connect of Fig. 11) *before* this arrival's updates apply
///    (Lemma 7: only sub-matches constructed before the CNET arrival
///    connect).
///  * A **TRIG** instance of a query's last segment reports
///    `sum over last-segment counters c of c.tail * (live snapshot rows of
///    c)` — expired rows (whose full-sequence START left the window) are
///    skipped, which is how Chop-Connect inherits SEM's expiration handling
///    without per-match state.
///
/// Scope (the paper's multi-query experiments): COUNT, positive-only
/// patterns, no predicates, one common sliding window. Workloads are
/// either entirely ungrouped, or entirely GROUP BY one shared attribute —
/// the *grouped* mode, where every group value runs an independent copy of
/// the segment state in a state::PartitionStore keyed by the group value,
/// with HPC-style partition-local purging driven by a state::WindowClock.
/// Grouped instances are shardable: the group key partitions the whole
/// engine state, and the only cross-partition coupling is the clock
/// advance at trigger time (MultiShardableEngine::SyncPurgeTo).
class ChopConnectEngine : public MultiQueryEngine, public MultiShardableEngine {
 public:
  /// Validates the plan against the queries and builds the engine.
  static Result<std::unique_ptr<ChopConnectEngine>> Create(
      std::vector<CompiledQuery> queries, ChopPlan plan);

  /// Skips per-segment purge scans that a cached next-expiry lower bound
  /// proves are no-ops.
  void OnBatch(std::span<const Event> batch,
               std::vector<MultiOutput>* out) override;
  std::vector<MultiOutput> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return "ChopConnect"; }

  /// Number of unique shared segments (testing hook).
  size_t num_segments() const { return segments_.size(); }
  /// Number of live group partitions (grouped mode; testing hook).
  size_t num_partitions() const { return part_store_.size(); }

  /// MultiShardableEngine: grouped workloads shard by the group key.
  bool shardable() const override { return grouped_; }
  /// Replays the clock advance a trigger at `now` performs (grouped mode
  /// only; triggered queries all share this engine's one clock).
  void SyncPurgeTo(Timestamp now,
                   std::span<const size_t> trigger_queries) override;
  EngineStats* shard_mutable_stats() override { return &stats_; }

 private:
  /// One snapshot row: the count of the query's pattern-prefix (through the
  /// upstream segments) whose full-sequence START is `tag`, expiring at
  /// `exp`.
  struct SnapRow {
    uint64_t tag;
    Timestamp exp;
    uint64_t count;
    uint64_t cum;  // count of this row + all later (younger) rows
  };

  /// The SnapShot table of Fig. 10, with rows in expiration order (tags are
  /// assigned in arrival order under one shared window) plus an inline
  /// suffix-sum (`cum`) so the live total is O(1) amortized as rows expire —
  /// this keeps the per-TRIG connect cost linear in the number of
  /// last-segment counters, matching the paper's cost analysis.
  struct SnapshotTable {
    std::vector<SnapRow> rows;
    size_t cursor = 0;  // first possibly-live row

    void BuildSuffix() {
      uint64_t cum = 0;
      for (size_t i = rows.size(); i > 0; --i) {
        cum += rows[i - 1].count;
        rows[i - 1].cum = cum;
      }
    }

    /// Total count over non-expired rows at `now` (monotone in `now`).
    uint64_t LiveSum(Timestamp now) {
      while (cursor < rows.size() && rows[cursor].exp <= now) ++cursor;
      return cursor < rows.size() ? rows[cursor].cum : 0;
    }

    size_t size() const { return rows.size(); }
  };

  /// A connection point: segment `seg` is the `junction`-th (>= 1) segment
  /// of query `query`; `upstream_seg` precedes it; `upstream_hook` is the
  /// hook index of junction-1 within the upstream segment (-1 when the
  /// upstream is the query's first segment).
  struct Hook {
    size_t query;
    size_t junction;
    size_t upstream_seg;
    int upstream_hook;
  };

  /// One live per-START prefix counter of a segment.
  struct SegEntry {
    uint64_t id;
    Timestamp exp;
    std::vector<uint64_t> counts;          // per segment position
    std::vector<SnapshotTable> snapshots;  // parallel to Segment::hooks
  };

  /// The static shape of a shared segment (one per plan segment,
  /// identical across group partitions).
  struct Segment {
    std::vector<EventTypeId> types;
    std::vector<Hook> hooks;
  };

  /// The dynamic state of one segment within one counting scope (the
  /// whole engine when ungrouped; one group partition when grouped).
  struct SegState {
    std::deque<SegEntry> entries;
    uint64_t next_id = 0;
  };

  /// One group partition: its interned key (plus pinned hash; see
  /// state::PartitionStore) and a full set of segment states.
  struct PartState {
    container::InternedKey key;
    uint64_t hash = 0;
    std::vector<SegState> segs;

    PartState(const container::InternedKey& k, uint64_t h, size_t n_segs)
        : key(k), hash(h), segs(n_segs) {}
  };

  ChopConnectEngine(std::vector<CompiledQuery> queries, ChopPlan plan);
  void Build();

  void PurgeSegment(SegState* st, Timestamp now);
  /// Purges every segment and recomputes next_expiry_ (ungrouped mode).
  void Purge(Timestamp now);
  /// Snapshot pre-pass and counter updates for one event against one
  /// counting scope (caller already purged `dyn`). No triggers — those are
  /// mode-specific and owned by the Process*Event callers.
  void ApplyUpdates(const Event& e, std::vector<SegState>& dyn);
  /// Ungrouped mode: ApplyUpdates against dyn_ plus the trigger reports.
  void ProcessEvent(const Event& e, std::vector<MultiOutput>* out);
  /// Grouped mode: routes the event to its group partition (HPC-style
  /// partition-local purge), applies updates there, then handles triggers
  /// (clock advance + per-group report).
  void ProcessGroupedEvent(const Event& e, std::vector<MultiOutput>* out);
  SnapshotTable ComputeSnapshot(const Hook& hook, std::vector<SegState>& dyn,
                                Timestamp now);
  uint64_t QueryTotal(size_t qi, std::vector<SegState>& dyn, Timestamp now);

  /// Earliest live entry expiration across a partition's segments, or
  /// WindowClock::kNever when it holds no entries.
  Timestamp PartNextExpiry(const PartState& part) const;
  /// Pops every due clock entry, purging (and erasing when emptied) the
  /// named partitions — the grouped counterpart of the serial trigger's
  /// full purge sweep.
  void AdvanceClock(Timestamp now);

  Status CheckpointSegState(const SegState& st, ckpt::Writer* writer) const;
  /// Counts the restored entries into stats_ as creating them does.
  Status RestoreSegState(SegState* st, const Segment& seg,
                         ckpt::Reader* reader);

  std::vector<CompiledQuery> queries_;
  /// Per-query compiled admission programs (src/plan/); the workload shape
  /// has no predicates, so they serve as the dense type-relevance test.
  /// Borrow queries_'s storage — declared after it.
  std::vector<plan::AdmissionProgram> programs_;
  /// Union of the programs' relevance, EventTypeId-indexed: an event whose
  /// type is outside every query's pattern touches no segment.
  std::vector<uint8_t> type_relevant_;
  ChopPlan plan_;
  Timestamp window_ms_ = 0;
  /// GROUP BY mode: every query groups by this one shared attribute.
  bool grouped_ = false;
  AttrId group_attr_ = kInvalidAttr;
  std::vector<Segment> segments_;
  /// Ungrouped mode: the single shared set of segment states.
  std::vector<SegState> dyn_;
  /// Grouped mode: one set of segment states per live group value, plus
  /// the lazy expiry clock that drives trigger-time purging.
  state::PartitionStore<PartState> part_store_;
  state::WindowClock clock_;
  /// Per type (dense, EventTypeId-indexed): (segment, position) updates,
  /// positions descending per segment; position 0 entries create counters.
  std::vector<std::vector<std::pair<size_t, size_t>>> update_index_;
  /// Per type (dense): queries it triggers (type == last type of the
  /// query's last segment).
  std::vector<std::vector<size_t>> trigger_index_;
  /// Per query: hook index (within the last segment) of the final junction;
  /// -1 for single-segment queries.
  std::vector<int> final_hook_;
  EngineStats stats_;
  /// Lower bound on the earliest live entry expiration, ungrouped mode
  /// (see StackEngine::next_expiry_).
  Timestamp next_expiry_ = std::numeric_limits<Timestamp>::max();
};

}  // namespace aseq

#endif  // ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_
