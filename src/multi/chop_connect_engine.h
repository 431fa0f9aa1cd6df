#ifndef ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_
#define ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_

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
///    receives a **SnapShot** (Fig. 10): the count of the query's
///    pattern-so-far per full-sequence START, computed from the upstream
///    segment's live counters (and, recursively, their snapshots — the
///    multi-connect of Fig. 11) *before* this arrival's updates apply
///    (Lemma 7: only sub-matches constructed before the CNET arrival
///    connect). A START's tag is its entry id in the query's first
///    segment; those ids are consecutive, so a snapshot is a dense run of
///    cells over consecutive tags, and a cell is live iff its tag is at or
///    above the first segment's lowest live id (entries expire in id
///    order under the one shared window).
///  * A **TRIG** instance of a query's last segment reports
///    `sum over last-segment counters c of c.tail * (live cells of c)`.
///    The final junction's tables hold suffix sums, so the live total is
///    one indexed load — which is how Chop-Connect inherits SEM's
///    expiration handling without per-match state.
///
/// Scope (the paper's multi-query experiments): COUNT, positive-only
/// patterns, no predicates, one common sliding window. Workloads are
/// either entirely ungrouped, or entirely GROUP BY one shared attribute —
/// the *grouped* mode, where every group value runs an independent copy of
/// the segment state in a state::PartitionStore keyed by the group value,
/// with HPC-style partition-local purging driven by a state::WindowClock.
/// Grouped instances are shardable: the group key partitions the whole
/// engine state, and the only cross-partition coupling is the clock
/// advance at trigger time (ShardableEngine::SyncPurgeTo).
class ChopConnectEngine : public MultiQueryEngine, public ShardableEngine {
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

  /// ShardableEngine: grouped workloads shard by the group key.
  bool shardable() const override { return grouped_; }
  /// Replays the clock advance a trigger at `now` performs (grouped mode
  /// only; triggered queries all share this engine's one clock).
  void SyncPurgeTo(Timestamp now,
                   std::span<const size_t> trigger_queries) override;
  EngineStats* shard_mutable_stats() override { return &stats_; }

 private:
  /// A connection point: segment `seg` is the `junction`-th (>= 1) segment
  /// of query `query`; `upstream_seg` precedes it; `upstream_hook` is the
  /// hook index of junction-1 within the upstream segment (-1 when the
  /// upstream is the query's first segment). Every cell tag of the hook's
  /// tables is an entry id of `first_seg`, the query's first segment.
  /// Tables at the query's final junction (`suffix`) hold suffix sums, read
  /// by QueryTotal; the others hold counts, read by the next junction's
  /// multi-connect.
  struct Hook {
    size_t query;
    size_t junction;
    size_t upstream_seg;
    int upstream_hook;
    size_t first_seg;
    bool suffix;
  };

  /// The static shape of a shared segment (one per plan segment,
  /// identical across group partitions).
  struct Segment {
    std::vector<EventTypeId> types;
    std::vector<Hook> hooks;
  };

  /// A FIFO of records in one flat vector: appended at the back, popped
  /// from the front, and compacted in place once the popped prefix is as
  /// long as the live part — amortized O(1) per record, and no allocation
  /// once the vector has grown to the live size.
  template <typename T>
  class FlatFifo {
   public:
    size_t size() const { return data_.size() - head_; }
    bool empty() const { return head_ == data_.size(); }
    T* data() { return data_.data() + head_; }
    const T* data() const { return data_.data() + head_; }
    T& operator[](size_t i) { return data_[head_ + i]; }
    const T& operator[](size_t i) const { return data_[head_ + i]; }
    const T& back() const { return data_.back(); }

    void push_back(const T& value) { data_.push_back(value); }
    void append(const T* values, size_t n) {
      data_.insert(data_.end(), values, values + n);
    }
    void pop_front(size_t n) {
      head_ += n;
      if (head_ >= data_.size() - head_) {
        data_.erase(data_.begin(),
                    data_.begin() + static_cast<ptrdiff_t>(head_));
        head_ = 0;
      }
    }

   private:
    std::vector<T> data_;
    size_t head_ = 0;
  };

  /// One SnapShot table of Fig. 10: the cells of the consecutive tags
  /// [first, first + size), trimmed to its nonzero ends. `nonzero` is the
  /// number of nonzero counts among them (its live objects).
  struct Table {
    uint64_t first;
    uint64_t size;
    uint64_t nonzero;
  };

  /// One hook's tables, one per entry of its segment (oldest first); their
  /// cells follow one another in `cells`.
  struct HookTables {
    FlatFifo<Table> tables;
    FlatFifo<uint64_t> cells;
  };

  /// The dynamic state of one segment within one counting scope (the
  /// whole engine when ungrouped; one group partition when grouped). Live
  /// entries, oldest first, have the consecutive ids [lo(), next_id): entry
  /// i expires at `exps[i]`, holds the count `counts[p][i]` of each segment
  /// position p (position-major, so an update is one contiguous add), and
  /// owns `hooks[h].tables[i]` for each hook of the segment.
  struct SegState {
    explicit SegState(const Segment& seg)
        : counts(seg.types.size()), hooks(seg.hooks.size()) {}
    size_t size() const { return exps.size(); }
    uint64_t lo() const { return next_id - exps.size(); }

    FlatFifo<Timestamp> exps;
    std::vector<FlatFifo<uint64_t>> counts;
    std::vector<HookTables> hooks;
    uint64_t next_id = 0;
  };

  /// One group partition: its interned key (plus pinned hash; see
  /// state::PartitionStore) and a full set of segment states.
  struct PartState {
    container::InternedKey key;
    uint64_t hash = 0;
    std::vector<SegState> segs;

    PartState(const container::InternedKey& k, uint64_t h,
              const std::vector<Segment>& segments)
        : key(k), hash(h), segs(segments.begin(), segments.end()) {}
  };

  ChopConnectEngine(std::vector<CompiledQuery> queries, ChopPlan plan);
  void Build();

  /// Pops the segment's entries due at `now`.
  void PurgeSegment(SegState* st, Timestamp now);
  /// Purges the segments whose front entry is due and recomputes
  /// next_expiry_ (ungrouped mode).
  void Purge(Timestamp now);
  /// Rebuilds due_ from dyn_ (ungrouped mode, after a restore).
  void RebuildDue();
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
  /// Appends the hook's snapshot table for an arrival to `*dst`, the
  /// hook's tables in the segment it belongs to (a member of `dyn` that no
  /// hook of this arrival reads: types are distinct within a query).
  void ComputeSnapshot(const Hook& hook, const std::vector<SegState>& dyn,
                       HookTables* dst);
  /// Multi-connect (Fig. 11) half of ComputeSnapshot: sums the upstream
  /// counters times their live cells into acc_, then appends the table.
  void MultiConnect(const Hook& hook, const std::vector<SegState>& dyn,
                    HookTables* dst);
  /// Appends the table of the tags [first, first + n) holding `counts`,
  /// trimmed to its nonzero ends, as suffix sums when `suffix`.
  static void AppendTable(const uint64_t* counts, uint64_t first, size_t n,
                          bool suffix, HookTables* dst);
  /// Number of nonzero counts in a table's `n` cells.
  static uint64_t NonzeroCounts(const uint64_t* cells, size_t n, bool suffix);
  /// Query `qi`'s live match count. `dyn` must be purged to the report
  /// time: the liveness rule compares tags with the first segment's `lo`.
  uint64_t QueryTotal(size_t qi, const std::vector<SegState>& dyn);

  /// Earliest live entry expiration across a partition's segments, or
  /// WindowClock::kNever when it holds no entries.
  Timestamp PartNextExpiry(const PartState& part) const;
  /// Pops every due clock entry, purging (and erasing when emptied) the
  /// named partitions — the grouped counterpart of the serial trigger's
  /// full purge sweep.
  void AdvanceClock(Timestamp now);

  Status CheckpointSegState(const SegState& st, ckpt::Writer* writer) const;
  /// Counts the restored entries into stats_ as creating them does, and
  /// rejects entries that break the FIFO order invariants.
  Status RestoreSegState(SegState* st, const Segment& seg,
                         ckpt::Reader* reader);
  /// Restores one counting scope's segments, then checks every table's
  /// tags against its owning first segment's next id.
  Status RestoreScope(std::vector<SegState>* dyn, ckpt::Reader* reader);

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
  /// positions descending per segment; position 0 entries create counters
  /// (and are the CNET instances of the segment's hooks).
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
  /// Ungrouped mode: min-heap of (front entry expiration, segment), one
  /// item per non-empty segment, so a purge visits only due segments.
  std::vector<std::pair<Timestamp, size_t>> due_;
  /// Reused multi-connect accumulator, indexed by tag minus the lowest
  /// live id of the hook's first segment; all zero between connects.
  std::vector<uint64_t> acc_;
};

}  // namespace aseq

#endif  // ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_
