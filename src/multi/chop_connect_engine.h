#ifndef ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_
#define ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "multi/chop_plan.h"
#include "multi/shared_count_engine.h"
#include "query/compiled_query.h"

namespace aseq {

namespace chop {

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

/// The static shape of a shared segment (one per plan segment, identical
/// across group partitions).
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

/// The dynamic state of one segment within one counting scope. Live
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

}  // namespace chop

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
/// A counting scope (see SharedCountEngine, which owns grouping, expiry,
/// Poll and the snapshot framing) is one SegState per plan segment. The
/// workload shape adds one rule: distinct event types per pattern.
class ChopConnectEngine final
    : public SharedCountEngine<ChopConnectEngine,
                               std::vector<chop::SegState>> {
 public:
  /// Validates the plan against the queries and builds the engine.
  static Result<std::unique_ptr<ChopConnectEngine>> Create(
      std::vector<CompiledQuery> queries, ChopPlan plan);

  std::string name() const override { return "ChopConnect"; }

  /// Number of unique shared segments (testing hook).
  size_t num_segments() const { return segments_.size(); }

 private:
  using Scope = std::vector<chop::SegState>;
  using Base = SharedCountEngine<ChopConnectEngine, Scope>;
  friend Base;

  static constexpr SharedCountNames kNames{
      "Chop-Connect", "Chop-Connect", "chop next expiry",
      "segments",     "plan",         16};

  ChopConnectEngine(std::vector<CompiledQuery> queries, ChopPlan plan)
      : Base(std::move(queries)), plan_(std::move(plan)) {}
  void Build();

  // SharedCountEngine's sharing logic on one scope.
  Scope NewScope() const { return Scope(segments_.begin(), segments_.end()); }
  /// Snapshot pre-pass and counter updates for one event (scope already
  /// purged).
  void ApplyUpdates(const Event& e, Scope& scope);
  /// Query `qi`'s live match count. `scope` must be purged to the report
  /// time: the liveness rule compares tags with the first segment's `lo`.
  uint64_t QueryTotal(size_t qi, const Scope& scope);
  /// Pops every segment's entries due at `now`.
  Timestamp PurgeScope(Scope& scope, Timestamp now);
  /// Ungrouped: pops the due records of expiries_, purging the segments
  /// they name.
  Timestamp PurgeUngrouped(Timestamp now);
  /// Rebuilds expiries_ from dyn_'s entries.
  void AfterUngroupedRestore();
  Status CheckpointScope(const Scope& scope, ckpt::Writer* writer) const;
  /// Restores the scope's segments, then checks every table's tags against
  /// its owning first segment's next id.
  Status RestoreScope(Scope* scope, ckpt::Reader* reader);

  /// Pops the segment's entries due at `now`.
  void PurgeSegment(chop::SegState* st, Timestamp now);
  /// Appends the hook's snapshot table for an arrival to `*dst`, the
  /// hook's tables in the segment it belongs to (a member of `scope` that
  /// no hook of this arrival reads: types are distinct within a query).
  void ComputeSnapshot(const chop::Hook& hook, const Scope& scope,
                       chop::HookTables* dst);
  /// Multi-connect (Fig. 11) half of ComputeSnapshot: sums the upstream
  /// counters times their live cells into acc_, then appends the table.
  void MultiConnect(const chop::Hook& hook, const Scope& scope,
                    chop::HookTables* dst);
  /// Appends the table of the tags [first, first + n) holding `counts`,
  /// trimmed to its nonzero ends, as suffix sums when `suffix`.
  static void AppendTable(const uint64_t* counts, uint64_t first, size_t n,
                          bool suffix, chop::HookTables* dst);
  /// Number of nonzero counts in a table's `n` cells.
  static uint64_t NonzeroCounts(const uint64_t* cells, size_t n, bool suffix);
  /// Counts the restored entries into stats_ as creating them does, and
  /// rejects entries that break the FIFO order invariants.
  Status RestoreSegState(chop::SegState* st, const chop::Segment& seg,
                         ckpt::Reader* reader);

  ChopPlan plan_;
  std::vector<chop::Segment> segments_;
  /// Per type (dense, EventTypeId-indexed): (segment, position) updates,
  /// positions descending per segment; position 0 entries create counters
  /// (and are the CNET instances of the segment's hooks).
  std::vector<std::vector<std::pair<size_t, size_t>>> update_index_;
  /// Per query: hook index (within the last segment) of the final junction;
  /// -1 for single-segment queries.
  std::vector<int> final_hook_;
  /// Ungrouped mode: one (expiration, segment) record per live entry, in
  /// expiration order — entries are created in timestamp order under the
  /// one shared window — so a purge visits only due segments.
  chop::FlatFifo<std::pair<Timestamp, size_t>> expiries_;
  /// Reused multi-connect accumulator, indexed by tag minus the lowest
  /// live id of the hook's first segment; all zero between connects.
  std::vector<uint64_t> acc_;
};

}  // namespace aseq

#endif  // ASEQ_MULTI_CHOP_CONNECT_ENGINE_H_
