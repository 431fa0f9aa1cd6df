#ifndef ASEQ_MULTI_SHARED_COUNT_ENGINE_H_
#define ASEQ_MULTI_SHARED_COUNT_ENGINE_H_

#include <algorithm>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.h"
#include "common/status.h"
#include "engine/engine.h"
#include "query/compiled_query.h"
#include "state/partition_store.h"
#include "state/window_clock.h"

namespace aseq {

/// The first rule of the shared-counting query shape a query breaks, in
/// the order the engines check them.
enum class CountShape {
  kOk,
  kAggregate,     // not COUNT, a join predicate or a negation
  kPartitioning,  // partitioned other than as GROUP BY one attribute
  kWhere,         // a local predicate
  kWindow,        // no positive window
};

/// The per-query shape the shared-counting engines (PreTree, Chop-Connect,
/// the ECube baseline) count under: COUNT over a positive-only pattern, no
/// predicates, a positive window, and either ungrouped or GROUP BY one
/// attribute (one interned key part, per-group output, no equivalence
/// parts) — the one partitioning the shared state decomposes under.
inline CountShape CheckCountShape(const CompiledQuery& q) {
  if (q.agg().func != AggFunc::kCount || q.has_join_predicates() ||
      q.pattern().has_negation()) {
    return CountShape::kAggregate;
  }
  if (q.partitioned()) {
    const PartitionSpec& spec = q.partition_spec();
    if (!spec.per_group_output || spec.parts.size() != 1 ||
        spec.group_part != 0) {
      return CountShape::kPartitioning;
    }
  }
  for (const auto& preds : q.local_predicates()) {
    if (!preds.empty()) return CountShape::kWhere;
  }
  return q.window_ms() > 0 ? CountShape::kOk : CountShape::kWindow;
}

/// The GROUP BY attribute of a query whose partitioning CheckCountShape
/// accepts; kInvalidAttr when it is ungrouped.
inline AttrId CountShapeGroupAttr(const CompiledQuery& q) {
  return q.partitioned() ? q.partition_spec().parts[0].attr : kInvalidAttr;
}

/// Whether the query's positive types are pairwise distinct — the rule
/// Chop-Connect and ECube add to the shape (role handling stays
/// unambiguous).
inline bool HasDistinctTypes(const CompiledQuery& q) {
  const std::vector<EventTypeId>& types = q.positive_types();
  for (size_t i = 0; i < types.size(); ++i) {
    for (size_t j = i + 1; j < types.size(); ++j) {
      if (types[i] == types[j]) return false;
    }
  }
  return true;
}

/// The texts a shared-counting engine's rejections and snapshot errors
/// name it by.
struct SharedCountNames {
  /// "<engine> needs at least one query", "<engine> workloads must ...".
  const char* engine;
  /// "<sharing> supports COUNT ...", "<sharing> does not support WHERE".
  const char* sharing;
  /// Snapshot label of the next-expiry bound.
  const char* expiry;
  /// The ungrouped scope's members ("tries"), what builds them
  /// ("workload"), and the fewest snapshot bytes a member takes.
  const char* members;
  const char* builder;
  uint64_t member_bytes;
};

/// \brief The shell of the shared-counting multi-query engines: PreTree
/// (Sec. 4.1) and Chop-Connect (Sec. 4.2).
///
/// Both run a workload of COUNT queries over positive patterns with one
/// common sliding window, either entirely ungrouped or entirely GROUP BY
/// one shared attribute (CheckCountShape per query, CheckWorkload across
/// the workload), and differ only in the sharing plan's state. A *scope* is one copy of that state:
/// the whole engine when ungrouped, one group value when grouped. The
/// shell owns everything around it:
///
///  * the per-type rows: relevance (the queries' positive types), whether
///    the type creates scope entries, and the queries it triggers in
///    emission order;
///  * ungrouped, the one scope and a lower bound on its next expiry, so a
///    batch skips purges that cannot expire anything;
///  * grouped, a state::PartitionStore of scopes keyed by the group value
///    — only a creating type materializes an absent partition, mirroring
///    HpcEngine — with HPC-style partition-local purging, and the
///    state::WindowClock that purges every other partition at a trigger
///    (amortized O(expired entries)). The group key partitions the whole
///    state, so grouped instances shard (ShardableEngine), and the clock
///    advance is the only cross-partition coupling;
///  * Poll, SyncPurgeTo and the snapshot framing.
///
/// `Derived` (CRTP: no virtual call per event; the shell is its friend)
/// supplies the sharing logic on one scope:
///
///     static constexpr SharedCountNames kNames;
///     Scope NewScope() const;                          // an empty scope
///     void ApplyUpdates(const Event& e, Scope& scope); // START/UPD
///     uint64_t QueryTotal(size_t qi, const Scope& scope);
///     Timestamp PurgeScope(Scope& scope, Timestamp now);
///     Status CheckpointScope(const Scope& scope, ckpt::Writer* w) const;
///     Status RestoreScope(Scope* scope, ckpt::Reader* r);
///
/// PurgeScope answers the scope's next expiry (WindowClock::kNever when it
/// is empty). RestoreScope counts the entries it restores into stats_ as
/// creating them does. Derived's Build fills the rows (MarkCreates,
/// AddTrigger) and sets dyn_; it may shadow PurgeUngrouped and
/// AfterUngroupedRestore. A new entry expires at its event's timestamp
/// plus the window: the next-expiry bound and the clock rely on it.
template <class Derived, class Scope>
class SharedCountEngine : public MultiQueryEngine, public ShardableEngine {
 public:
  void OnBatch(std::span<const Event> batch,
               std::vector<MultiOutput>* out) override;
  std::vector<MultiOutput> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;

  /// Number of live group partitions (grouped mode; testing hook).
  size_t num_partitions() const { return part_store_.size(); }

  /// ShardableEngine: grouped workloads shard by the group key.
  bool shardable() const override { return grouped_; }
  /// Replays the clock advance a trigger at `now` performs (grouped mode
  /// only). Every triggered query shares this engine's one clock, so which
  /// of them triggered is immaterial — the purge happens once.
  void SyncPurgeTo(Timestamp now, std::span<const size_t>) override {
    if (grouped_) AdvanceClock(now);
  }
  EngineStats* shard_mutable_stats() override { return &stats_; }

 protected:
  /// Checks the workload shape with Derived::kNames's texts, query by
  /// query; `check_query(qi)` then applies the sharing plan's own rules.
  template <class CheckQuery>
  static Status CheckWorkload(const std::vector<CompiledQuery>& queries,
                              CheckQuery&& check_query);

  /// Takes a workload CheckWorkload accepted.
  explicit SharedCountEngine(std::vector<CompiledQuery> queries)
      : queries_(std::move(queries)),
        window_ms_(queries_[0].window_ms()),
        grouped_(queries_[0].partitioned()),
        group_attr_(CountShapeGroupAttr(queries_[0])) {
    for (const CompiledQuery& q : queries_) {
      for (EventTypeId t : q.positive_types()) Row(t).relevant = true;
    }
  }

  /// Build-time rows: events of type `t` create scope entries; they
  /// trigger query `qi` (call in emission order).
  void MarkCreates(EventTypeId t) { Row(t).creates = true; }
  void AddTrigger(EventTypeId t, size_t qi) { Row(t).triggers.push_back(qi); }

  /// Ungrouped purge of dyn_; answers its next expiry.
  Timestamp PurgeUngrouped(Timestamp now) {
    return derived().PurgeScope(dyn_, now);
  }
  /// Runs after dyn_ is restored.
  void AfterUngroupedRestore() {}

  std::vector<CompiledQuery> queries_;
  Timestamp window_ms_;
  /// GROUP BY mode: every query groups by group_attr_.
  bool grouped_;
  /// Ungrouped mode: the single scope.
  Scope dyn_;
  EngineStats stats_;

 private:
  struct TypeRow {
    bool relevant = false;
    bool creates = false;
    std::vector<size_t> triggers;
  };

  /// One group partition: its interned key (plus pinned hash; see
  /// state::PartitionStore) and its scope.
  struct Partition {
    container::InternedKey key;
    uint64_t hash = 0;
    Scope scope;

    Partition(const container::InternedKey& k, uint64_t h, Scope s)
        : key(k), hash(h), scope(std::move(s)) {}
  };

  Derived& derived() { return static_cast<Derived&>(*this); }
  const Derived& derived() const {
    return static_cast<const Derived&>(*this);
  }
  TypeRow& Row(EventTypeId t) {
    if (t >= rows_.size()) rows_.resize(t + 1);
    return rows_[t];
  }

  /// Ungrouped: applies the event to dyn_ and reports its triggers.
  void ProcessEvent(const Event& e, std::vector<MultiOutput>* out);
  /// Grouped: routes the event to its group partition (purging that one
  /// partition first), applies it there, and at a trigger advances the
  /// clock and reports from the event's own group.
  void ProcessGroupedEvent(const Event& e, std::vector<MultiOutput>* out);
  /// Reports every query `row` triggers from `scope` (null counts zero).
  void Report(const Event& e, const TypeRow& row, Scope* scope,
              const std::optional<Value>& group,
              std::vector<MultiOutput>* out);
  /// Pops every due clock entry, purging (and erasing when emptied) the
  /// named partitions — the grouped counterpart of the ungrouped purge.
  void AdvanceClock(Timestamp now);

  AttrId group_attr_;
  /// Per event type (dense, EventTypeId-indexed).
  std::vector<TypeRow> rows_;
  /// Lower bound on dyn_'s earliest live expiration (ungrouped mode; see
  /// StackEngine::next_expiry_).
  Timestamp next_expiry_ = state::WindowClock::kNever;
  /// Grouped mode: one scope per live group value, and the lazy expiry
  /// clock that drives trigger-time purging.
  state::PartitionStore<Partition> part_store_;
  state::WindowClock clock_;
};

template <class Derived, class Scope>
template <class CheckQuery>
Status SharedCountEngine<Derived, Scope>::CheckWorkload(
    const std::vector<CompiledQuery>& queries, CheckQuery&& check_query) {
  const std::string engine = Derived::kNames.engine;
  const std::string sharing = Derived::kNames.sharing;
  if (queries.empty()) {
    return Status::InvalidArgument(engine + " needs at least one query");
  }
  const CompiledQuery& first = queries[0];
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const CompiledQuery& q = queries[qi];
    const CountShape shape = CheckCountShape(q);
    if (shape == CountShape::kAggregate) {
      return Status::Unsupported(
          sharing + " supports COUNT over positive-only patterns: " +
          q.ToString());
    }
    if (q.partitioned() != first.partitioned()) {
      return Status::Unsupported(
          engine + " workloads must be uniformly grouped or ungrouped: " +
          q.ToString());
    }
    if (shape == CountShape::kPartitioning ||
        CountShapeGroupAttr(q) != CountShapeGroupAttr(first)) {
      return Status::Unsupported(
          sharing +
          " supports partitioning only as GROUP BY one attribute shared by "
          "every workload query: " +
          q.ToString());
    }
    if (shape == CountShape::kWhere) {
      return Status::Unsupported(sharing +
                                 " does not support WHERE: " + q.ToString());
    }
    if (shape == CountShape::kWindow || q.window_ms() != first.window_ms()) {
      return Status::InvalidArgument(
          engine + " workload queries must share one positive window");
    }
    ASEQ_RETURN_NOT_OK(check_query(qi));
  }
  return Status::OK();
}

template <class Derived, class Scope>
void SharedCountEngine<Derived, Scope>::OnBatch(
    std::span<const Event> batch, std::vector<MultiOutput>* out) {
  if (batch.empty()) return;
  if (grouped_) {
    // Purging is partition-local (no global sweep to hoist); the clock
    // already makes trigger-time expiry amortized O(expired entries).
    for (const Event& e : batch) ProcessGroupedEvent(e, out);
    stats_.NoteBatch(batch.size());
    return;
  }
  for (const Event& e : batch) {
    if (e.ts() >= next_expiry_) next_expiry_ = derived().PurgeUngrouped(e.ts());
    ProcessEvent(e, out);
    // New entries expire at e.ts() + window; keep the bound valid.
    next_expiry_ = std::min(next_expiry_, e.ts() + window_ms_);
  }
  stats_.NoteBatch(batch.size());
}

template <class Derived, class Scope>
void SharedCountEngine<Derived, Scope>::ProcessEvent(
    const Event& e, std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  // A type outside every query's pattern touches no scope.
  if (e.type() >= rows_.size() || !rows_[e.type()].relevant) return;
  derived().ApplyUpdates(e, dyn_);
  Report(e, rows_[e.type()], &dyn_, std::nullopt, out);
}

template <class Derived, class Scope>
void SharedCountEngine<Derived, Scope>::ProcessGroupedEvent(
    const Event& e, std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  if (e.type() >= rows_.size() || !rows_[e.type()].relevant) return;
  const TypeRow& row = rows_[e.type()];
  // Route by the shared GROUP BY attribute; an event without it matches no
  // sequence of any query (the group part covers every element).
  const Value* gv = e.FindAttr(group_attr_);
  if (gv == nullptr) return;
  const uint32_t gid = part_store_.interner().Intern(*gv);
  container::InternedKey key;
  key.ids[0] = gid;
  const uint64_t hash = container::InternedKeyHash{}(key);

  uint32_t slot = part_store_.Lookup(hash, key);
  if (slot == state::kNoSlot && row.creates) {
    auto [slot_ref, inserted] = part_store_.Upsert(hash, key);
    *slot_ref = part_store_.Emplace(key, hash, derived().NewScope());
    slot = *slot_ref;
  }
  if (slot != state::kNoSlot) {
    Scope& scope = part_store_.at(slot).scope;
    // HPC-style partition-local purge: only the partition this event's key
    // owns is purged here; the rest purge lazily at trigger time via the
    // clock.
    const bool was_empty =
        derived().PurgeScope(scope, e.ts()) == state::WindowClock::kNever;
    derived().ApplyUpdates(e, scope);
    // An entry landing in an empty partition establishes its earliest
    // expiration; put it on the clock *before* any trigger advance below
    // (non-empty partitions already have a clock entry at or before their
    // true next expiry — the clock invariant).
    if (was_empty && row.creates) {
      clock_.Schedule(e.ts() + window_ms_, hash, key);
    }
  }
  if (row.triggers.empty()) return;
  // Grouped trigger: the serial engine purges *every* partition here, then
  // reports from the trigger's own group alone. The advance can erase
  // partitions — this event's included, if it left its group empty — so
  // the scope is re-resolved afterwards.
  AdvanceClock(e.ts());
  slot = part_store_.Lookup(hash, key);
  Report(e, row,
         slot == state::kNoSlot ? nullptr : &part_store_.at(slot).scope,
         part_store_.interner().ValueOf(gid), out);
}

template <class Derived, class Scope>
void SharedCountEngine<Derived, Scope>::Report(
    const Event& e, const TypeRow& row, Scope* scope,
    const std::optional<Value>& group, std::vector<MultiOutput>* out) {
  for (size_t qi : row.triggers) {
    const uint64_t total =
        scope == nullptr ? 0 : derived().QueryTotal(qi, *scope);
    // Aggregate-initialize (GCC 12 raises a spurious -Wmaybe-uninitialized
    // on the variant move-assignment the field-wise form compiles to).
    out->push_back(MultiOutput{
        qi, Output{e.ts(), e.seq(), group, Value(static_cast<int64_t>(total))}});
    ++stats_.outputs;
  }
}

template <class Derived, class Scope>
void SharedCountEngine<Derived, Scope>::AdvanceClock(Timestamp now) {
  clock_.AdvanceTo(
      now, [&](const state::WindowClock::Entry& top) -> Timestamp {
        const uint32_t slot = part_store_.Lookup(top.hash, top.key);
        if (slot == state::kNoSlot) return state::WindowClock::kNever;
        const Timestamp next =
            derived().PurgeScope(part_store_.at(slot).scope, now);
        if (next == state::WindowClock::kNever) part_store_.Erase(slot);
        return next;
      });
}

template <class Derived, class Scope>
std::vector<MultiOutput> SharedCountEngine<Derived, Scope>::Poll(
    Timestamp now) {
  std::vector<MultiOutput> outputs;
  auto report = [&](size_t qi, Scope& scope, std::optional<Value> group) {
    outputs.push_back(MultiOutput{
        qi, Output{now, 0, std::move(group),
                   Value(static_cast<int64_t>(
                       derived().QueryTotal(qi, scope)))}});
  };
  if (!grouped_) {
    next_expiry_ = derived().PurgeUngrouped(now);
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      report(qi, dyn_, std::nullopt);
    }
    return outputs;
  }
  // Grouped: purge everything due, then report per query per live group in
  // slab-slot order — a pure function of engine state, so a restored (or
  // shard-merged) engine polls identically.
  AdvanceClock(now);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    for (uint32_t s = 0; s < part_store_.end(); ++s) {
      if (!part_store_.live(s)) continue;
      Partition& part = part_store_.at(s);
      report(qi, part.scope, part_store_.interner().ValueOf(part.key.ids[0]));
    }
  }
  return outputs;
}

template <class Derived, class Scope>
Status SharedCountEngine<Derived, Scope>::Checkpoint(
    ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  writer->WriteI64(next_expiry_);
  if (grouped_) {
    // Structural spine via the store; each partition's payload is its
    // scope. The clock rides verbatim.
    ASEQ_RETURN_NOT_OK(part_store_.Checkpoint(
        writer, [this](const Partition& part, ckpt::Writer* w) -> Status {
          return derived().CheckpointScope(part.scope, w);
        }));
    clock_.Checkpoint(writer);
    return Status::OK();
  }
  writer->WriteU64(dyn_.size());
  return derived().CheckpointScope(dyn_, writer);
}

template <class Derived, class Scope>
Status SharedCountEngine<Derived, Scope>::Restore(ckpt::Reader* reader) {
  const SharedCountNames& names = Derived::kNames;
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&next_expiry_, names.expiry));
  if (grouped_) {
    ASEQ_RETURN_NOT_OK(part_store_.Restore(
        reader, [&](uint32_t slot, const container::InternedKey& key,
                    uint64_t hash, ckpt::Reader* r) -> Status {
          Partition& part = part_store_.RestoreEmplaceAt(
              slot, key, hash, derived().NewScope());
          return derived().RestoreScope(&part.scope, r);
        }));
    ASEQ_RETURN_NOT_OK(clock_.Restore(reader, part_store_.interner().size()));
  } else {
    uint64_t n = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n, names.member_bytes, names.members));
    if (n != dyn_.size()) {
      return Status::ParseError(
          "snapshot corrupt: " + std::to_string(n) + " " + names.members +
          " but the " + names.builder + " builds " +
          std::to_string(dyn_.size()));
    }
    ASEQ_RETURN_NOT_OK(derived().RestoreScope(&dyn_, reader));
    derived().AfterUngroupedRestore();
  }
  ASEQ_RETURN_NOT_OK(ckpt::CheckLiveObjects(stats, stats_.objects.current()));
  stats_ = stats;
  return Status::OK();
}

}  // namespace aseq

#endif  // ASEQ_MULTI_SHARED_COUNT_ENGINE_H_
