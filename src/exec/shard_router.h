#ifndef ASEQ_EXEC_SHARD_ROUTER_H_
#define ASEQ_EXEC_SHARD_ROUTER_H_

#include <span>
#include <string>
#include <vector>

#include "ckpt/ckpt.h"
#include "common/event.h"
#include "common/status.h"
#include "container/key_interner.h"
#include "plan/admission.h"
#include "query/compiled_query.h"

namespace aseq {
namespace exec {

/// \brief Whether a query's (or a workload's combined) state can be split
/// by GROUP BY key across independent engine twins with byte-identical
/// outputs and stats.
struct ShardPlan {
  bool shardable = false;
  /// Why not, phrased for the CLI's fallback log (empty when shardable).
  std::string reason;
};

/// The fallback matrix (docs/internals.md §11). A query shards iff:
///  - it is partitioned with per-group output (GROUP BY): each group's
///    partitions then share one GROUP BY key value, so hash-routing on
///    that value keeps all state a trigger reads on one shard;
///  - every negated role is constrained by the GROUP BY part (always true
///    for GROUP BY queries — the group part covers every element — but
///    checked, not assumed), so negative instances cannot invalidate
///    partitions on other shards;
///  - the aggregate's cross-partition merge is order-insensitive: COUNT
///    (integer totals), any aggregate over a single-part key (one
///    partition per group, nothing to merge), or MIN/MAX (exact in any
///    order). SUM/AVG over a multi-part key merge a group's partitions in
///    map-iteration order, which resharding cannot reproduce bit-exact.
/// Everything else — ungrouped queries, equivalence-only partitioning,
/// join predicates — falls back to serial with the reason logged.
///
/// A workload shards iff every query shards on its own AND every query
/// groups by the same attribute: an event lands on exactly one shard, so
/// all queries' partition keys must derive from the same event attribute —
/// otherwise one query's partitions for a key would scatter across shards
/// chosen by another query's key. A single query is a workload of one.
ShardPlan PlanSharding(std::span<const CompiledQuery> queries);

/// \brief Routes events to shards with the engines' own compiled admission
/// programs (src/plan/), one per workload query over one shared key
/// interner, so an event always lands on the shard whose engine twin owns
/// its GROUP BY key — and triggers are recognized with exactly the
/// condition the engines stage them under (a qualifying positive role at
/// the final position whose partition key extracts). A single query is a
/// span of one.
class ShardRouter {
 public:
  /// The queries must outlive the router (it borrows their predicate
  /// storage) and must pass PlanSharding.
  ShardRouter(std::span<const CompiledQuery> queries, size_t num_shards);

  /// One event some query's pattern names (the union of the queries'
  /// prefilter masks). Every other event touches no engine state on any
  /// shard — each engine returns on its type check — so it is not routed.
  struct Route {
    /// The event's position in the routed batch.
    uint32_t index = 0;
    /// Owner shard. Events that stage no probe (failed local predicates,
    /// missing key attribute) touch no partition state on any shard; they
    /// spread round-robin by seq for balanced event accounting.
    size_t shard = 0;
    /// True when some query staged a probe and the GROUP BY key extracted;
    /// key_id then holds the router's dense id for that key. The shed
    /// overload policy drops whole partitions by key_id — events without
    /// a key touch no partition state and are never shed.
    bool has_key = false;
    uint32_t key_id = 0;
    /// Fault injection (point router.route, kind overload): the executor
    /// treats this event as if the owner shard's queue had hit its
    /// high-watermark, engaging the overload policy deterministically.
    bool inject_overload = false;
    /// Ascending workload indexes of the windowed queries this event
    /// completes. The serial engine then purges those queries' expired
    /// state across *every* partition, so the executor sends purge markers
    /// carrying the set to the non-owner shards. Unbounded queries never
    /// appear (nothing of theirs expires).
    std::vector<size_t> trigger_queries;
  };

  /// \brief Routes a whole borrowed batch; events must carry their final
  /// seq numbers. Per-event `router.route` fault hits run first, in seq
  /// order (fault-spec offsets count every event, routed or not). Then
  /// each query gets one vectorized admission prefilter and one
  /// BatchAdmitter pass — a query with no relevant event in the batch is
  /// skipped entirely — and only prefilter-relevant events are visited.
  /// Interning is query-major over the batch (all of query 0's records,
  /// then query 1's, ...): deterministic, self-consistent within a run and
  /// across its checkpoints, and for one query plain event order. Returns
  /// one Route per relevant event, in batch order, valid until the next
  /// RouteBatch call.
  std::span<const Route> RouteBatch(std::span<const Event> batch);

  /// True when the last RouteBatch injected overload (router.route fault)
  /// on an event it did not route: no lane receives it, so only the
  /// degrade-serial drain reacts.
  bool unrouted_overload() const { return unrouted_overload_; }

  /// \brief Router state round-trip for sharded snapshots.
  ///
  /// Shard ownership is `interned id % num_shards`, and ids are assigned
  /// in first-routed order — so the interner table is part of the sharded
  /// run's durable state. A restored run must replay the stream suffix
  /// through a router holding the checkpointed table, or previously-seen
  /// keys would re-intern under fresh ids and land on the wrong shards.
  /// The payload is the interner's values in id order.
  void Checkpoint(ckpt::Writer* writer) const;
  Status Restore(ckpt::Reader* reader);

 private:
  struct PerQuery {
    size_t length = 0;
    size_t group_part = 0;
    bool windowed = false;
    /// The *same* lowering the shard engines run, so "stages a probe"
    /// means exactly the same thing on both sides.
    plan::AdmissionProgram program;
  };

  size_t num_shards_;
  std::vector<PerQuery> queries_;
  /// Admission scratch. The batch interning pass is NOT used (AdmitBatch
  /// runs with a null interner): the router interns only the GROUP BY part
  /// value, and its id order is durable state.
  plan::BatchAdmitter admitter_;
  /// Per-query type-relevance bitmasks of the current batch.
  std::vector<plan::BatchPrefilter> prefilters_;
  /// RouteBatch scratch, clear-not-shrink: the union of the masks, routes
  /// before each mask word (so an event's route is one popcount away),
  /// the routes, and the indexes of injected-overload events.
  std::vector<uint64_t> union_;
  std::vector<uint32_t> word_base_;
  std::vector<Route> routes_;
  std::vector<uint32_t> overload_hits_;
  bool unrouted_overload_ = false;
  /// GROUP BY values → dense ids, in first-routed order. Independent of
  /// any engine-side interner: routing only needs its *own* ids to be
  /// stable, and shard engines never see them.
  container::KeyInterner interner_;
};

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARD_ROUTER_H_
