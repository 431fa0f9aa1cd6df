#ifndef ASEQ_EXEC_SHARDED_EXECUTOR_H_
#define ASEQ_EXEC_SHARDED_EXECUTOR_H_

#include <utility>

#include "exec/execution_policy.h"
#include "exec/shard_router.h"
#include "exec/sharded_executor_impl.h"

namespace aseq {
namespace exec {

/// Trait bindings for the single-query sharded executor: one CompiledQuery,
/// ShardableEngine twins, scalar Output. Markers carry no payload (the
/// purge covers the whole engine).
struct SingleShardTraits {
  using Engine = QueryEngine;
  using Shardable = ShardableEngine;

  static SeqNum OutputSeq(const Output& o) { return o.seq; }
  static void StampMarker(const ShardRouter::Route& route, ShardOp* op) {
    (void)route;
    (void)op;  // single-query markers carry no per-query payload
  }
  static void SyncPurge(Shardable* shardable, const ShardOp& op) {
    shardable->SyncPurgeTo(op.ts);
  }
  /// Single-query engines count objects at add/remove granularity, so
  /// their mid-event peaks are real serial observations.
  static bool BoundaryObjects(const Shardable* shardable) {
    (void)shardable;
    return false;
  }
};

/// Trait bindings for the multi-query (workload) sharded executor:
/// MultiShardableEngine twins over the whole workload, query-tagged
/// MultiOutput. The marker carries which windowed queries the trigger
/// completed, so engines with per-query clocks purge exactly the serial
/// set.
struct MultiShardTraits {
  using Engine = MultiQueryEngine;
  using Shardable = MultiShardableEngine;

  static SeqNum OutputSeq(const MultiOutput& o) { return o.output.seq; }
  static void StampMarker(const ShardRouter::Route& route, ShardOp* op) {
    op->trigger_queries = route.trigger_queries;
  }
  static void SyncPurge(Shardable* shardable, const ShardOp& op) {
    shardable->SyncPurgeTo(op.ts, op.trigger_queries);
  }
  /// Wrapper engines (NonShare, Hybrid) sample the combined sub-engine
  /// total once per event, so their window_peak is not a serial
  /// observation — merge boundary totals only.
  static bool BoundaryObjects(const Shardable* shardable) {
    return shardable->objects_sampled_at_boundaries();
  }
};

/// The single-query partition-parallel policy (docs/internals.md §13).
using ShardedExecutor = ShardedExecutorT<SingleShardTraits>;

/// The multi-query partition-parallel policy: the same executor over a
/// shared GROUP BY attribute, one engine-twin set for the whole workload
/// (docs/internals.md §15).
using MultiShardedExecutor = ShardedExecutorT<MultiShardTraits>;

extern template class ShardedExecutorT<SingleShardTraits>;
extern template class ShardedExecutorT<MultiShardTraits>;

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SHARDED_EXECUTOR_H_
