#ifndef ASEQ_MULTI_HYBRID_ENGINE_H_
#define ASEQ_MULTI_HYBRID_ENGINE_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "query/compiled_query.h"

namespace aseq {

/// \brief Workload router: executes an arbitrary mix of queries with the
/// best applicable strategy per query.
///
/// The paper presents prefix sharing (Sec. 4.1) and Chop-Connect (Sec. 4.2)
/// as tools a multi-query optimizer deploys; this engine is that optimizer's
/// executable form for whole workloads:
///
///  1. queries eligible for sharing (COUNT, positive-only, no predicates,
///     windowed; ungrouped or GROUP BY one attribute) are grouped by
///     (window, group attribute) — the sharing engines require uniform
///     grouping;
///     * within such a group, queries that share their START type with
///       at least one other query run in a **PreTree** engine;
///     * the rest of the group runs **Chop-Connect** under the greedy
///       substring plan when it finds sharing, else unshared A-Seq;
///  2. remaining A-Seq-able queries (negation, predicates, multi-attribute
///     partitioning, SUM/AVG/MIN/MAX, unbounded windows) run one A-Seq
///     engine each;
///  3. queries with general join predicates fall back to the stack-based
///     baseline (the only engine that can evaluate them).
///
/// Admission flows through the sub-engines: each wrapped engine runs its
/// own compiled plan::AdmissionProgram (typed predicate opcodes + dense
/// role dispatch), and the shared engines use the programs' type-relevance
/// test as their event-level early-out.
///
/// Output `query_index`es always refer to the original workload order.
///
/// Shardability is delegated: the hybrid shards iff every routed part does
/// (multi parts via MultiShardableEngine::shardable, single parts via the
/// ShardableEngine cast), and a purge marker forwards to exactly the parts
/// owning triggered queries — mirroring which parts the serial hybrid
/// would have purged at that trigger.
class HybridMultiEngine : public MultiQueryEngine,
                          public MultiShardableEngine {
 public:
  static Result<std::unique_ptr<HybridMultiEngine>> Create(
      std::vector<CompiledQuery> queries);

  /// Parts see events one at a time (see NonSharedEngine::OnBatch — the
  /// combined object peak is sampled per event); only the work-unit
  /// summation is hoisted per batch.
  void OnBatch(std::span<const Event> batch,
               std::vector<MultiOutput>* out) override;
  /// Polls every part and orders the results by workload query index.
  std::vector<MultiOutput> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  /// Serializes the wrapper's own accounting plus every part's payload
  /// (multi parts, then single parts, in Create()'s deterministic order).
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return "Hybrid"; }

  /// Human-readable routing decisions ("Q1 -> PreTree", ...), one per
  /// workload query, in workload order.
  const std::vector<std::string>& routing() const { return routing_; }
  /// True when some queries run in a shared PreTree or Chop-Connect part.
  /// Those parts run no compiled admission, so stats()'s adm_* counters
  /// then cover only the per-query parts.
  bool shares() const { return !multi_parts_.empty(); }

  /// MultiShardableEngine: shards iff every routed part does.
  bool shardable() const override;
  void SyncPurgeTo(Timestamp now,
                   std::span<const size_t> trigger_queries) override;
  /// The wrapper samples the combined member-engine total once per event.
  bool objects_sampled_at_boundaries() const override { return true; }
  EngineStats* shard_mutable_stats() override { return &stats_; }

 private:
  /// A sub-engine handling a subset of the workload; `global_index` maps
  /// its local query indexes back to workload positions.
  struct MultiPart {
    std::unique_ptr<MultiQueryEngine> engine;
    std::vector<size_t> global_index;
  };
  struct SinglePart {
    std::unique_ptr<QueryEngine> engine;
    size_t global_index;
  };

  HybridMultiEngine() = default;

  /// Feeds one event to every part and samples the combined live-object
  /// total (work-unit summation deferred to SumWorkUnits).
  void ProcessEvent(const Event& e, std::vector<MultiOutput>* out);
  /// Refreshes stats_.work_units and the adm_* admission counters from
  /// all parts.
  void SumWorkUnits();

  std::vector<MultiPart> multi_parts_;
  std::vector<SinglePart> single_parts_;
  std::vector<std::string> routing_;
  EngineStats stats_;
  int64_t last_objects_ = 0;
  std::vector<MultiOutput> multi_scratch_;
  std::vector<Output> single_scratch_;
};

/// Builds one workload engine per call; the sharded policy calls it once
/// per shard.
using MultiEngineFactory =
    std::function<Result<std::unique_ptr<MultiQueryEngine>>()>;

/// The sharing strategies by name: nonshare (A-Seq per query), sase
/// (stack-based per query), pretree, cc (Chop-Connect under
/// PlanChopConnect's plan) and hybrid. The factory holds `qs` by
/// reference. An unknown name is InvalidArgument.
Result<MultiEngineFactory> MakeStrategyFactory(
    const std::string& strategy, const std::vector<CompiledQuery>& qs);

}  // namespace aseq

#endif  // ASEQ_MULTI_HYBRID_ENGINE_H_
