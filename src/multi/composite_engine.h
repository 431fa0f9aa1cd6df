#ifndef ASEQ_MULTI_COMPOSITE_ENGINE_H_
#define ASEQ_MULTI_COMPOSITE_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "exec/execution_policy.h"
#include "query/compiled_query.h"

namespace aseq {

/// \brief A workload engine made of parts, each one engine over a subset
/// of the workload's queries. The factories are the sharing plans:
///
///  * CreateNonShare / CreateSase — the empty plan: one part per query, in
///    query order, an A-Seq engine ("NonShare" of Fig. 16) or a
///    stack-based one ("SASE" of Fig. 15). Each query pays its full
///    per-event admission and counting — exactly the redundancy the
///    shared engines remove.
///  * CreateHybrid — the multi-query optimizer the paper deploys prefix
///    sharing (Sec. 4.1) and Chop-Connect (Sec. 4.2) in, for arbitrary
///    workloads:
///     1. queries eligible for sharing (CheckCountShape's COUNT,
///        positive-only, no predicates, windowed, ungrouped or GROUP BY
///        one attribute; distinct types per pattern) are grouped by
///        (window, group attribute) — the sharing engines require uniform
///        grouping;
///        * within such a group, queries that share their START type with
///          at least one other query run in a **PreTree** part;
///        * the rest of the group runs in a **Chop-Connect** part under
///          the greedy substring plan when it finds sharing, else one
///          A-Seq part per query;
///     2. remaining A-Seq-able queries (negation, predicates,
///        multi-attribute partitioning, SUM/AVG/MIN/MAX, unbounded
///        windows) run one A-Seq part each;
///     3. queries with general join predicates fall back to the
///        stack-based baseline (the only engine that can evaluate them).
///
/// Every part sees every event, one event at a time, shared parts first:
/// the combined live-object peak is sampled after every event, and
/// outputs interleave across parts per arrival. Only the sums of the
/// parts' counters (kStatsFields's kSumOfParts rows) are hoisted to once
/// per batch. Output `query_index`es refer to the workload order.
///
/// Admission runs inside the parts: each per-query part carries its own
/// compiled plan::AdmissionProgram, and the shared parts skip events of
/// types outside their queries' patterns.
///
/// Shardability is delegated: the composite shards iff every part does,
/// and a purge marker forwards to exactly the parts owning triggered
/// queries — the parts a serial trigger purges, since a part purges
/// lazily at its own triggers, never at another part's.
class CompositeEngine : public MultiQueryEngine, public ShardableEngine {
 public:
  /// One A-Seq part per query ("NonShare(A-Seq)").
  static Result<std::unique_ptr<CompositeEngine>> CreateNonShare(
      const std::vector<CompiledQuery>& queries);
  /// One stack-based part per query ("NonShare(StackBased)").
  static std::unique_ptr<CompositeEngine> CreateSase(
      const std::vector<CompiledQuery>& queries);
  /// Routes each query to a part as the class comment describes
  /// ("Hybrid"). An empty workload is InvalidArgument.
  static Result<std::unique_ptr<CompositeEngine>> CreateHybrid(
      std::vector<CompiledQuery> queries);

  void OnBatch(std::span<const Event> batch,
               std::vector<MultiOutput>* out) override;
  /// Polls every part and orders the results by workload query index.
  std::vector<MultiOutput> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  /// Serializes the composite's own accounting plus every part's payload
  /// in part order.
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return name_; }

  /// Human-readable routing decisions ("PreTree(win=1000)",
  /// "A-Seq(HPC)", ...), one per workload query, in workload order.
  const std::vector<std::string>& routing() const { return routing_; }
  /// True when some queries run in a shared PreTree or Chop-Connect part.
  /// Those parts run no compiled admission, so stats()'s adm_* counters
  /// then cover only the per-query parts.
  bool shares() const;

  /// ShardableEngine: shards iff every part does.
  bool shardable() const override;
  void SyncPurgeTo(Timestamp now,
                   std::span<const size_t> trigger_queries) override;
  EngineStats* shard_mutable_stats() override { return &stats_; }

 private:
  /// A shared multi-query engine or one query's engine; `global_index`
  /// maps the part's local query indexes to workload positions.
  struct Part {
    std::unique_ptr<MultiQueryEngine> shared;
    std::unique_ptr<QueryEngine> single;
    std::vector<size_t> global_index;

    /// Calls `fn` with whichever engine the part holds.
    template <class Fn>
    decltype(auto) Visit(Fn&& fn) const {
      return shared != nullptr ? fn(*shared) : fn(*single);
    }
    const EngineStats& stats() const {
      return Visit([](const auto& e) -> const EngineStats& {
        return e.stats();
      });
    }
    /// Null when the engine cannot shard.
    ShardableEngine* shardable() const {
      return Visit([](auto& e) { return dynamic_cast<ShardableEngine*>(&e); });
    }
  };

  CompositeEngine(std::string name, size_t num_queries)
      : name_(std::move(name)), routing_(num_queries) {}

  void AddShared(std::unique_ptr<MultiQueryEngine> engine,
                 std::vector<size_t> queries, const std::string& route);
  /// `route` defaults to the engine's name.
  void AddSingle(std::unique_ptr<QueryEngine> engine, size_t query,
                 std::string route = "");

  /// Feeds one event to every part and samples the combined live-object
  /// total (the parts' counter sums deferred to SumParts).
  void ProcessEvent(const Event& e, std::vector<MultiOutput>* out);
  /// The parts' combined live-object count.
  int64_t LiveObjects() const;
  /// Moves stats_.objects to LiveObjects() in one step
  /// (ObjectCounter::Sample: a boundary value, so a sharded run merges no
  /// mid-event peak the serial composite never observed).
  void SampleObjects();
  /// Refreshes stats_'s kSumOfParts rows (work units, ht_* and adm_*)
  /// from the parts.
  void SumParts();

  std::string name_;
  std::vector<Part> parts_;
  std::vector<std::string> routing_;
  EngineStats stats_;
  std::vector<MultiOutput> shared_scratch_;
  std::vector<Output> single_scratch_;
};

/// The sharing strategies by name: nonshare (A-Seq per query), sase
/// (stack-based per query), pretree, cc (Chop-Connect under
/// PlanChopConnect's plan) and hybrid. The factory holds `qs` by
/// reference. An unknown name is InvalidArgument.
Result<exec::MultiEngineFactory> MakeStrategyFactory(
    const std::string& strategy, const std::vector<CompiledQuery>& qs);

}  // namespace aseq

#endif  // ASEQ_MULTI_COMPOSITE_ENGINE_H_
