#ifndef ASEQ_MULTI_NONSHARED_ENGINE_H_
#define ASEQ_MULTI_NONSHARED_ENGINE_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "query/compiled_query.h"

namespace aseq {

/// \brief Baseline multi-query execution: one independent single-query
/// engine per workload query, every event fed to every engine.
///
/// The "NonShare" competitor of Fig. 16 (with A-Seq engines inside) and the
/// "SASE" competitor of Fig. 15 (with stack-based engines inside).
///
/// Admission runs inside the wrapped engines: each carries its own compiled
/// plan::AdmissionProgram, so every query pays its full per-event admission
/// cost independently — exactly the redundancy the shared engines remove.
///
/// Shardability is delegated: the wrapper shards iff every sub-engine is a
/// ShardableEngine (each query's state hash-partitions independently), and
/// a purge marker for a set of triggered queries forwards to exactly those
/// sub-engines — the serial wrapper's sub-engines purge lazily at their own
/// trigger events, never at siblings'.
class NonSharedEngine : public MultiQueryEngine, public MultiShardableEngine {
 public:
  /// Wraps pre-built engines (one per query).
  NonSharedEngine(std::vector<std::unique_ptr<QueryEngine>> engines,
                  std::string name);

  /// Builds one A-Seq engine per query.
  static Result<std::unique_ptr<NonSharedEngine>> CreateAseq(
      const std::vector<CompiledQuery>& queries);

  /// Builds one stack-based engine per query.
  static std::unique_ptr<NonSharedEngine> CreateStackBased(
      const std::vector<CompiledQuery>& queries);

  /// Sub-engines see events one at a time (the combined object peak is
  /// sampled per event and outputs interleave per arrival, so deeper
  /// batching would change observable stats); the work-unit summation is
  /// hoisted to once per batch.
  void OnBatch(std::span<const Event> batch,
               std::vector<MultiOutput>* out) override;
  /// Polls every sub-engine in query order.
  std::vector<MultiOutput> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  /// Serializes the wrapper's own accounting plus every sub-engine's
  /// payload in query order.
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return name_; }

  QueryEngine* engine(size_t i) { return engines_[i].get(); }
  size_t num_queries() const { return engines_.size(); }

  /// MultiShardableEngine: shards iff every sub-engine does.
  bool shardable() const override;
  void SyncPurgeTo(Timestamp now,
                   std::span<const size_t> trigger_queries) override;
  /// The wrapper samples the combined sub-engine total once per event.
  bool objects_sampled_at_boundaries() const override { return true; }
  EngineStats* shard_mutable_stats() override { return &stats_; }

 private:
  /// Feeds one event to every sub-engine and samples the combined
  /// live-object total (work-unit summation deferred to SumWorkUnits).
  void ProcessEvent(const Event& e, std::vector<MultiOutput>* out);
  /// Refreshes stats_.work_units and the adm_* admission counters from
  /// the sub-engines.
  void SumWorkUnits();

  std::vector<std::unique_ptr<QueryEngine>> engines_;
  std::string name_;
  EngineStats stats_;
  int64_t last_objects_ = 0;
  std::vector<Output> scratch_;
};

}  // namespace aseq

#endif  // ASEQ_MULTI_NONSHARED_ENGINE_H_
