#ifndef ASEQ_EXEC_EXECUTION_POLICY_H_
#define ASEQ_EXEC_EXECUTION_POLICY_H_

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "query/compiled_query.h"
#include "stream/stream_source.h"

namespace aseq {
namespace exec {

/// Builds one engine instance for the query or workload being executed.
/// The sharded policy calls this once per shard — every call must return
/// an identically configured, freshly constructed engine.
template <class EngineT>
using EngineFactoryT = std::function<Result<std::unique_ptr<EngineT>>()>;
using EngineFactory = EngineFactoryT<QueryEngine>;
using MultiEngineFactory = EngineFactoryT<MultiQueryEngine>;

/// \brief How a run drives its engine(s): serial on the calling thread, or
/// hash-partitioned across per-shard engine twins on worker threads.
/// `EngineT` is QueryEngine for a single query, MultiQueryEngine for a
/// workload; nothing else differs.
///
/// Whatever the policy, the contract is exact serial equivalence: outputs
/// in global sequence order (ties broken by each event's own emission
/// order) and EngineStats byte-identical to the serial run (modulo the
/// batch counters, which record how the events were batched).
template <class EngineT>
class ExecutionPolicyT {
 public:
  using RunResultT = BasicRunResult<typename EngineT::OutputT>;

  virtual ~ExecutionPolicyT() = default;

  /// Policy + engine description, e.g. "A-Seq(HPC)" (serial) or
  /// "Sharded[Hybrid]" (sharded).
  virtual std::string name() const = 0;
  virtual size_t num_shards() const = 0;

  /// Runs the whole source through the policy.
  virtual RunResultT Run(StreamSource* source) = 0;

  /// Runs pre-built events through the policy; the caller's vector is
  /// const, so each batch is a copy of its slice (ConstVectorSource).
  RunResultT RunEvents(const std::vector<Event>& events) {
    ConstVectorSource source(&events);
    return Run(&source);
  }

  /// The logical engine's stats: the engine's own for serial, the exact
  /// merged view for sharded; either way with the executor's
  /// coordinator-owned rows (kStatsFields) folded in.
  virtual const EngineStats& stats() const = 0;

  /// Per-shard busy seconds of the last run — wall time spent executing
  /// events inside each shard. max(shard_busy_seconds) is the critical
  /// path, the hardware-independent scaling metric the shard-sweep benches
  /// report alongside wall clock.
  virtual std::span<const double> shard_busy_seconds() const = 0;

  /// Restores engine state from a snapshot (an engine snapshot for
  /// serial, the multi-shard container for sharded) and aims subsequent
  /// runs at the recorded stream offset: `*stream_offset` is returned and
  /// the policy's start_offset is updated, so the caller feeds only the
  /// trace tail.
  virtual Status Restore(const std::string& path, uint64_t* stream_offset) = 0;

  /// The engine driven on the calling thread, or null for sharded
  /// policies (per-shard engines are internal).
  virtual EngineT* serial_engine() { return nullptr; }
};

using ExecutionPolicy = ExecutionPolicyT<QueryEngine>;
using MultiExecutionPolicy = ExecutionPolicyT<MultiQueryEngine>;

/// Builds the policy for `options.num_shards`: the sharded executor when
/// more than one shard is requested, the query shards safely
/// (PlanSharding), and the engine opts in (ShardableEngine::shardable) —
/// else the serial executor. When sharding was requested but refused,
/// `*fallback_reason` (optional) receives why — the answer is then still
/// exact, just serial; a sharded policy is never allowed to be wrong.
Result<std::unique_ptr<ExecutionPolicy>> MakePolicy(
    const CompiledQuery& query, const EngineFactory& factory,
    const RunOptions& options, std::string* fallback_reason = nullptr);

/// The workload counterpart of MakePolicy: shards when every query shards
/// safely (PlanSharding over the whole workload) and the engine opts in.
Result<std::unique_ptr<MultiExecutionPolicy>> MakeMultiPolicy(
    std::span<const CompiledQuery> queries, const MultiEngineFactory& factory,
    const RunOptions& options, std::string* fallback_reason = nullptr);

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_EXECUTION_POLICY_H_
