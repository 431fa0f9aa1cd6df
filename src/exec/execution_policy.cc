#include "exec/execution_policy.h"

#include <utility>

#include "exec/serial_executor.h"
#include "exec/shard_router.h"
#include "exec/sharded_executor.h"

namespace aseq {
namespace exec {

namespace {

/// The engine opts in: it implements ShardableEngine and accepts this
/// query or workload. The reordering and change-detection wrappers, whose
/// buffering is inherently cross-key-sequential, and the stack-based
/// baseline lack the interface.
template <class Engine>
bool EngineShards(Engine* engine) {
  auto* shardable = dynamic_cast<ShardableEngine*>(engine);
  return shardable != nullptr && shardable->shardable();
}

/// Builds the first engine; runs serially for one shard or when sharding
/// is refused (with the reason); else builds the twins and the sharded
/// executor.
template <class Engine, class Policy = ExecutionPolicyT<Engine>>
Result<std::unique_ptr<Policy>> MakePolicyT(
    std::span<const CompiledQuery> queries,
    const EngineFactoryT<Engine>& factory,
    const RunOptions& options, std::string* fallback_reason) {
  if (fallback_reason != nullptr) fallback_reason->clear();
  ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> first, factory());
  const size_t shards = options.num_shards == 0 ? 1 : options.num_shards;
  if (shards == 1) {
    return std::unique_ptr<Policy>(
        new SerialExecutorT<Engine>(options, std::move(first)));
  }

  std::string reason = PlanSharding(queries).reason;
  if (reason.empty() && !EngineShards(first.get())) {
    reason = "engine '" + first->name() + "' does not support sharding";
  }
  if (!reason.empty()) {
    if (fallback_reason != nullptr) *fallback_reason = reason;
    return std::unique_ptr<Policy>(
        new SerialExecutorT<Engine>(options, std::move(first)));
  }

  std::vector<std::unique_ptr<Engine>> engines;
  engines.reserve(shards);
  engines.push_back(std::move(first));
  for (size_t i = 1; i < shards; ++i) {
    ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> twin, factory());
    if (!EngineShards(twin.get())) {
      return Status::InvalidArgument(
          "engine factory is not deterministic: shard 0 supports sharding "
          "but shard " +
          std::to_string(i) + " ('" + twin->name() + "') does not");
    }
    engines.push_back(std::move(twin));
  }
  return std::unique_ptr<Policy>(new ShardedExecutorT<Engine>(
      options, std::move(engines), ShardRouter(queries, shards), factory));
}

}  // namespace

Result<std::unique_ptr<ExecutionPolicy>> MakePolicy(
    const CompiledQuery& query, const EngineFactory& factory,
    const RunOptions& options, std::string* fallback_reason) {
  return MakePolicyT<QueryEngine>(
      std::span<const CompiledQuery>(&query, 1), factory, options,
      fallback_reason);
}

Result<std::unique_ptr<MultiExecutionPolicy>> MakeMultiPolicy(
    std::span<const CompiledQuery> queries, const MultiEngineFactory& factory,
    const RunOptions& options, std::string* fallback_reason) {
  return MakePolicyT<MultiQueryEngine>(queries, factory, options,
                                       fallback_reason);
}

}  // namespace exec
}  // namespace aseq
