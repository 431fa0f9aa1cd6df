#ifndef ASEQ_EXEC_SERIAL_EXECUTOR_H_
#define ASEQ_EXEC_SERIAL_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/execution_policy.h"

namespace aseq {
namespace exec {

// ---- The serial execution core: the one run loop that takes an engine. ----
//
// RunSerial is the one implementation of the batched serial loop: borrow
// the next batch from the source, assign sequence numbers (from
// options.start_offset), feed OnBatch, collect or sink the outputs, and
// checkpoint at due batch boundaries. SerialExecutorT, the CLI, the
// benches and the examples all drive engines through it. `buffers`
// (optional) is caller-owned output scratch reused clear-not-shrink
// across runs; null uses per-run scratch. `engine` may point to any
// engine class: the output type is deduced from its BasicEngine base.
// Defined for the two output types, Output and MultiOutput.

template <class OutputT>
BasicRunResult<OutputT> RunSerial(const RunOptions& options,
                                  StreamSource* source,
                                  BasicEngine<OutputT>* engine,
                                  SerialBuffers* buffers = nullptr);

/// Runs pre-built events through the serial core; each batch is a copy of
/// its slice (ConstVectorSource), so the caller's events are never
/// restamped and a vector can be replayed into any number of runs.
template <class OutputT>
BasicRunResult<OutputT> RunSerial(const RunOptions& options,
                                  const std::vector<Event>& events,
                                  BasicEngine<OutputT>* engine,
                                  SerialBuffers* buffers = nullptr) {
  ConstVectorSource source(&events);
  return RunSerial(options, &source, engine, buffers);
}

/// \brief The single-threaded policy: owns one engine (QueryEngine or
/// MultiQueryEngine) and drives it on the calling thread through
/// RunSerial.
template <class EngineT>
class SerialExecutorT : public ExecutionPolicyT<EngineT> {
 public:
  using RunResultT = typename ExecutionPolicyT<EngineT>::RunResultT;

  SerialExecutorT(const RunOptions& options, std::unique_ptr<EngineT> engine);

  std::string name() const override { return engine_->name(); }
  size_t num_shards() const override { return 1; }

  RunResultT Run(StreamSource* source) override;

  /// The engine's stats with this executor's own rows folded in.
  const EngineStats& stats() const override {
    stats_ = engine_->stats();
    FoldCoordinatorStats(coord_counts_, &stats_);
    return stats_;
  }
  std::span<const double> shard_busy_seconds() const override {
    return {&busy_seconds_, 1};
  }

  Status Restore(const std::string& path, uint64_t* stream_offset) override;

  EngineT* serial_engine() override { return engine_.get(); }

 private:
  RunOptions options_;
  std::unique_ptr<EngineT> engine_;
  SerialBuffers buffers_;
  double busy_seconds_ = 0;  // == elapsed_seconds of the last run
  /// The coordinator-owned kStatsFields rows of the last run: only
  /// fault_injected is counted serially.
  EngineStats coord_counts_;
  /// stats()'s composed view; mutable because stats() is const.
  mutable EngineStats stats_;
};

extern template class SerialExecutorT<QueryEngine>;
extern template class SerialExecutorT<MultiQueryEngine>;

}  // namespace exec
}  // namespace aseq

#endif  // ASEQ_EXEC_SERIAL_EXECUTOR_H_
