#ifndef ASEQ_ENGINE_ENGINE_H_
#define ASEQ_ENGINE_ENGINE_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/status.h"
#include "common/value.h"
#include "metrics/metrics.h"

namespace aseq {

namespace ckpt {
class Writer;
class Reader;
}  // namespace ckpt

/// \brief One aggregation result delivered by an engine.
struct Output {
  /// Arrival time of the TRIG event that produced the result (or the poll
  /// time for polled snapshots).
  Timestamp ts = 0;
  /// Sequence number of the producing event.
  SeqNum seq = 0;
  /// GROUP BY key; empty for ungrouped queries.
  std::optional<Value> group;
  /// The aggregate value: int64 for COUNT, double for SUM/AVG/MIN/MAX.
  /// Null when the match set is empty and the aggregate is undefined
  /// (AVG/MIN/MAX of nothing).
  Value value;

  std::string ToString() const;
};

/// \brief An Output attributed to one query of a multi-query workload.
struct MultiOutput {
  size_t query_index = 0;
  Output output;
};

/// \brief The evaluation engine interface, for one query (`OutputType` =
/// Output: the A-Seq engines DPC / SEM / HPC and the stack-based baseline)
/// or a whole workload (`OutputType` = MultiOutput: every query against
/// the shared stream in one pass, Sec. 4). The window slides on every
/// arrival (the paper's window semantics), so OnBatch both expires state
/// and processes each event in turn; TRIG arrivals append results to `out`.
template <class OutputType>
class BasicEngine {
 public:
  using OutputT = OutputType;

  virtual ~BasicEngine() = default;

  /// Processes a batch of events in arrival order; appends any results to
  /// `out` (left untouched otherwise). Events must have non-decreasing
  /// timestamps and strictly increasing sequence numbers. The only entry
  /// point: every batching of a stream — one event per call included —
  /// yields byte-identical output sequences and identical EngineStats
  /// (modulo the batch counters). Engines amortize per-event overheads
  /// across the batch: window-expiry checks and role/hash lookups.
  virtual void OnBatch(std::span<const Event> batch,
                       std::vector<OutputT>* out) = 0;

  /// A batch of one event.
  void OnEvent(const Event& e, std::vector<OutputT>* out) {
    OnBatch(std::span<const Event>(&e, 1), out);
  }

  /// Reports the current aggregation value(s) as of time `now` (expired
  /// state excluded), without consuming an event — SEM step (4): "if an
  /// output result were to be required at this time". Grouped queries
  /// report one output per group with a non-zero/defined value; a workload
  /// orders its outputs by query index.
  virtual std::vector<OutputT> Poll(Timestamp now) = 0;

  /// Execution statistics (object accounting per DESIGN.md).
  virtual const EngineStats& stats() const = 0;

  /// Serializes the engine's complete dynamic state — everything that is
  /// not rebuilt by constructing the engine for the same query or
  /// workload — so that Restore() on a freshly constructed twin reproduces
  /// byte-identical outputs and stats for the remainder of the stream.
  /// Engines write only fixed-width, length-prefixed primitives through
  /// the Writer (see docs/internals.md §10 for the per-engine payloads).
  virtual Status Checkpoint(ckpt::Writer* writer) const {
    (void)writer;
    return Status::Unsupported(name() + " does not support checkpointing");
  }

  /// Inverse of Checkpoint: loads the serialized state into this engine.
  /// Must be called on a freshly constructed engine for the same query; a
  /// malformed payload fails with a descriptive Status (the engine is then
  /// in an unspecified state and must be discarded, but no UB occurs).
  virtual Status Restore(ckpt::Reader* reader) {
    (void)reader;
    return Status::Unsupported(name() + " does not support checkpointing");
  }

  /// Human-readable engine name ("A-Seq(SEM)", "StackBased", ...).
  virtual std::string name() const = 0;
};

/// Single-query engines.
using QueryEngine = BasicEngine<Output>;
/// Multi-query (workload) engines.
using MultiQueryEngine = BasicEngine<MultiOutput>;

/// \brief Optional capability interface for engines whose grouped state
/// can be hash-partitioned across independent twin instances (see
/// exec::ShardedExecutor), single-query and workload engines alike.
/// Engines opt in by also deriving from this; the executor discovers
/// support with a dynamic_cast plus shardable() and falls back to serial
/// execution otherwise (the reordering and change-detection wrappers and
/// the stack-based baseline never shard).
///
/// A shardable engine promises that events whose GROUP BY key values
/// differ touch disjoint state *except* for window expiry: a trigger
/// event purges expired state across every partition of the engines
/// owning the triggered queries, not only its own key's. SyncPurgeTo
/// replicates exactly that cross-partition purge — no output, no
/// work-unit charge, only object expiry — so a shard that observes a
/// purge marker for a trigger it does not own ends up byte-identical to
/// its slice of the serial engine.
class ShardableEngine {
 public:
  virtual ~ShardableEngine() = default;

  /// True when this instance's query or workload actually supports
  /// partitioned execution (a workload engine answers per workload, e.g.
  /// "every query groups by one shared attribute").
  virtual bool shardable() const { return true; }

  /// Applies the cross-partition purges that the trigger event at `now`
  /// performs for the triggered workload query indexes `trigger_queries`
  /// (ascending) on state the trigger's own key does not cover. A
  /// single-query engine has only query 0 and ignores the list.
  virtual void SyncPurgeTo(Timestamp now,
                           std::span<const size_t> trigger_queries) = 0;

  /// Mutable stats access for the executor's per-event object-peak
  /// windows (ObjectCounter::BeginPeakWindow) — the merge needs mid-event
  /// maxima, which const stats() cannot expose.
  virtual EngineStats* shard_mutable_stats() = 0;
};

}  // namespace aseq

#endif  // ASEQ_ENGINE_ENGINE_H_
