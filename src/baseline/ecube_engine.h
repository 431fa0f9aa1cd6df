#ifndef ASEQ_BASELINE_ECUBE_ENGINE_H_
#define ASEQ_BASELINE_ECUBE_ENGINE_H_

#include <deque>
#include <limits>
#include <memory>
#include <queue>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "query/compiled_query.h"

namespace aseq {

/// \brief ECube-style multi-query baseline (Liu et al., SIGMOD 2011; the
/// paper's Fig. 15 competitor): the matches of a sub-pattern common to the
/// workload are *constructed once* and pipelined into every query; each
/// query still materializes its full matches and counts them independently.
///
/// Sharing construction saves the 2-3x the paper reports, but the
/// per-query match materialization remains — which is exactly the gap
/// A-Seq's match-free counting closes.
///
/// Supported workload shape (what the paper's multi-query experiments use):
/// COUNT aggregates over positive-only patterns of the form
/// `private-prefix + shared-substring + private-tail` with one common
/// sliding window; no predicates, negation, or grouping.
class EcubeEngine : public MultiQueryEngine {
 public:
  /// Validates the workload shape and builds the engine. `shared_types`
  /// is the common substring as event type ids (length >= 1); every query's
  /// positive pattern must contain it contiguously exactly once.
  static Result<std::unique_ptr<EcubeEngine>> Create(
      std::vector<CompiledQuery> queries, std::vector<EventTypeId> shared_types);

  /// Skips per-event purge scans that a cached next-expiry lower bound
  /// proves are no-ops.
  void OnBatch(std::span<const Event> batch,
               std::vector<MultiOutput>* out) override;
  /// ECube has no poll surface: it reports nothing.
  std::vector<MultiOutput> Poll(Timestamp) override { return {}; }
  const EngineStats& stats() const override { return stats_; }
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return "ECube"; }

 private:
  struct StackEntry {
    SeqNum seq;
    Timestamp ts;
    uint64_t ptr;  // entries ever pushed to the previous stack at push time
  };

  struct PosStack {
    std::deque<StackEntry> entries;
    uint64_t base = 0;
    uint64_t total_pushed() const { return base + entries.size(); }
  };

  /// A constructed match of the shared substring.
  struct Composite {
    SeqNum start_seq;
    Timestamp start_ts;
    SeqNum end_seq;
    Timestamp end_ts;
  };

  /// Per-query composite-stack entry: a Composite plus the query-local
  /// adjacency pointer into the query's last prefix stack.
  struct CompositeEntry {
    Composite match;
    uint64_t prefix_ptr;
  };

  struct QueryState {
    size_t prefix_len = 0;  // private positions before the shared substring
    size_t tail_len = 0;    // private positions after it
    std::vector<PosStack> prefix_stacks;
    std::deque<CompositeEntry> composites;
    uint64_t composites_pushed = 0;
    uint64_t composites_base = 0;
    std::vector<PosStack> tail_stacks;
    // Retained full matches: running count + expiry by match start.
    uint64_t live_count = 0;
    std::priority_queue<Timestamp, std::vector<Timestamp>,
                        std::greater<Timestamp>>
        expiry;
  };

  EcubeEngine(std::vector<CompiledQuery> queries,
              std::vector<EventTypeId> shared_types);

  void Purge(Timestamp now);
  /// Exact earliest expiration over all retained state, or Timestamp max.
  Timestamp ComputeNextExpiry() const;
  /// Stack maintenance + triggers for one event (caller already purged).
  void ProcessEvent(const Event& e, std::vector<MultiOutput>* out);
  /// DFS over the shared stacks; appends new composites.
  void ConstructShared(Timestamp now, std::vector<Composite>* created);
  /// Counts new full matches of query q rooted at a new tail entry /
  /// freshly created composites.
  void CountNewMatches(size_t qi, Timestamp now);
  void DfsPrefix(size_t qi, int pos, uint64_t hi, SeqNum max_seq,
                 Timestamp now);
  void RecordMatch(size_t qi, Timestamp start_ts, Timestamp now);

  EngineStats stats_;
  std::vector<CompiledQuery> queries_;
  /// The queries' positive types, EventTypeId-indexed: an event whose type
  /// is outside every query's pattern touches no stack and is skipped
  /// after the event count.
  std::vector<uint8_t> type_relevant_;
  std::vector<EventTypeId> shared_types_;
  Timestamp window_ms_;

  std::vector<PosStack> shared_stacks_;
  std::vector<QueryState> states_;
  /// Lower bound on the earliest live expiration (see StackEngine).
  Timestamp next_expiry_ = std::numeric_limits<Timestamp>::max();

  // DFS scratch.
  std::vector<SeqNum> shared_dfs_;
  size_t dfs_qi_ = 0;
  Timestamp dfs_comp_start_ts_ = 0;
  // Newly created composites this event (for b==0 triggers and appends).
  std::vector<Composite> created_scratch_;
};

}  // namespace aseq

#endif  // ASEQ_BASELINE_ECUBE_ENGINE_H_
