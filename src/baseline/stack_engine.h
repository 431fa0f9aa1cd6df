#ifndef ASEQ_BASELINE_STACK_ENGINE_H_
#define ASEQ_BASELINE_STACK_ENGINE_H_

#include <deque>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/engine.h"
#include "plan/admission.h"
#include "query/compiled_query.h"

namespace aseq {

/// \brief The state-of-the-art two-step baseline (Sec. 2.2): SASE-style
/// stack-based sequence construction followed by post-aggregation.
///
/// One stack per positive pattern position. Each arriving instance is
/// appended to the stacks of the positions it qualifies for (descending
/// position order, so an instance never matches itself) and is augmented
/// with a pointer to the most recent entry of the previous stack — the DFS
/// adjacency pointer `ptr_i` of the paper. An instance of the last type
/// triggers a depth-first search along the pointers that constructs every
/// new sequence match; matches are retained (that is the memory cost the
/// paper measures) and aggregated, with negation applied as a post-filter
/// over the constructed matches and expired matches purged as the window
/// slides.
///
/// Negation is handled the way the paper describes the state of the art
/// (Sec. 3.3): every *positive* match is materialized and retained, and the
/// negation check runs as a **post-filter** when results are produced —
/// "an obvious problem with this later-filter-step solution is that it
/// generates a potentially huge number of intermediate results". This is
/// what Fig. 14(b) measures.
///
/// Unlike A-Seq this engine also supports arbitrary join predicates, since
/// it has the full match in hand; it doubles as the correctness oracle for
/// large streams.
class StackEngine : public QueryEngine {
 public:
  explicit StackEngine(CompiledQuery query);

  /// Skips per-event purge calls that a cached next-expiry lower bound
  /// proves are no-ops (state and stats do not depend on the batching).
  void OnBatch(std::span<const Event> batch, std::vector<Output>* out) override;
  std::vector<Output> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return "StackBased"; }

  const CompiledQuery& query() const { return query_; }

  /// Number of currently retained (non-expired) matches (testing hook).
  size_t num_live_matches() const { return live_matches_; }

 private:
  struct StackEntry {
    Event event;
    /// Number of entries ever inserted into the previous stack at the time
    /// this entry was pushed; the DFS explores previous-stack entries with
    /// absolute index < ptr.
    uint64_t ptr;
  };

  struct PosStack {
    std::deque<StackEntry> entries;
    /// Absolute index of entries.front(); grows as expired entries pop.
    uint64_t base = 0;
    uint64_t total_pushed() const { return base + entries.size(); }
  };

  /// A retained negated instance (for the post-filter).
  struct NegEvent {
    SeqNum seq;
    Timestamp ts;
    /// Partition-part values covering the negated element (null when the
    /// part does not constrain it).
    PartitionKey key;
    std::vector<bool> covered;
  };

  /// Aggregation bookkeeping for one group (or the single global group).
  struct GroupAgg {
    uint64_t count = 0;
    double sum = 0;
    std::multiset<double> values;  // MIN/MAX only
  };

  struct ExpiryItem {
    Timestamp exp;
    Value group;  // null Value when ungrouped
    double value;
    bool operator>(const ExpiryItem& other) const { return exp > other.exp; }
  };

  /// A retained positive match awaiting the late negation filter: per
  /// negation role the (lo, hi) sequence bounds of the adjacent positive
  /// instances, plus what the final aggregation needs.
  struct LazyMatch {
    Timestamp exp;  // INT64_MAX when unbounded
    double value;
    Value group;
    PartitionKey key;  // trigger key for negation partition coverage
    std::vector<std::pair<SeqNum, SeqNum>> bounds;
  };

  struct LazyExpiry {
    Timestamp exp;
    uint64_t id;
    bool operator>(const LazyExpiry& other) const { return exp > other.exp; }
  };

  void PurgeExpired(Timestamp now);
  /// Exact earliest expiration over all retained state (stack entries,
  /// negated instances, retained matches), or Timestamp max when nothing
  /// can expire.
  Timestamp ComputeNextExpiry() const;
  /// Role dispatch, stack pushes, and trigger handling for one event; the
  /// caller has already purged expired state as of e.ts().
  void ProcessEvent(const Event& e, std::vector<Output>* out);
  /// DFS from a freshly pushed trigger entry; records every valid match.
  void ConstructMatches(Timestamp now);
  void RecordMatch(Timestamp now);
  /// Late filter: does the retained match survive the negated instances?
  bool LazyMatchValid(const LazyMatch& match) const;
  bool PassesJoinPredicates() const;
  Output MakeOutput(Timestamp ts, SeqNum seq, const Value* group);
  /// Negation-query output path: scans and post-filters retained matches.
  Output MakeLazyOutput(Timestamp ts, SeqNum seq, const Value* group);

  CompiledQuery query_;
  EngineStats stats_;
  size_t length_;        // L
  int carrier_pos_;      // 0-based positive carrier position; -1 for COUNT
  bool grouped_;
  /// Compiled admission program (src/plan/): dense role dispatch + typed
  /// local-predicate opcodes; AdmitRole fails exactly when the interpreted
  /// QualifiesFor/PartitionKeyFor pair rejected the instance. Borrows
  /// query_'s predicate storage — declared after it.
  plan::AdmissionProgram program_;
  std::vector<PosStack> stacks_;  // per positive position
  /// Negated roles in pattern order; parallel retained-instance deques.
  std::vector<Role> neg_roles_;
  std::vector<std::deque<NegEvent>> neg_events_;
  /// Retained matches (positive-only queries): running aggregates per group
  /// + expiry heap.
  std::map<Value, GroupAgg, ValueTotalLess> groups_;
  std::priority_queue<ExpiryItem, std::vector<ExpiryItem>,
                      std::greater<ExpiryItem>>
      expiry_;
  /// Retained matches (negation queries): materialized positive matches,
  /// post-filtered at output time.
  bool lazy_ = false;
  std::unordered_map<uint64_t, LazyMatch> lazy_matches_;
  uint64_t next_lazy_id_ = 0;
  std::priority_queue<LazyExpiry, std::vector<LazyExpiry>,
                      std::greater<LazyExpiry>>
      lazy_expiry_;
  uint64_t live_matches_ = 0;
  /// Lower bound on the earliest live expiration; PurgeExpired(now) is a
  /// no-op for now < next_expiry_, letting OnBatch skip the purge scan.
  /// PurgeExpired recomputes it exactly; event processing tightens it with
  /// min(next_expiry_, e.ts() + window).
  Timestamp next_expiry_ = std::numeric_limits<Timestamp>::max();

  /// DFS scratch: the partially built match, positions L-1 down to 0.
  std::vector<const StackEntry*> dfs_match_;
};

}  // namespace aseq

#endif  // ASEQ_BASELINE_STACK_ENGINE_H_
