#ifndef ASEQ_MULTI_PRETREE_ENGINE_H_
#define ASEQ_MULTI_PRETREE_ENGINE_H_

#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/engine.h"
#include "plan/admission.h"
#include "query/compiled_query.h"
#include "state/partition_store.h"
#include "state/window_clock.h"

namespace aseq {

/// \brief Prefix-sharing multi-query A-Seq via the PreTree (Sec. 4.1 /
/// Fig. 9).
///
/// The workload's patterns are organized into tries keyed by their START
/// type: each trie node represents one prefix pattern, shared by every
/// query whose pattern extends through it. Per live START instance one
/// *tree of counters* replaces the per-query PreCntrs; an arriving UPD
/// instance updates each shared node once — "A-Seq shares the computation
/// on the common prefix patterns for free".
///
/// Scope (matching the paper's multi-query experiments): COUNT aggregates,
/// positive-only patterns, no predicates, one common sliding window.
/// Workloads are either entirely ungrouped, or entirely GROUP BY one
/// shared attribute — the *grouped* mode, where every group value runs an
/// independent copy of the per-trie instance state in a
/// state::PartitionStore keyed by the group value, with HPC-style
/// partition-local purging driven by a state::WindowClock. Grouped
/// instances are shardable (ShardableEngine): the group key
/// partitions the whole engine state, and the only cross-partition
/// coupling is the clock advance at trigger time.
class PreTreeEngine : public MultiQueryEngine, public ShardableEngine {
 public:
  /// Validates the workload and builds the tries.
  static Result<std::unique_ptr<PreTreeEngine>> Create(
      std::vector<CompiledQuery> queries);

  /// Skips per-trie expiry scans that a cached next-expiry lower bound
  /// proves are no-ops.
  void OnBatch(std::span<const Event> batch,
               std::vector<MultiOutput>* out) override;
  std::vector<MultiOutput> Poll(Timestamp now) override;
  const EngineStats& stats() const override { return stats_; }
  Status Checkpoint(ckpt::Writer* writer) const override;
  Status Restore(ckpt::Reader* reader) override;
  std::string name() const override { return "PrefixShare(PreTree)"; }

  /// Total trie nodes across tries (testing hook: measures sharing).
  size_t num_trie_nodes() const;
  /// Number of live group partitions (grouped mode; testing hook).
  size_t num_partitions() const { return part_store_.size(); }

  /// ShardableEngine: grouped workloads shard by the group key.
  bool shardable() const override { return grouped_; }
  /// Replays the clock advance a trigger at `now` performs (grouped mode
  /// only; triggered queries all share this engine's one clock).
  void SyncPurgeTo(Timestamp now,
                   std::span<const size_t> trigger_queries) override;
  EngineStats* shard_mutable_stats() override { return &stats_; }

 private:
  /// "This type starts no trie" sentinel in trie_by_start_.
  static constexpr uint32_t kNoTrie = 0xFFFFFFFFu;

  /// One trie node = one shared prefix pattern (beyond the START type).
  struct Node {
    EventTypeId type;
    int parent;  // node index; -1 = the START itself
    size_t depth;  // 1 = first node below the START
  };

  /// A per-START-instance tree of counters (the shared PreCntr).
  struct Instance {
    Timestamp exp;
    std::vector<uint64_t> counts;  // per node
  };

  /// The static shape of one trie (identical across group partitions).
  struct Trie {
    EventTypeId start_type;
    std::vector<Node> nodes;
    /// Node indexes per event type (dense, EventTypeId-indexed),
    /// descending depth (duplicate-type safe).
    std::vector<std::vector<size_t>> update_index;
    /// (query, terminal node; -1 = the START node itself) pairs.
    std::vector<std::pair<size_t, int>> terminals;
    /// Queries triggered per event type (dense, EventTypeId-indexed).
    std::vector<std::vector<size_t>> trigger_index;
  };

  /// The dynamic state of one trie within one counting scope: its live
  /// START instances in arrival (== expiration) order.
  using TrieState = std::deque<Instance>;

  /// One group partition: its interned key (plus pinned hash; see
  /// state::PartitionStore) and per-trie instance state.
  struct PartState {
    container::InternedKey key;
    uint64_t hash = 0;
    std::vector<TrieState> tries;

    PartState(const container::InternedKey& k, uint64_t h, size_t n_tries)
        : key(k), hash(h), tries(n_tries) {}
  };

  explicit PreTreeEngine(std::vector<CompiledQuery> queries);

  Status Build();
  /// Expires the front (oldest) instances of one trie's state.
  void PurgeTrie(TrieState* st, Timestamp now);
  /// Expires START instances across tries and recomputes next_expiry_
  /// (ungrouped mode).
  void Purge(Timestamp now);
  /// UPD/START handling for one event against one counting scope (caller
  /// already purged `dyn`). No triggers — those are mode-specific and
  /// owned by the Process*Event callers.
  void ApplyUpdates(const Event& e, std::vector<TrieState>& dyn);
  /// Ungrouped mode: ApplyUpdates against dyn_ plus the trigger reports.
  void ProcessEvent(const Event& e, std::vector<MultiOutput>* out);
  /// Grouped mode: routes the event to its group partition (HPC-style
  /// partition-local purge), applies updates there, then handles triggers
  /// (clock advance + per-group report).
  void ProcessGroupedEvent(const Event& e, std::vector<MultiOutput>* out);
  /// Query qi's current total within one counting scope.
  uint64_t QueryTotal(size_t qi, const std::vector<TrieState>& dyn) const;

  /// Earliest live instance expiration across a partition's tries, or
  /// WindowClock::kNever when it holds no instances.
  Timestamp PartNextExpiry(const PartState& part) const;
  /// Pops every due clock entry, purging (and erasing when emptied) the
  /// named partitions — the grouped counterpart of the serial trigger's
  /// full purge sweep.
  void AdvanceClock(Timestamp now);

  void CheckpointTrieState(const TrieState& st, ckpt::Writer* writer) const;
  /// Counts the restored instances into stats_ as creating them does.
  Status RestoreTrieState(TrieState* st, const Trie& trie,
                          ckpt::Reader* reader);

  std::vector<CompiledQuery> queries_;
  /// Per-query compiled admission programs (src/plan/); the workload shape
  /// has no predicates, so they serve as the dense type-relevance test.
  /// Borrow queries_'s storage — declared after it.
  std::vector<plan::AdmissionProgram> programs_;
  /// Union of the programs' relevance, EventTypeId-indexed: an event whose
  /// type is outside every query's pattern touches no trie.
  std::vector<uint8_t> type_relevant_;
  Timestamp window_ms_ = 0;
  /// GROUP BY mode: every query groups by this one shared attribute.
  bool grouped_ = false;
  AttrId group_attr_ = kInvalidAttr;
  std::vector<Trie> tries_;
  /// Trie index per START type (dense, EventTypeId-indexed; kNoTrie when
  /// the type starts no trie).
  std::vector<uint32_t> trie_by_start_;
  /// Per query: its trie and terminal node (-1 = the trie's START itself).
  std::vector<size_t> query_trie_;
  std::vector<int> query_terminal_;
  /// Ungrouped mode: the single shared set of per-trie instance state.
  std::vector<TrieState> dyn_;
  /// Grouped mode: one set of trie states per live group value, plus the
  /// lazy expiry clock that drives trigger-time purging.
  state::PartitionStore<PartState> part_store_;
  state::WindowClock clock_;
  EngineStats stats_;
  /// Lower bound on the earliest live instance expiration, ungrouped mode
  /// (see StackEngine::next_expiry_).
  Timestamp next_expiry_ = std::numeric_limits<Timestamp>::max();
};

}  // namespace aseq

#endif  // ASEQ_MULTI_PRETREE_ENGINE_H_
