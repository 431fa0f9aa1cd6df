#ifndef ASEQ_MULTI_PRETREE_ENGINE_H_
#define ASEQ_MULTI_PRETREE_ENGINE_H_

#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "multi/shared_count_engine.h"
#include "query/compiled_query.h"

namespace aseq {

namespace pretree {

/// A per-START-instance tree of counters (the shared PreCntr).
struct Instance {
  Timestamp exp;
  std::vector<uint64_t> counts;  // per trie node
};

/// The dynamic state of one trie within one counting scope: its live START
/// instances in arrival (== expiration) order.
using TrieState = std::deque<Instance>;

}  // namespace pretree

/// \brief Prefix-sharing multi-query A-Seq via the PreTree (Sec. 4.1 /
/// Fig. 9).
///
/// The workload's patterns are organized into tries keyed by their START
/// type: each trie node represents one prefix pattern, shared by every
/// query whose pattern extends through it. Per live START instance one
/// *tree of counters* replaces the per-query PreCntrs; an arriving UPD
/// instance updates each shared node once — "A-Seq shares the computation
/// on the common prefix patterns for free". A counting scope (see
/// SharedCountEngine, which owns grouping, expiry, Poll and the snapshot
/// framing) is one TrieState per trie.
class PreTreeEngine final
    : public SharedCountEngine<PreTreeEngine,
                               std::vector<pretree::TrieState>> {
 public:
  /// Validates the workload and builds the tries.
  static Result<std::unique_ptr<PreTreeEngine>> Create(
      std::vector<CompiledQuery> queries);

  std::string name() const override { return "PrefixShare(PreTree)"; }

  /// Total trie nodes across tries (testing hook: measures sharing).
  size_t num_trie_nodes() const;

 private:
  using Scope = std::vector<pretree::TrieState>;
  using Base = SharedCountEngine<PreTreeEngine, Scope>;
  friend Base;

  static constexpr SharedCountNames kNames{
      "PreTree", "PreTree sharing", "pretree next expiry",
      "tries",   "workload",        8};

  /// One trie node = one shared prefix pattern (beyond the START type).
  struct Node {
    EventTypeId type;
    int parent;    // node index; -1 = the START itself
    size_t depth;  // 1 = first node below the START
  };

  /// The static shape of one trie (identical across group partitions).
  struct Trie {
    EventTypeId start_type;
    std::vector<Node> nodes;
    /// Node indexes per event type (dense, EventTypeId-indexed),
    /// descending depth (duplicate-type safe).
    std::vector<std::vector<size_t>> update_index;
  };

  using Base::Base;

  void Build();

  // SharedCountEngine's sharing logic on one scope.
  Scope NewScope() const { return Scope(tries_.size()); }
  /// UPD and START handling for one event (scope already purged).
  void ApplyUpdates(const Event& e, Scope& scope);
  uint64_t QueryTotal(size_t qi, const Scope& scope) const;
  /// Expires the front (oldest) instances of every trie.
  Timestamp PurgeScope(Scope& scope, Timestamp now);
  Status CheckpointScope(const Scope& scope, ckpt::Writer* writer) const;
  Status RestoreScope(Scope* scope, ckpt::Reader* reader);

  std::vector<Trie> tries_;
  /// Per query: its trie and terminal node (-1 = the trie's START itself).
  std::vector<size_t> query_trie_;
  std::vector<int> query_terminal_;
};

}  // namespace aseq

#endif  // ASEQ_MULTI_PRETREE_ENGINE_H_
