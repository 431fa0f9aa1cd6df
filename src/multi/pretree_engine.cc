#include "multi/pretree_engine.h"

#include <algorithm>

#include "ckpt/ckpt.h"

namespace aseq {

using pretree::Instance;
using pretree::TrieState;

Result<std::unique_ptr<PreTreeEngine>> PreTreeEngine::Create(
    std::vector<CompiledQuery> queries) {
  ASEQ_RETURN_NOT_OK(
      CheckWorkload(queries, [](size_t) { return Status::OK(); }));
  std::unique_ptr<PreTreeEngine> engine(new PreTreeEngine(std::move(queries)));
  engine->Build();
  return engine;
}

void PreTreeEngine::Build() {
  constexpr uint32_t kNoTrie = 0xFFFFFFFFu;
  std::vector<uint32_t> trie_by_start;  // dense, EventTypeId-indexed
  query_trie_.assign(queries_.size(), 0);
  query_terminal_.assign(queries_.size(), -1);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const std::vector<EventTypeId>& types = queries_[qi].positive_types();
    // Trie for this START type.
    if (types[0] >= trie_by_start.size()) {
      trie_by_start.resize(types[0] + 1, kNoTrie);
    }
    uint32_t& slot = trie_by_start[types[0]];
    if (slot == kNoTrie) {
      slot = static_cast<uint32_t>(tries_.size());
      tries_.push_back(Trie{});
      tries_.back().start_type = types[0];
      MarkCreates(types[0]);
    }
    Trie& trie = tries_[slot];
    // Walk/extend the path for types[1..].
    int node = -1;  // the START itself
    for (size_t d = 1; d < types.size(); ++d) {
      int child = -1;
      for (size_t n = 0; n < trie.nodes.size(); ++n) {
        if (trie.nodes[n].parent == node && trie.nodes[n].type == types[d]) {
          child = static_cast<int>(n);
          break;
        }
      }
      if (child < 0) {
        child = static_cast<int>(trie.nodes.size());
        trie.nodes.push_back(Node{types[d], node, d});
      }
      node = child;
    }
    query_trie_[qi] = slot;
    query_terminal_[qi] = node;
  }
  // A query triggers on its last type; reports go in trie order (the
  // order updates apply), then query order.
  for (size_t t = 0; t < tries_.size(); ++t) {
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      if (query_trie_[qi] == t) {
        AddTrigger(queries_[qi].positive_types().back(), qi);
      }
    }
  }
  // Update indexes: nodes per type (dense), descending depth.
  for (Trie& trie : tries_) {
    for (size_t n = 0; n < trie.nodes.size(); ++n) {
      const EventTypeId t = trie.nodes[n].type;
      if (t >= trie.update_index.size()) trie.update_index.resize(t + 1);
      trie.update_index[t].push_back(n);
    }
    for (auto& nodes : trie.update_index) {
      std::sort(nodes.begin(), nodes.end(), [&](size_t a, size_t b) {
        return trie.nodes[a].depth > trie.nodes[b].depth;
      });
    }
  }
  dyn_ = NewScope();
}

size_t PreTreeEngine::num_trie_nodes() const {
  size_t total = 0;
  for (const Trie& trie : tries_) total += trie.nodes.size();
  return total;
}

Timestamp PreTreeEngine::PurgeScope(Scope& scope, Timestamp now) {
  Timestamp next = state::WindowClock::kNever;
  for (TrieState& st : scope) {
    // Fronts expire first: arrival order.
    while (!st.empty() && st.front().exp <= now) {
      st.pop_front();
      stats_.objects.Remove(1);
    }
    if (!st.empty()) next = std::min(next, st.front().exp);
  }
  return next;
}

void PreTreeEngine::ApplyUpdates(const Event& e, Scope& scope) {
  for (size_t t = 0; t < tries_.size(); ++t) {
    const Trie& trie = tries_[t];
    TrieState& st = scope[t];
    // UPD: one update per shared node per live instance, deepest first.
    if (e.type() < trie.update_index.size()) {
      for (size_t n : trie.update_index[e.type()]) {
        const Node& node = trie.nodes[n];
        for (Instance& inst : st) {
          inst.counts[n] += node.parent < 0 ? 1 : inst.counts[node.parent];
        }
        stats_.work_units += st.size();
      }
    }
    // START: new per-instance counter tree.
    if (e.type() == trie.start_type) {
      st.push_back(Instance{e.ts() + window_ms_,
                            std::vector<uint64_t>(trie.nodes.size(), 0)});
      stats_.objects.Add(1);
      ++stats_.work_units;
    }
  }
}

uint64_t PreTreeEngine::QueryTotal(size_t qi, const Scope& scope) const {
  const int terminal = query_terminal_[qi];
  uint64_t total = 0;
  for (const Instance& inst : scope[query_trie_[qi]]) {
    total += terminal < 0 ? 1 : inst.counts[terminal];
  }
  return total;
}

Status PreTreeEngine::CheckpointScope(const Scope& scope,
                                      ckpt::Writer* writer) const {
  for (const TrieState& st : scope) {
    writer->WriteU64(st.size());
    for (const Instance& inst : st) {
      writer->WriteI64(inst.exp);
      for (uint64_t count : inst.counts) writer->WriteU64(count);
    }
  }
  return Status::OK();
}

Status PreTreeEngine::RestoreScope(Scope* scope, ckpt::Reader* reader) {
  for (size_t t = 0; t < tries_.size(); ++t) {
    TrieState& st = (*scope)[t];
    st.clear();
    uint64_t n_instances = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_instances, 8, "trie instances"));
    for (uint64_t i = 0; i < n_instances; ++i) {
      Instance inst;
      ASEQ_RETURN_NOT_OK(reader->ReadI64(&inst.exp, "instance expiry"));
      inst.counts.resize(tries_[t].nodes.size());
      for (uint64_t& count : inst.counts) {
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&count, "instance count"));
      }
      st.push_back(std::move(inst));
      stats_.objects.Add(1);
    }
  }
  return Status::OK();
}

}  // namespace aseq
