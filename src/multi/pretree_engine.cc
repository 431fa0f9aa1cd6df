#include "multi/pretree_engine.h"

#include <algorithm>
#include <cassert>

#include "ckpt/ckpt.h"

namespace aseq {

namespace {

/// Empty dispatch row for types beyond a dense index's range.
const std::vector<size_t> kNoEntries;

}  // namespace

PreTreeEngine::PreTreeEngine(std::vector<CompiledQuery> queries)
    : queries_(std::move(queries)) {
  for (const CompiledQuery& q : queries_) {
    plan::AdmissionProgram program(q);
    for (EventTypeId t : q.positive_types()) {
      if (t >= type_relevant_.size()) type_relevant_.resize(t + 1, 0);
      if (program.Relevant(t)) type_relevant_[t] = 1;
    }
    programs_.push_back(std::move(program));
  }
}

Result<std::unique_ptr<PreTreeEngine>> PreTreeEngine::Create(
    std::vector<CompiledQuery> queries) {
  if (queries.empty()) {
    return Status::InvalidArgument("PreTree needs at least one query");
  }
  Timestamp window = queries[0].window_ms();
  const bool grouped = queries[0].partitioned();
  for (const CompiledQuery& q : queries) {
    if (q.agg().func != AggFunc::kCount || q.has_join_predicates() ||
        q.pattern().has_negation()) {
      return Status::Unsupported(
          "PreTree sharing supports COUNT over positive-only patterns: " +
          q.ToString());
    }
    if (q.partitioned() != grouped) {
      return Status::Unsupported(
          "PreTree workloads must be uniformly grouped or ungrouped: " +
          q.ToString());
    }
    if (grouped) {
      // See ChopConnectEngine::Create: the one partitioning shape the
      // shared state decomposes under.
      const PartitionSpec& spec = q.partition_spec();
      if (!spec.per_group_output || spec.parts.size() != 1 ||
          spec.group_part != 0 ||
          spec.parts[0].attr != queries[0].partition_spec().parts[0].attr) {
        return Status::Unsupported(
            "PreTree sharing supports partitioning only as GROUP BY one "
            "attribute shared by every workload query: " +
            q.ToString());
      }
    }
    for (const auto& preds : q.local_predicates()) {
      if (!preds.empty()) {
        return Status::Unsupported("PreTree sharing does not support WHERE: " +
                                   q.ToString());
      }
    }
    if (q.window_ms() != window || window <= 0) {
      return Status::InvalidArgument(
          "PreTree workload queries must share one positive window");
    }
  }
  std::unique_ptr<PreTreeEngine> engine(new PreTreeEngine(std::move(queries)));
  engine->window_ms_ = window;
  engine->grouped_ = grouped;
  if (grouped) {
    engine->group_attr_ = engine->queries_[0].partition_spec().parts[0].attr;
  }
  ASEQ_RETURN_NOT_OK(engine->Build());
  return engine;
}

Status PreTreeEngine::Build() {
  auto trie_slot = [this](EventTypeId t) -> uint32_t& {
    if (t >= trie_by_start_.size()) trie_by_start_.resize(t + 1, kNoTrie);
    return trie_by_start_[t];
  };
  query_trie_.assign(queries_.size(), 0);
  query_terminal_.assign(queries_.size(), -1);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const std::vector<EventTypeId>& types = queries_[qi].positive_types();
    // Trie for this START type.
    uint32_t& slot = trie_slot(types[0]);
    if (slot == kNoTrie) {
      slot = static_cast<uint32_t>(tries_.size());
      tries_.push_back(Trie{});
      tries_.back().start_type = types[0];
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
    trie.terminals.emplace_back(qi, node);
    query_trie_[qi] = slot;
    query_terminal_[qi] = node;
    const EventTypeId last = types.back();
    if (last >= trie.trigger_index.size()) trie.trigger_index.resize(last + 1);
    trie.trigger_index[last].push_back(qi);
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
  dyn_.resize(tries_.size());
  return Status::OK();
}

size_t PreTreeEngine::num_trie_nodes() const {
  size_t total = 0;
  for (const Trie& trie : tries_) total += trie.nodes.size();
  return total;
}

void PreTreeEngine::PurgeTrie(TrieState* st, Timestamp now) {
  // Expire START instances (fronts expire first: arrival order).
  while (!st->empty() && st->front().exp <= now) {
    st->pop_front();
    stats_.objects.Remove(1);
  }
}

void PreTreeEngine::Purge(Timestamp now) {
  Timestamp min_exp = std::numeric_limits<Timestamp>::max();
  for (TrieState& st : dyn_) {
    PurgeTrie(&st, now);
    if (!st.empty()) {
      min_exp = std::min(min_exp, st.front().exp);
    }
  }
  next_expiry_ = min_exp;
}

Timestamp PreTreeEngine::PartNextExpiry(const PartState& part) const {
  Timestamp min_exp = state::WindowClock::kNever;
  for (const TrieState& st : part.tries) {
    if (!st.empty()) {
      min_exp = std::min(min_exp, st.front().exp);
    }
  }
  return min_exp;
}

void PreTreeEngine::AdvanceClock(Timestamp now) {
  clock_.AdvanceTo(
      now, [&](const state::WindowClock::Entry& top) -> Timestamp {
        const uint32_t slot = part_store_.Lookup(top.hash, top.key);
        if (slot == state::kNoSlot) return state::WindowClock::kNever;
        PartState& part = part_store_.at(slot);
        for (TrieState& st : part.tries) PurgeTrie(&st, now);
        const Timestamp next = PartNextExpiry(part);
        if (next == state::WindowClock::kNever) {
          part_store_.Erase(slot);
          return state::WindowClock::kNever;
        }
        return next;
      });
}

void PreTreeEngine::OnBatch(std::span<const Event> batch,
                            std::vector<MultiOutput>* out) {
  if (batch.empty()) return;
  if (grouped_) {
    // Purging is partition-local (no global sweep to hoist); the clock
    // already makes trigger-time expiry amortized O(expired instances).
    for (const Event& e : batch) ProcessGroupedEvent(e, out);
    stats_.NoteBatch(batch.size());
    return;
  }
  for (const Event& e : batch) {
    if (e.ts() >= next_expiry_) Purge(e.ts());
    ProcessEvent(e, out);
    // New instances expire at e.ts() + window; keep the bound valid.
    next_expiry_ = std::min(next_expiry_, e.ts() + window_ms_);
  }
  stats_.NoteBatch(batch.size());
}

void PreTreeEngine::ApplyUpdates(const Event& e, std::vector<TrieState>& dyn) {
  for (size_t t = 0; t < tries_.size(); ++t) {
    Trie& trie = tries_[t];
    TrieState& st = dyn[t];
    // UPD: one update per shared node per live instance, deepest first.
    const std::vector<size_t>& upd = e.type() < trie.update_index.size()
                                         ? trie.update_index[e.type()]
                                         : kNoEntries;
    for (size_t n : upd) {
      const Node& node = trie.nodes[n];
      for (Instance& inst : st) {
        inst.counts[n] += node.parent < 0 ? 1 : inst.counts[node.parent];
      }
      stats_.work_units += st.size();
    }
    // START: new per-instance counter tree.
    if (e.type() == trie.start_type) {
      Instance inst;
      inst.exp = e.ts() + window_ms_;
      inst.counts.assign(trie.nodes.size(), 0);
      st.push_back(std::move(inst));
      stats_.objects.Add(1);
      ++stats_.work_units;
    }
  }
}

uint64_t PreTreeEngine::QueryTotal(size_t qi,
                                   const std::vector<TrieState>& dyn) const {
  const int terminal = query_terminal_[qi];
  const TrieState& st = dyn[query_trie_[qi]];
  uint64_t total = 0;
  for (const Instance& inst : st) {
    total += terminal < 0 ? 1 : inst.counts[terminal];
  }
  return total;
}

void PreTreeEngine::ProcessEvent(const Event& e,
                                 std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  // Type-level early-out via the compiled programs: a type outside every
  // query's pattern is UPD/START/TRIG for no trie.
  if (e.type() >= type_relevant_.size() || !type_relevant_[e.type()]) return;

  ApplyUpdates(e, dyn_);

  // TRIG: report every query whose pattern completes with this type, in
  // trie order (matching UPD/START application order).
  for (size_t t = 0; t < tries_.size(); ++t) {
    const Trie& trie = tries_[t];
    const std::vector<size_t>& trigs = e.type() < trie.trigger_index.size()
                                           ? trie.trigger_index[e.type()]
                                           : kNoEntries;
    for (size_t qi : trigs) {
      MultiOutput mo;
      mo.query_index = qi;
      mo.output.ts = e.ts();
      mo.output.seq = e.seq();
      mo.output.value = Value(static_cast<int64_t>(QueryTotal(qi, dyn_)));
      out->push_back(std::move(mo));
      ++stats_.outputs;
    }
  }
}

void PreTreeEngine::ProcessGroupedEvent(const Event& e,
                                        std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  if (e.type() >= type_relevant_.size() || !type_relevant_[e.type()]) return;
  // Route by the shared GROUP BY attribute; an event without it matches no
  // sequence of any query (the group part covers every element).
  const Value* gv = e.FindAttr(group_attr_);
  if (gv == nullptr) return;
  const uint32_t gid = part_store_.interner().Intern(*gv);
  container::InternedKey key;
  key.ids[0] = gid;
  const uint64_t hash = container::InternedKeyHash{}(key);

  // Only a START type materializes an absent partition (mirroring
  // HpcEngine, where only START roles create partitions).
  const bool creates =
      e.type() < trie_by_start_.size() && trie_by_start_[e.type()] != kNoTrie;

  uint32_t slot = part_store_.Lookup(hash, key);
  if (slot == state::kNoSlot && creates) {
    auto [slot_ref, inserted] = part_store_.Upsert(hash, key);
    *slot_ref = part_store_.Emplace(key, hash, tries_.size());
    slot = *slot_ref;
  }
  if (slot != state::kNoSlot) {
    PartState& part = part_store_.at(slot);
    // HPC-style partition-local purge: only the partition this event's key
    // owns is purged here; the rest purge lazily at trigger time via the
    // clock.
    for (TrieState& st : part.tries) PurgeTrie(&st, e.ts());
    const bool was_empty = PartNextExpiry(part) == state::WindowClock::kNever;
    ApplyUpdates(e, part.tries);
    // An instance landing in an empty partition establishes a new earliest
    // expiration; put it on the clock *before* any trigger advance below
    // (non-empty partitions already have a clock entry at or before their
    // true next expiry — the clock invariant).
    if (was_empty) clock_.Schedule(PartNextExpiry(part), hash, key);
  }

  // Grouped trigger: the serial engine purges *every* partition here (the
  // clock makes that amortized O(expired instances)), then reports from
  // the trigger's own group alone. The advance can erase partitions —
  // this event's included, if it left its group empty — so the scope is
  // re-resolved afterwards (absent partition counts zero).
  bool any_trigger = false;
  for (const Trie& trie : tries_) {
    if (e.type() < trie.trigger_index.size() &&
        !trie.trigger_index[e.type()].empty()) {
      any_trigger = true;
    }
  }
  if (!any_trigger) return;
  AdvanceClock(e.ts());
  slot = part_store_.Lookup(hash, key);
  PartState* part = slot == state::kNoSlot ? nullptr : &part_store_.at(slot);
  for (const Trie& trie : tries_) {
    const std::vector<size_t>& trigs = e.type() < trie.trigger_index.size()
                                           ? trie.trigger_index[e.type()]
                                           : kNoEntries;
    for (size_t qi : trigs) {
      const uint64_t total =
          part == nullptr ? 0 : QueryTotal(qi, part->tries);
      MultiOutput mo;
      mo.query_index = qi;
      mo.output.ts = e.ts();
      mo.output.seq = e.seq();
      mo.output.group = part_store_.interner().ValueOf(gid);
      mo.output.value = Value(static_cast<int64_t>(total));
      out->push_back(std::move(mo));
      ++stats_.outputs;
    }
  }
}

std::vector<MultiOutput> PreTreeEngine::Poll(Timestamp now) {
  std::vector<MultiOutput> outputs;
  if (!grouped_) {
    Purge(now);
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      MultiOutput mo;
      mo.query_index = qi;
      mo.output.ts = now;
      mo.output.value = Value(static_cast<int64_t>(QueryTotal(qi, dyn_)));
      outputs.push_back(std::move(mo));
    }
    return outputs;
  }
  // Grouped: purge everything due, then report per query per live group in
  // slab-slot order — a pure function of engine state, so a restored (or
  // shard-merged) engine polls identically.
  AdvanceClock(now);
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    for (uint32_t s = 0; s < part_store_.end(); ++s) {
      if (!part_store_.live(s)) continue;
      const PartState& part = part_store_.at(s);
      MultiOutput mo;
      mo.query_index = qi;
      mo.output.ts = now;
      mo.output.group = part_store_.interner().ValueOf(part.key.ids[0]);
      mo.output.value = Value(static_cast<int64_t>(QueryTotal(qi, part.tries)));
      outputs.push_back(std::move(mo));
    }
  }
  return outputs;
}

void PreTreeEngine::SyncPurgeTo(Timestamp now,
                                std::span<const size_t> trigger_queries) {
  // Every triggered query shares this engine's one clock, so which of them
  // triggered is immaterial — the purge happens once.
  (void)trigger_queries;
  if (!grouped_) return;
  AdvanceClock(now);
}

void PreTreeEngine::CheckpointTrieState(const TrieState& st,
                                        ckpt::Writer* writer) const {
  writer->WriteU64(st.size());
  for (const Instance& inst : st) {
    writer->WriteI64(inst.exp);
    for (uint64_t count : inst.counts) writer->WriteU64(count);
  }
}

Status PreTreeEngine::RestoreTrieState(TrieState* st, const Trie& trie,
                                       ckpt::Reader* reader) {
  st->clear();
  uint64_t n_instances = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_instances, 8, "trie instances"));
  for (uint64_t i = 0; i < n_instances; ++i) {
    Instance inst;
    ASEQ_RETURN_NOT_OK(reader->ReadI64(&inst.exp, "instance expiry"));
    inst.counts.resize(trie.nodes.size());
    for (uint64_t& count : inst.counts) {
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&count, "instance count"));
    }
    st->push_back(std::move(inst));
    stats_.objects.Add(1);
  }
  return Status::OK();
}

Status PreTreeEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  writer->WriteI64(next_expiry_);
  if (grouped_) {
    // Structural spine via the store; each partition's payload is its
    // per-trie instance state in trie order. The clock rides verbatim.
    ASEQ_RETURN_NOT_OK(part_store_.Checkpoint(
        writer, [this](const PartState& part, ckpt::Writer* w) -> Status {
          for (const TrieState& st : part.tries) CheckpointTrieState(st, w);
          return Status::OK();
        }));
    clock_.Checkpoint(writer);
    return Status::OK();
  }
  writer->WriteU64(dyn_.size());
  for (const TrieState& st : dyn_) CheckpointTrieState(st, writer);
  return Status::OK();
}

Status PreTreeEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&next_expiry_, "pretree next expiry"));
  if (grouped_) {
    ASEQ_RETURN_NOT_OK(part_store_.Restore(
        reader, [&](uint32_t slot, const container::InternedKey& key,
                    uint64_t hash, ckpt::Reader* r) -> Status {
          PartState& part =
              part_store_.RestoreEmplaceAt(slot, key, hash, tries_.size());
          for (size_t t = 0; t < tries_.size(); ++t) {
            ASEQ_RETURN_NOT_OK(RestoreTrieState(&part.tries[t], tries_[t], r));
          }
          return Status::OK();
        }));
    ASEQ_RETURN_NOT_OK(clock_.Restore(reader, part_store_.interner().size()));
    ASEQ_RETURN_NOT_OK(
        ckpt::CheckLiveObjects(stats, stats_.objects.current()));
    stats_ = stats;
    return Status::OK();
  }
  uint64_t n_tries = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_tries, 8, "tries"));
  if (n_tries != tries_.size()) {
    return Status::ParseError("snapshot corrupt: " + std::to_string(n_tries) +
                              " tries but the workload builds " +
                              std::to_string(tries_.size()));
  }
  for (size_t t = 0; t < tries_.size(); ++t) {
    ASEQ_RETURN_NOT_OK(RestoreTrieState(&dyn_[t], tries_[t], reader));
  }
  ASEQ_RETURN_NOT_OK(ckpt::CheckLiveObjects(stats, stats_.objects.current()));
  stats_ = stats;
  return Status::OK();
}

}  // namespace aseq
