#include "baseline/ecube_engine.h"

#include <algorithm>
#include <cassert>

#include "ckpt/ckpt.h"
#include "multi/shared_count_engine.h"

namespace aseq {

namespace {

/// Finds the unique contiguous occurrence of `sub` in `full`; -1 if absent
/// or ambiguous (-2).
int FindSubstringOnce(const std::vector<EventTypeId>& full,
                      const std::vector<EventTypeId>& sub) {
  if (sub.empty() || sub.size() > full.size()) return -1;
  int found = -1;
  for (size_t i = 0; i + sub.size() <= full.size(); ++i) {
    bool match = true;
    for (size_t j = 0; j < sub.size(); ++j) {
      if (full[i + j] != sub[j]) {
        match = false;
        break;
      }
    }
    if (match) {
      if (found >= 0) return -2;
      found = static_cast<int>(i);
    }
  }
  return found;
}

}  // namespace

Result<std::unique_ptr<EcubeEngine>> EcubeEngine::Create(
    std::vector<CompiledQuery> queries, std::vector<EventTypeId> shared_types) {
  if (queries.empty()) {
    return Status::InvalidArgument("ECube needs at least one query");
  }
  if (shared_types.empty()) {
    return Status::InvalidArgument("ECube needs a non-empty shared substring");
  }
  Timestamp window = queries[0].window_ms();
  for (const CompiledQuery& q : queries) {
    const CountShape shape = CheckCountShape(q);
    if (shape == CountShape::kAggregate || q.partitioned()) {
      return Status::Unsupported(
          "ECube baseline supports COUNT over positive-only unpartitioned "
          "patterns: " +
          q.ToString());
    }
    if (shape == CountShape::kWhere) {
      return Status::Unsupported("ECube baseline does not support WHERE: " +
                                 q.ToString());
    }
    if (shape == CountShape::kWindow || q.window_ms() != window) {
      return Status::InvalidArgument(
          "ECube workload queries must share one positive window");
    }
    if (!HasDistinctTypes(q)) {
      return Status::Unsupported(
          "ECube baseline requires distinct event types per pattern: " +
          q.ToString());
    }
    if (FindSubstringOnce(q.positive_types(), shared_types) < 0) {
      return Status::InvalidArgument(
          "shared substring must occur contiguously exactly once in " +
          q.ToString());
    }
  }
  return std::unique_ptr<EcubeEngine>(
      new EcubeEngine(std::move(queries), std::move(shared_types)));
}

EcubeEngine::EcubeEngine(std::vector<CompiledQuery> queries,
                         std::vector<EventTypeId> shared_types)
    : queries_(std::move(queries)), shared_types_(std::move(shared_types)) {
  window_ms_ = queries_[0].window_ms();
  for (const CompiledQuery& q : queries_) {
    for (EventTypeId t : q.positive_types()) {
      if (t >= type_relevant_.size()) type_relevant_.resize(t + 1, 0);
      type_relevant_[t] = 1;
    }
  }
  shared_stacks_.resize(shared_types_.size());
  shared_dfs_.resize(shared_types_.size());
  states_.resize(queries_.size());
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const auto& types = queries_[qi].positive_types();
    int at = FindSubstringOnce(types, shared_types_);
    assert(at >= 0);
    QueryState& state = states_[qi];
    state.prefix_len = static_cast<size_t>(at);
    state.tail_len = types.size() - state.prefix_len - shared_types_.size();
    state.prefix_stacks.resize(state.prefix_len);
    state.tail_stacks.resize(state.tail_len);
  }
}

void EcubeEngine::Purge(Timestamp now) {
  auto purge_stack = [&](PosStack* stack) {
    while (!stack->entries.empty() &&
           stack->entries.front().ts + window_ms_ <= now) {
      stack->entries.pop_front();
      ++stack->base;
      stats_.objects.Remove(2);
    }
  };
  for (PosStack& stack : shared_stacks_) purge_stack(&stack);
  for (QueryState& state : states_) {
    for (PosStack& stack : state.prefix_stacks) purge_stack(&stack);
    for (PosStack& stack : state.tail_stacks) purge_stack(&stack);
    while (!state.composites.empty() &&
           state.composites.front().match.start_ts + window_ms_ <= now) {
      state.composites.pop_front();
      ++state.composites_base;
      stats_.objects.Remove(1);
    }
    while (!state.expiry.empty() && state.expiry.top() <= now) {
      state.expiry.pop();
      --state.live_count;
      stats_.objects.Remove(1);
    }
  }
  next_expiry_ = ComputeNextExpiry();
}

Timestamp EcubeEngine::ComputeNextExpiry() const {
  Timestamp min_exp = std::numeric_limits<Timestamp>::max();
  if (window_ms_ <= 0) return min_exp;
  auto scan_stack = [&](const PosStack& stack) {
    if (!stack.entries.empty()) {
      min_exp = std::min(min_exp, stack.entries.front().ts + window_ms_);
    }
  };
  for (const PosStack& stack : shared_stacks_) scan_stack(stack);
  for (const QueryState& state : states_) {
    for (const PosStack& stack : state.prefix_stacks) scan_stack(stack);
    for (const PosStack& stack : state.tail_stacks) scan_stack(stack);
    if (!state.composites.empty()) {
      min_exp = std::min(
          min_exp, state.composites.front().match.start_ts + window_ms_);
    }
    if (!state.expiry.empty()) {
      min_exp = std::min(min_exp, state.expiry.top());
    }
  }
  return min_exp;
}

void EcubeEngine::ConstructShared(Timestamp now,
                                  std::vector<Composite>* created) {
  const size_t k = shared_types_.size();
  assert(!shared_stacks_[k - 1].entries.empty());
  const StackEntry& trig = shared_stacks_[k - 1].entries.back();
  shared_dfs_[k - 1] = trig.seq;

  // DFS over positions k-2..0 along adjacency pointers.
  auto recurse = [&](auto&& self, int pos, uint64_t hi,
                     Timestamp* start_ts) -> void {
    if (pos < 0) {
      created->push_back(Composite{/*start_seq=*/shared_dfs_[0],
                                   /*start_ts=*/*start_ts,
                                   /*end_seq=*/trig.seq,
                                   /*end_ts=*/trig.ts});
      ++stats_.work_units;
      stats_.objects.Add(1);
      return;
    }
    PosStack& stack = shared_stacks_[pos];
    uint64_t bound = std::min<uint64_t>(hi, stack.total_pushed());
    for (uint64_t abs = bound; abs > stack.base; --abs) {
      const StackEntry& cand = stack.entries[abs - 1 - stack.base];
      ++stats_.work_units;
      shared_dfs_[pos] = cand.seq;
      Timestamp st = cand.ts;
      self(self, pos - 1, cand.ptr, pos == 0 ? &st : start_ts);
    }
  };
  if (k == 1) {
    created->push_back(
        Composite{trig.seq, trig.ts, trig.seq, trig.ts});
    stats_.objects.Add(1);
    ++stats_.work_units;
    return;
  }
  // start_ts is filled at position 0; pass a scratch for deeper levels.
  Timestamp scratch = 0;
  recurse(recurse, static_cast<int>(k) - 2, trig.ptr, &scratch);
  (void)now;
}

void EcubeEngine::RecordMatch(size_t qi, Timestamp start_ts, Timestamp now) {
  QueryState& state = states_[qi];
  if (start_ts + window_ms_ <= now) return;  // already expired
  ++state.live_count;
  state.expiry.push(start_ts + window_ms_);
  stats_.objects.Add(1);
  ++stats_.work_units;
}

void EcubeEngine::DfsPrefix(size_t qi, int pos, uint64_t hi, SeqNum max_seq,
                            Timestamp now) {
  QueryState& state = states_[qi];
  if (pos < 0) return;  // handled by caller
  PosStack& stack = state.prefix_stacks[pos];
  uint64_t bound = std::min<uint64_t>(hi, stack.total_pushed());
  for (uint64_t abs = bound; abs > stack.base; --abs) {
    const StackEntry& cand = stack.entries[abs - 1 - stack.base];
    ++stats_.work_units;
    // Prefix events must precede the composite's START (the adjacency
    // pointer only bounds by the composite's construction time).
    if (cand.seq >= max_seq) continue;
    if (pos == 0) {
      RecordMatch(qi, cand.ts, now);
    } else {
      DfsPrefix(qi, pos - 1, cand.ptr, cand.seq, now);
    }
  }
}

void EcubeEngine::CountNewMatches(size_t qi, Timestamp now) {
  QueryState& state = states_[qi];
  const size_t b = state.tail_len;
  if (b == 0) {
    // New matches = fresh composites (x prefix combinations).
    for (const Composite& c : created_scratch_) {
      if (c.start_ts + window_ms_ <= now) continue;
      if (state.prefix_len == 0) {
        RecordMatch(qi, c.start_ts, now);
      } else {
        DfsPrefix(qi, static_cast<int>(state.prefix_len) - 1,
                  state.prefix_stacks[state.prefix_len - 1].total_pushed(),
                  c.start_seq, now);
      }
    }
    return;
  }
  // New matches root at the fresh last-tail entry.
  assert(!state.tail_stacks[b - 1].entries.empty());
  const StackEntry& trig = state.tail_stacks[b - 1].entries.back();

  auto composite_level = [&](uint64_t hi) {
    uint64_t bound = std::min<uint64_t>(hi, state.composites_base +
                                                state.composites.size());
    for (uint64_t abs = bound; abs > state.composites_base; --abs) {
      const CompositeEntry& centry =
          state.composites[abs - 1 - state.composites_base];
      ++stats_.work_units;
      if (centry.match.start_ts + window_ms_ <= now) continue;
      if (state.prefix_len == 0) {
        RecordMatch(qi, centry.match.start_ts, now);
      } else {
        DfsPrefix(qi, static_cast<int>(state.prefix_len) - 1,
                  centry.prefix_ptr, centry.match.start_seq, now);
      }
    }
  };

  auto recurse = [&](auto&& self, int pos, uint64_t hi) -> void {
    if (pos < 0) {
      composite_level(hi);
      return;
    }
    PosStack& stack = state.tail_stacks[pos];
    uint64_t bound = std::min<uint64_t>(hi, stack.total_pushed());
    for (uint64_t abs = bound; abs > stack.base; --abs) {
      const StackEntry& cand = stack.entries[abs - 1 - stack.base];
      ++stats_.work_units;
      self(self, pos - 1, cand.ptr);
    }
  };
  recurse(recurse, static_cast<int>(b) - 2, trig.ptr);
}

void EcubeEngine::OnBatch(std::span<const Event> batch,
                          std::vector<MultiOutput>* out) {
  if (batch.empty()) return;
  const bool windowed = window_ms_ > 0;
  for (const Event& e : batch) {
    if (e.ts() >= next_expiry_) Purge(e.ts());
    ProcessEvent(e, out);
    // New stack entries expire at e.ts() + window; composites and retained
    // matches inherit a live entry's expiry, already covered by the bound.
    if (windowed) next_expiry_ = std::min(next_expiry_, e.ts() + window_ms_);
  }
  stats_.NoteBatch(batch.size());
}

void EcubeEngine::ProcessEvent(const Event& e, std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  // Type-level early-out: a type outside every query's pattern touches no
  // stack and cannot trigger (the caller's purge already ran).
  if (e.type() >= type_relevant_.size() || !type_relevant_[e.type()]) return;

  // Shared stacks (descending position order).
  bool shared_trigger = false;
  for (int j = static_cast<int>(shared_types_.size()) - 1; j >= 0; --j) {
    if (shared_types_[j] != e.type()) continue;
    StackEntry entry{e.seq(), e.ts(),
                     j == 0 ? 0 : shared_stacks_[j - 1].total_pushed()};
    shared_stacks_[j].entries.push_back(entry);
    stats_.objects.Add(2);
    ++stats_.work_units;
    if (j + 1 == static_cast<int>(shared_types_.size())) shared_trigger = true;
  }
  created_scratch_.clear();
  if (shared_trigger) {
    ConstructShared(e.ts(), &created_scratch_);
  }

  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    QueryState& state = states_[qi];
    const auto& types = queries_[qi].positive_types();

    // Private prefix stacks.
    for (int j = static_cast<int>(state.prefix_len) - 1; j >= 0; --j) {
      if (types[j] != e.type()) continue;
      StackEntry entry{e.seq(), e.ts(),
                       j == 0 ? 0 : state.prefix_stacks[j - 1].total_pushed()};
      state.prefix_stacks[j].entries.push_back(entry);
      stats_.objects.Add(2);
      ++stats_.work_units;
    }
    // Append freshly shared-constructed composites (the shared step):
    // each query receives the match by reference-copy, not by
    // re-construction — this is the computation ECube shares.
    for (const Composite& c : created_scratch_) {
      uint64_t ptr = state.prefix_len == 0
                         ? 0
                         : state.prefix_stacks[state.prefix_len - 1]
                               .total_pushed();
      state.composites.push_back(CompositeEntry{c, ptr});
      ++state.composites_pushed;
      stats_.objects.Add(1);
      ++stats_.work_units;
    }
    // Private tail stacks.
    bool tail_trigger = false;
    const size_t tail_off = state.prefix_len + shared_types_.size();
    for (int j = static_cast<int>(state.tail_len) - 1; j >= 0; --j) {
      if (types[tail_off + j] != e.type()) continue;
      uint64_t ptr = j == 0 ? state.composites_base + state.composites.size()
                            : state.tail_stacks[j - 1].total_pushed();
      state.tail_stacks[j].entries.push_back(StackEntry{e.seq(), e.ts(), ptr});
      stats_.objects.Add(2);
      ++stats_.work_units;
      if (j + 1 == static_cast<int>(state.tail_len)) tail_trigger = true;
    }

    const bool trigger =
        state.tail_len > 0 ? tail_trigger : shared_trigger;
    if (!trigger) continue;
    CountNewMatches(qi, e.ts());
    MultiOutput mo;
    mo.query_index = qi;
    mo.output.ts = e.ts();
    mo.output.seq = e.seq();
    mo.output.value = Value(static_cast<int64_t>(state.live_count));
    out->push_back(std::move(mo));
    ++stats_.outputs;
  }
  // The shared composites were scratch: every query now holds its own
  // reference-copy (charged above), so release their transient charge.
  stats_.objects.Remove(static_cast<int64_t>(created_scratch_.size()));
}

Status EcubeEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  writer->WriteI64(next_expiry_);
  auto write_stacks = [writer](const std::vector<PosStack>& stacks) {
    writer->WriteU64(stacks.size());
    for (const PosStack& stack : stacks) {
      writer->WriteU64(stack.base);
      writer->WriteU64(stack.entries.size());
      for (const StackEntry& entry : stack.entries) {
        writer->WriteU64(entry.seq);
        writer->WriteI64(entry.ts);
        writer->WriteU64(entry.ptr);
      }
    }
  };
  write_stacks(shared_stacks_);
  writer->WriteU64(states_.size());
  for (const QueryState& state : states_) {
    write_stacks(state.prefix_stacks);
    writer->WriteU64(state.composites.size());
    for (const CompositeEntry& entry : state.composites) {
      writer->WriteU64(entry.match.start_seq);
      writer->WriteI64(entry.match.start_ts);
      writer->WriteU64(entry.match.end_seq);
      writer->WriteI64(entry.match.end_ts);
      writer->WriteU64(entry.prefix_ptr);
    }
    writer->WriteU64(state.composites_pushed);
    writer->WriteU64(state.composites_base);
    write_stacks(state.tail_stacks);
    writer->WriteU64(state.live_count);
    auto expiry_copy = state.expiry;
    writer->WriteU64(expiry_copy.size());
    while (!expiry_copy.empty()) {
      writer->WriteI64(expiry_copy.top());
      expiry_copy.pop();
    }
  }
  return Status::OK();
}

Status EcubeEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&next_expiry_, "ecube next expiry"));
  // Live objects the rebuilt state holds: 2 per stack entry, 1 per
  // composite and per live match (ProcessEvent / RecordMatch charges).
  int64_t live = 0;
  auto read_stacks = [reader, &live](std::vector<PosStack>* stacks,
                                     const char* what) -> Status {
    uint64_t n_stacks = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_stacks, 16, what));
    if (n_stacks != stacks->size()) {
      return Status::ParseError(
          std::string("snapshot corrupt: ") + std::to_string(n_stacks) + " " +
          what + " but the workload builds " + std::to_string(stacks->size()));
    }
    for (PosStack& stack : *stacks) {
      stack.entries.clear();
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&stack.base, "stack base"));
      uint64_t n_entries = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_entries, 24, "stack entries"));
      for (uint64_t i = 0; i < n_entries; ++i) {
        StackEntry entry;
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&entry.seq, "entry seq"));
        ASEQ_RETURN_NOT_OK(reader->ReadI64(&entry.ts, "entry ts"));
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&entry.ptr, "entry ptr"));
        stack.entries.push_back(entry);
      }
      live += 2 * static_cast<int64_t>(n_entries);
    }
    return Status::OK();
  };
  ASEQ_RETURN_NOT_OK(read_stacks(&shared_stacks_, "shared stacks"));
  uint64_t n_states = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_states, 8, "query states"));
  if (n_states != states_.size()) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n_states) +
        " query states but the workload has " + std::to_string(states_.size()));
  }
  for (QueryState& state : states_) {
    ASEQ_RETURN_NOT_OK(read_stacks(&state.prefix_stacks, "prefix stacks"));
    uint64_t n_composites = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_composites, 40, "composites"));
    state.composites.clear();
    for (uint64_t i = 0; i < n_composites; ++i) {
      CompositeEntry entry;
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&entry.match.start_seq, "start seq"));
      ASEQ_RETURN_NOT_OK(reader->ReadI64(&entry.match.start_ts, "start ts"));
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&entry.match.end_seq, "end seq"));
      ASEQ_RETURN_NOT_OK(reader->ReadI64(&entry.match.end_ts, "end ts"));
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&entry.prefix_ptr, "prefix ptr"));
      state.composites.push_back(entry);
    }
    ASEQ_RETURN_NOT_OK(
        reader->ReadU64(&state.composites_pushed, "composites pushed"));
    ASEQ_RETURN_NOT_OK(
        reader->ReadU64(&state.composites_base, "composites base"));
    ASEQ_RETURN_NOT_OK(read_stacks(&state.tail_stacks, "tail stacks"));
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&state.live_count, "live matches"));
    state.expiry = {};
    uint64_t n_expiry = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_expiry, 8, "match expirations"));
    for (uint64_t i = 0; i < n_expiry; ++i) {
      Timestamp exp = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadI64(&exp, "match expiry"));
      state.expiry.push(exp);
    }
    if (state.live_count != n_expiry) {
      return Status::ParseError(
          "snapshot corrupt: " + std::to_string(state.live_count) +
          " live matches but " + std::to_string(n_expiry) + " expirations");
    }
    live += static_cast<int64_t>(n_composites + n_expiry);
  }
  ASEQ_RETURN_NOT_OK(ckpt::CheckLiveObjects(stats, live));
  stats_ = stats;
  return Status::OK();
}

}  // namespace aseq
