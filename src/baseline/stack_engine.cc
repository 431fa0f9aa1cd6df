#include "baseline/stack_engine.h"

#include <algorithm>
#include <cassert>

#include "ckpt/ckpt.h"

namespace aseq {

namespace {

/// Operand value against a constructed match (`events` indexed by 0-based
/// positive position).
const Value& MatchOperandValue(const Operand& op,
                               const std::vector<int>& elem_to_pos,
                               const std::vector<const Event*>& events) {
  static const Value kNull;
  if (!op.is_attr_ref()) return op.literal;
  int pos = elem_to_pos[op.elem_index];
  if (pos < 0) return kNull;
  return events[pos]->GetAttr(op.attr);
}

}  // namespace

StackEngine::StackEngine(CompiledQuery query)
    : query_(std::move(query)),
      length_(query_.num_positive()),
      carrier_pos_(query_.agg_positive_pos()),
      grouped_(query_.partition_spec().per_group_output),
      program_(query_) {
  stacks_.resize(length_);
  for (size_t i = 0; i < query_.pattern().size(); ++i) {
    if (!query_.pattern().elements()[i].negated) continue;
    const std::vector<Role>* roles =
        query_.FindRoles(query_.pattern().elements()[i].type);
    assert(roles != nullptr);
    for (const Role& role : *roles) {
      if (role.negated && role.elem_index == i) {
        neg_roles_.push_back(role);
      }
    }
  }
  neg_events_.resize(neg_roles_.size());
  lazy_ = !neg_roles_.empty();
  dfs_match_.resize(length_, nullptr);
}

void StackEngine::PurgeExpired(Timestamp now) {
  if (!query_.has_window()) return;
  const Timestamp win = query_.window_ms();
  for (PosStack& stack : stacks_) {
    while (!stack.entries.empty() &&
           stack.entries.front().event.ts() + win <= now) {
      stack.entries.pop_front();
      ++stack.base;
      stats_.objects.Remove(2);  // event reference + adjacency pointer
    }
  }
  for (std::deque<NegEvent>& events : neg_events_) {
    while (!events.empty() && events.front().ts + win <= now) {
      events.pop_front();
      stats_.objects.Remove(1);
    }
  }
  // Expire retained matches whose START left the window.
  while (!expiry_.empty() && expiry_.top().exp <= now) {
    const ExpiryItem& item = expiry_.top();
    auto it = groups_.find(item.group);
    assert(it != groups_.end());
    GroupAgg& agg = it->second;
    assert(agg.count > 0);
    --agg.count;
    agg.sum -= item.value;
    if (!agg.values.empty()) {
      auto vit = agg.values.find(item.value);
      if (vit != agg.values.end()) agg.values.erase(vit);
    }
    if (agg.count == 0) groups_.erase(it);
    expiry_.pop();
    --live_matches_;
    stats_.objects.Remove(1);
  }
  while (!lazy_expiry_.empty() && lazy_expiry_.top().exp <= now) {
    lazy_matches_.erase(lazy_expiry_.top().id);
    lazy_expiry_.pop();
    --live_matches_;
    stats_.objects.Remove(1);
  }
  next_expiry_ = ComputeNextExpiry();
}

Timestamp StackEngine::ComputeNextExpiry() const {
  Timestamp min_exp = std::numeric_limits<Timestamp>::max();
  if (!query_.has_window()) return min_exp;
  const Timestamp win = query_.window_ms();
  for (const PosStack& stack : stacks_) {
    if (!stack.entries.empty()) {
      min_exp = std::min(min_exp, stack.entries.front().event.ts() + win);
    }
  }
  for (const std::deque<NegEvent>& events : neg_events_) {
    if (!events.empty()) min_exp = std::min(min_exp, events.front().ts + win);
  }
  if (!expiry_.empty()) min_exp = std::min(min_exp, expiry_.top().exp);
  if (!lazy_expiry_.empty()) {
    min_exp = std::min(min_exp, lazy_expiry_.top().exp);
  }
  return min_exp;
}

void StackEngine::OnBatch(std::span<const Event> batch,
                          std::vector<Output>* out) {
  if (batch.empty()) return;
  const bool windowed = query_.has_window();
  const Timestamp win = query_.window_ms();
  for (const Event& e : batch) {
    if (e.ts() >= next_expiry_) PurgeExpired(e.ts());
    ProcessEvent(e, out);
    // State created here expires at e.ts() + window or later (retained
    // matches inherit their start entry's expiry, already covered).
    if (windowed) next_expiry_ = std::min(next_expiry_, e.ts() + win);
  }
  stats_.NoteBatch(batch.size());
}

void StackEngine::ProcessEvent(const Event& e, std::vector<Output>* out) {
  ++stats_.events_processed;

  bool trigger = false;
  plan::AdmissionRecord rec;
  for (const plan::RoleProgram& rp : program_.RolesFor(e.type())) {
    // Fused qualify + key extraction: AdmitRole rejects exactly when the
    // interpreted QualifiesFor/PartitionKeyFor pair did (failed local
    // predicate, or a covering partition attribute missing/null).
    if (!program_.AdmitRole(e, rp, &rec, &stats_)) continue;
    const Role& role = rp.role;
    if (role.negated) {
      // Retain the instance for the post-filter over constructed matches.
      NegEvent neg;
      neg.seq = e.seq();
      neg.ts = e.ts();
      program_.MaterializeKey(rec, &neg.key, &neg.covered);
      for (size_t r = 0; r < neg_roles_.size(); ++r) {
        if (neg_roles_[r].elem_index == role.elem_index) {
          neg_events_[r].push_back(neg);
          stats_.objects.Add(1);
          ++stats_.work_units;
        }
      }
      continue;
    }
    // Positive role: push onto the position's stack (roles arrive in
    // descending position order, so an instance never pairs with itself).
    size_t pos = role.position - 1;  // 0-based
    StackEntry entry;
    entry.event = e;
    entry.ptr = pos == 0 ? 0 : stacks_[pos - 1].total_pushed();
    stacks_[pos].entries.push_back(std::move(entry));
    stats_.objects.Add(2);
    ++stats_.work_units;
    if (role.position == length_) trigger = true;
  }

  if (trigger) {
    // The freshly pushed entry of the last stack roots the DFS.
    ConstructMatches(e.ts());
    const Value* group = nullptr;
    Value group_value;
    if (grouped_) {
      group_value =
          e.GetAttr(query_.partition_spec()
                        .parts[query_.partition_spec().group_part]
                        .attr);
      group = &group_value;
    }
    out->push_back(lazy_ ? MakeLazyOutput(e.ts(), e.seq(), group)
                         : MakeOutput(e.ts(), e.seq(), group));
    ++stats_.outputs;
  }
}

void StackEngine::ConstructMatches(Timestamp now) {
  assert(!stacks_[length_ - 1].entries.empty());
  dfs_match_[length_ - 1] = &stacks_[length_ - 1].entries.back();
  if (length_ == 1) {
    RecordMatch(now);
    return;
  }
  // DFS over positions length_-2 .. 0 along the adjacency pointers.
  struct Recurse {
    StackEngine* self;
    Timestamp now;
    void operator()(int pos) {
      if (pos < 0) {
        self->RecordMatch(now);
        return;
      }
      const StackEntry& next = *self->dfs_match_[pos + 1];
      PosStack& stack = self->stacks_[pos];
      uint64_t hi = std::min<uint64_t>(next.ptr, stack.total_pushed());
      for (uint64_t abs = hi; abs > stack.base; --abs) {
        const StackEntry& cand = stack.entries[abs - 1 - stack.base];
        ++self->stats_.work_units;
        if (self->query_.partitioned()) {
          // Equivalence check against the trigger's partition key.
          bool match = true;
          const auto& parts = self->query_.partition_spec().parts;
          const Event& trig = self->dfs_match_[self->length_ - 1]->event;
          for (const auto& part : parts) {
            if (!cand.event.GetAttr(part.attr).Equals(
                    trig.GetAttr(part.attr))) {
              match = false;
              break;
            }
          }
          if (!match) continue;
        }
        self->dfs_match_[pos] = &cand;
        (*this)(pos - 1);
      }
    }
  };
  Recurse recurse{this, now};
  recurse(static_cast<int>(length_) - 2);
}

bool StackEngine::LazyMatchValid(const LazyMatch& match) const {
  for (size_t r = 0; r < neg_roles_.size(); ++r) {
    const SeqNum lo = match.bounds[r].first;
    const SeqNum hi = match.bounds[r].second;
    const std::deque<NegEvent>& events = neg_events_[r];
    auto it = std::lower_bound(
        events.begin(), events.end(), lo,
        [](const NegEvent& n, SeqNum s) { return n.seq <= s; });
    for (; it != events.end() && it->seq < hi; ++it) {
      // Partition coverage: the negated instance invalidates only matches
      // agreeing on the key parts that constrain it.
      bool applies = true;
      for (size_t p = 0; p < it->covered.size(); ++p) {
        if (it->covered[p] &&
            !it->key.parts[p].Equals(match.key.parts[p])) {
          applies = false;
          break;
        }
      }
      if (applies) return false;
    }
  }
  return true;
}

bool StackEngine::PassesJoinPredicates() const {
  if (!query_.has_join_predicates()) return true;
  // Map pattern element index -> positive position.
  std::vector<int> elem_to_pos(query_.pattern().size(), -1);
  int pos = 0;
  for (size_t i = 0; i < query_.pattern().size(); ++i) {
    if (!query_.pattern().elements()[i].negated) {
      elem_to_pos[i] = pos++;
    }
  }
  std::vector<const Event*> events;
  events.reserve(length_);
  for (size_t i = 0; i < length_; ++i) events.push_back(&dfs_match_[i]->event);
  for (const Comparison& cmp : query_.join_predicates()) {
    if (!EvalCmp(cmp.op, MatchOperandValue(cmp.lhs, elem_to_pos, events),
                 MatchOperandValue(cmp.rhs, elem_to_pos, events))) {
      return false;
    }
  }
  return true;
}

void StackEngine::RecordMatch(Timestamp now) {
  ++stats_.work_units;
  if (!PassesJoinPredicates()) return;

  const Event& trig = dfs_match_[length_ - 1]->event;
  Value group;  // null when ungrouped
  if (grouped_) {
    group = trig.GetAttr(
        query_.partition_spec().parts[query_.partition_spec().group_part]
            .attr);
  }
  double value = 0;
  if (carrier_pos_ >= 0) {
    value = dfs_match_[carrier_pos_]->event.GetAttr(query_.agg().attr)
                .ToDouble();
  }

  if (lazy_) {
    // The paper's late-filter architecture: materialize the positive match;
    // the negation check happens only when results are produced.
    LazyMatch match;
    match.exp = query_.has_window()
                    ? dfs_match_[0]->event.ts() + query_.window_ms()
                    : INT64_MAX;
    match.value = value;
    match.group = group;
    if (query_.partitioned()) {
      const auto& parts = query_.partition_spec().parts;
      match.key.parts.reserve(parts.size());
      for (const auto& part : parts) {
        match.key.parts.push_back(trig.GetAttr(part.attr));
      }
    }
    match.bounds.reserve(neg_roles_.size());
    for (const Role& role : neg_roles_) {
      match.bounds.emplace_back(dfs_match_[role.position - 1]->event.seq(),
                                dfs_match_[role.position]->event.seq());
    }
    uint64_t id = next_lazy_id_++;
    if (query_.has_window()) {
      lazy_expiry_.push(LazyExpiry{match.exp, id});
    }
    lazy_matches_.emplace(id, std::move(match));
    ++live_matches_;
    stats_.objects.Add(1);
    return;
  }

  GroupAgg& agg = groups_[group];
  ++agg.count;
  agg.sum += value;
  if (query_.agg().func == AggFunc::kMin ||
      query_.agg().func == AggFunc::kMax) {
    agg.values.insert(value);
  }
  if (query_.has_window()) {
    expiry_.push(ExpiryItem{dfs_match_[0]->event.ts() + query_.window_ms(),
                            group, value});
  }
  ++live_matches_;
  stats_.objects.Add(1);
  (void)now;
}

Output StackEngine::MakeOutput(Timestamp ts, SeqNum seq, const Value* group) {
  Output output;
  output.ts = ts;
  output.seq = seq;
  const GroupAgg* agg = nullptr;
  if (group != nullptr) {
    output.group = *group;
    auto it = groups_.find(*group);
    if (it != groups_.end()) agg = &it->second;
  } else {
    auto it = groups_.find(Value());
    if (it != groups_.end()) agg = &it->second;
  }
  uint64_t count = agg != nullptr ? agg->count : 0;
  double sum = agg != nullptr ? agg->sum : 0;
  switch (query_.agg().func) {
    case AggFunc::kCount:
      output.value = Value(static_cast<int64_t>(count));
      break;
    case AggFunc::kSum:
      output.value = Value(sum);
      break;
    case AggFunc::kAvg:
      output.value = count == 0
                         ? Value()
                         : Value(sum / static_cast<double>(count));
      break;
    case AggFunc::kMin:
      output.value = (agg == nullptr || agg->values.empty())
                         ? Value()
                         : Value(*agg->values.begin());
      break;
    case AggFunc::kMax:
      output.value = (agg == nullptr || agg->values.empty())
                         ? Value()
                         : Value(*agg->values.rbegin());
      break;
  }
  return output;
}

Output StackEngine::MakeLazyOutput(Timestamp ts, SeqNum seq,
                                   const Value* group) {
  Output output;
  output.ts = ts;
  output.seq = seq;
  if (group != nullptr) output.group = *group;
  uint64_t count = 0;
  double sum = 0;
  bool has_ext = false;
  double ext = 0;
  const bool want_min = query_.agg().func == AggFunc::kMin;
  for (const auto& [id, match] : lazy_matches_) {
    ++stats_.work_units;  // the post-filter pass the paper charges
    if (group != nullptr && !match.group.Equals(*group)) continue;
    if (!LazyMatchValid(match)) continue;
    ++count;
    sum += match.value;
    if (!has_ext || (want_min ? match.value < ext : match.value > ext)) {
      has_ext = true;
      ext = match.value;
    }
  }
  switch (query_.agg().func) {
    case AggFunc::kCount:
      output.value = Value(static_cast<int64_t>(count));
      break;
    case AggFunc::kSum:
      output.value = Value(sum);
      break;
    case AggFunc::kAvg:
      output.value =
          count == 0 ? Value() : Value(sum / static_cast<double>(count));
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      output.value = has_ext ? Value(ext) : Value();
      break;
  }
  return output;
}

Status StackEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  writer->WriteI64(next_expiry_);
  writer->WriteU64(stacks_.size());
  for (const PosStack& stack : stacks_) {
    writer->WriteU64(stack.base);
    writer->WriteU64(stack.entries.size());
    for (const StackEntry& entry : stack.entries) {
      ckpt::WriteEvent(writer, entry.event);
      writer->WriteU64(entry.ptr);
    }
  }
  writer->WriteU64(neg_events_.size());
  for (const std::deque<NegEvent>& events : neg_events_) {
    writer->WriteU64(events.size());
    for (const NegEvent& neg : events) {
      writer->WriteU64(neg.seq);
      writer->WriteI64(neg.ts);
      ckpt::WritePartitionKey(writer, neg.key);
      writer->WriteU64(neg.covered.size());
      for (bool covered : neg.covered) writer->WriteBool(covered);
    }
  }
  writer->WriteU64(groups_.size());
  for (const auto& [group, agg] : groups_) {
    ckpt::WriteValue(writer, group);
    writer->WriteU64(agg.count);
    writer->WriteDouble(agg.sum);
    writer->WriteU64(agg.values.size());
    for (double v : agg.values) writer->WriteDouble(v);
  }
  // Expiry heaps serialize their underlying array verbatim, not a drained
  // copy: the comparator keys on exp alone, so equal expirations pop in
  // array-layout order, and PurgeExpired retracts match values from agg.sum
  // in that order — a floating-point sum the pop order must reproduce
  // exactly (see ckpt::HeapContainer).
  const auto& expiry_heap = ckpt::HeapContainer(expiry_);
  writer->WriteU64(expiry_heap.size());
  for (const ExpiryItem& item : expiry_heap) {
    writer->WriteI64(item.exp);
    ckpt::WriteValue(writer, item.group);
    writer->WriteDouble(item.value);
  }
  writer->WriteU64(next_lazy_id_);
  writer->WriteU64(live_matches_);
  // Bucket count pins lazy_matches_' iteration order, which MakeLazyOutput's
  // floating-point merge order observes (see HpcEngine::Restore).
  writer->WriteU64(lazy_matches_.bucket_count());
  writer->WriteU64(lazy_matches_.size());
  for (const auto& [id, match] : lazy_matches_) {
    writer->WriteU64(id);
    writer->WriteI64(match.exp);
    writer->WriteDouble(match.value);
    ckpt::WriteValue(writer, match.group);
    ckpt::WritePartitionKey(writer, match.key);
    writer->WriteU64(match.bounds.size());
    for (const auto& [lo, hi] : match.bounds) {
      writer->WriteU64(lo);
      writer->WriteU64(hi);
    }
  }
  const auto& lazy_heap = ckpt::HeapContainer(lazy_expiry_);
  writer->WriteU64(lazy_heap.size());
  for (const LazyExpiry& item : lazy_heap) {
    writer->WriteI64(item.exp);
    writer->WriteU64(item.id);
  }
  return Status::OK();
}

Status StackEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&next_expiry_, "stack next expiry"));
  uint64_t n_stacks = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_stacks, 16, "position stacks"));
  if (n_stacks != stacks_.size()) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n_stacks) +
        " position stacks but the query has " + std::to_string(stacks_.size()));
  }
  for (PosStack& stack : stacks_) {
    stack.entries.clear();
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&stack.base, "stack base"));
    uint64_t n_entries = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_entries, 28, "stack entries"));
    for (uint64_t i = 0; i < n_entries; ++i) {
      StackEntry entry;
      ASEQ_RETURN_NOT_OK(ckpt::ReadEvent(reader, &entry.event));
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&entry.ptr, "stack entry ptr"));
      stack.entries.push_back(std::move(entry));
    }
  }
  uint64_t n_neg = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_neg, 8, "negation deques"));
  if (n_neg != neg_events_.size()) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n_neg) +
        " negation deques but the query has " +
        std::to_string(neg_events_.size()));
  }
  for (std::deque<NegEvent>& events : neg_events_) {
    events.clear();
    uint64_t n_events = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_events, 24, "negated instances"));
    for (uint64_t i = 0; i < n_events; ++i) {
      NegEvent neg;
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&neg.seq, "negated seq"));
      ASEQ_RETURN_NOT_OK(reader->ReadI64(&neg.ts, "negated ts"));
      ASEQ_RETURN_NOT_OK(ckpt::ReadPartitionKey(reader, &neg.key));
      uint64_t n_covered = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_covered, 1, "coverage flags"));
      neg.covered.resize(n_covered);
      for (uint64_t j = 0; j < n_covered; ++j) {
        bool covered = false;
        ASEQ_RETURN_NOT_OK(reader->ReadBool(&covered, "coverage flag"));
        neg.covered[j] = covered;
      }
      events.push_back(std::move(neg));
    }
  }
  groups_.clear();
  uint64_t n_groups = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_groups, 25, "aggregation groups"));
  for (uint64_t i = 0; i < n_groups; ++i) {
    Value group;
    ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &group));
    GroupAgg agg;
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&agg.count, "group count"));
    ASEQ_RETURN_NOT_OK(reader->ReadDouble(&agg.sum, "group sum"));
    uint64_t n_values = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_values, 8, "group values"));
    for (uint64_t j = 0; j < n_values; ++j) {
      double v = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadDouble(&v, "group value"));
      agg.values.insert(v);
    }
    groups_[std::move(group)] = std::move(agg);
  }
  expiry_ = {};
  uint64_t n_expiry = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_expiry, 17, "match expirations"));
  auto& expiry_heap = ckpt::MutableHeapContainer(expiry_);
  expiry_heap.reserve(n_expiry);
  for (uint64_t i = 0; i < n_expiry; ++i) {
    ExpiryItem item;
    ASEQ_RETURN_NOT_OK(reader->ReadI64(&item.exp, "match expiry"));
    ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &item.group));
    ASEQ_RETURN_NOT_OK(reader->ReadDouble(&item.value, "match value"));
    expiry_heap.push_back(std::move(item));
  }
  ASEQ_RETURN_NOT_OK(reader->ReadU64(&next_lazy_id_, "next lazy id"));
  ASEQ_RETURN_NOT_OK(reader->ReadU64(&live_matches_, "live match count"));
  uint64_t lazy_buckets = 0;
  uint64_t n_lazy = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadU64(&lazy_buckets, "lazy bucket count"));
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_lazy, 49, "retained matches"));
  std::vector<std::pair<uint64_t, LazyMatch>> parsed;
  parsed.reserve(n_lazy);
  for (uint64_t i = 0; i < n_lazy; ++i) {
    uint64_t id = 0;
    LazyMatch match;
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&id, "lazy match id"));
    ASEQ_RETURN_NOT_OK(reader->ReadI64(&match.exp, "lazy match expiry"));
    ASEQ_RETURN_NOT_OK(reader->ReadDouble(&match.value, "lazy match value"));
    ASEQ_RETURN_NOT_OK(ckpt::ReadValue(reader, &match.group));
    ASEQ_RETURN_NOT_OK(ckpt::ReadPartitionKey(reader, &match.key));
    uint64_t n_bounds = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_bounds, 16, "lazy match bounds"));
    for (uint64_t j = 0; j < n_bounds; ++j) {
      uint64_t lo = 0, hi = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&lo, "bound lo"));
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&hi, "bound hi"));
      match.bounds.emplace_back(lo, hi);
    }
    parsed.emplace_back(id, std::move(match));
  }
  // The table grows only by doubling while it holds matches, and every
  // live match is a counted object, so a real bucket count stays within a
  // small factor of the peak object count; a corrupt one must not drive
  // the rehash allocation.
  if (lazy_buckets / 4 > static_cast<uint64_t>(stats.objects.peak()) + 16) {
    return Status::ParseError("snapshot corrupt: " +
                              std::to_string(lazy_buckets) +
                              " retained-match buckets");
  }
  lazy_matches_.clear();
  lazy_matches_.rehash(lazy_buckets);
  for (auto it = parsed.rbegin(); it != parsed.rend(); ++it) {
    if (!lazy_matches_.emplace(it->first, std::move(it->second)).second) {
      return Status::ParseError(
          "snapshot corrupt: duplicate retained-match id");
    }
  }
  lazy_expiry_ = {};
  uint64_t n_lazy_expiry = 0;
  ASEQ_RETURN_NOT_OK(
      reader->ReadCount(&n_lazy_expiry, 16, "lazy expirations"));
  auto& lazy_heap = ckpt::MutableHeapContainer(lazy_expiry_);
  lazy_heap.reserve(n_lazy_expiry);
  for (uint64_t i = 0; i < n_lazy_expiry; ++i) {
    LazyExpiry item;
    ASEQ_RETURN_NOT_OK(reader->ReadI64(&item.exp, "lazy expiry ts"));
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&item.id, "lazy expiry id"));
    lazy_heap.push_back(item);
  }
  // PurgeExpired retracts one match from its group per expiration and
  // drops two objects per stack entry, one per negated instance and one
  // per live match: the restored state must account for exactly that.
  if (query_.has_window()) {
    std::map<Value, uint64_t, ValueTotalLess> expiring;
    for (const ExpiryItem& item : expiry_heap) ++expiring[item.group];
    bool consistent = expiring.size() == groups_.size() &&
                      live_matches_ == expiry_heap.size() + lazy_heap.size();
    for (const auto& [group, agg] : groups_) {
      auto it = expiring.find(group);
      if (it == expiring.end() || it->second != agg.count) consistent = false;
    }
    if (!consistent) {
      return Status::ParseError(
          "snapshot corrupt: match expirations disagree with the live "
          "matches and group counts");
    }
  }
  uint64_t live = live_matches_;
  for (const PosStack& stack : stacks_) live += 2 * stack.entries.size();
  for (const std::deque<NegEvent>& events : neg_events_) live += events.size();
  ASEQ_RETURN_NOT_OK(
      ckpt::CheckLiveObjects(stats, static_cast<int64_t>(live)));
  stats_ = stats;
  return Status::OK();
}

std::vector<Output> StackEngine::Poll(Timestamp now) {
  PurgeExpired(now);
  std::vector<Output> outputs;
  if (lazy_) {
    if (!grouped_) {
      outputs.push_back(MakeLazyOutput(now, 0, nullptr));
      return outputs;
    }
    // One output per group with any retained match.
    std::map<Value, bool, ValueTotalLess> groups;
    for (const auto& [id, match] : lazy_matches_) {
      groups[match.group] = true;
    }
    for (const auto& [group, unused] : groups) {
      outputs.push_back(MakeLazyOutput(now, 0, &group));
    }
    return outputs;
  }
  if (!grouped_) {
    outputs.push_back(MakeOutput(now, 0, nullptr));
    return outputs;
  }
  for (const auto& [group, agg] : groups_) {
    outputs.push_back(MakeOutput(now, 0, &group));
  }
  return outputs;
}

}  // namespace aseq
