#include "multi/chop_connect_engine.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "ckpt/ckpt.h"

namespace aseq {

namespace {

/// Empty dispatch row for types beyond the dense trigger index's range.
const std::vector<size_t> kNoTriggers;

/// Orders ChopConnectEngine::due_ as a min-heap on expiration.
bool DueLater(const std::pair<Timestamp, size_t>& a,
              const std::pair<Timestamp, size_t>& b) {
  return a.first > b.first;
}

}  // namespace

ChopConnectEngine::ChopConnectEngine(std::vector<CompiledQuery> queries,
                                     ChopPlan plan)
    : queries_(std::move(queries)), plan_(std::move(plan)) {
  for (const CompiledQuery& q : queries_) {
    plan::AdmissionProgram program(q);
    for (EventTypeId t : q.positive_types()) {
      if (t >= type_relevant_.size()) type_relevant_.resize(t + 1, 0);
      if (program.Relevant(t)) type_relevant_[t] = 1;
    }
    programs_.push_back(std::move(program));
  }
}

Result<std::unique_ptr<ChopConnectEngine>> ChopConnectEngine::Create(
    std::vector<CompiledQuery> queries, ChopPlan plan) {
  if (queries.empty()) {
    return Status::InvalidArgument("Chop-Connect needs at least one query");
  }
  if (plan.query_segments.size() != queries.size()) {
    return Status::InvalidArgument(
        "plan must assign segments to every workload query");
  }
  Timestamp window = queries[0].window_ms();
  const bool grouped = queries[0].partitioned();
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const CompiledQuery& q = queries[qi];
    if (q.agg().func != AggFunc::kCount || q.has_join_predicates() ||
        q.pattern().has_negation()) {
      return Status::Unsupported(
          "Chop-Connect supports COUNT over positive-only patterns: " +
          q.ToString());
    }
    if (q.partitioned() != grouped) {
      return Status::Unsupported(
          "Chop-Connect workloads must be uniformly grouped or ungrouped: " +
          q.ToString());
    }
    if (grouped) {
      // The one partitioning shape the shared state decomposes under: every
      // query GROUP BY the same single attribute (one interned key part,
      // per-group output, no extra equivalence parts).
      const PartitionSpec& spec = q.partition_spec();
      if (!spec.per_group_output || spec.parts.size() != 1 ||
          spec.group_part != 0 ||
          spec.parts[0].attr != queries[0].partition_spec().parts[0].attr) {
        return Status::Unsupported(
            "Chop-Connect supports partitioning only as GROUP BY one "
            "attribute shared by every workload query: " +
            q.ToString());
      }
    }
    for (const auto& preds : q.local_predicates()) {
      if (!preds.empty()) {
        return Status::Unsupported(
            "Chop-Connect does not support WHERE: " + q.ToString());
      }
    }
    if (q.window_ms() != window || window <= 0) {
      return Status::InvalidArgument(
          "Chop-Connect workload queries must share one positive window");
    }
    // Distinct types within a query keep role handling unambiguous.
    const auto& types = q.positive_types();
    for (size_t i = 0; i < types.size(); ++i) {
      for (size_t j = i + 1; j < types.size(); ++j) {
        if (types[i] == types[j]) {
          return Status::Unsupported(
              "Chop-Connect requires distinct event types per pattern: " +
              q.ToString());
        }
      }
    }
    // The plan's segment concatenation must reproduce the pattern.
    std::vector<EventTypeId> concat;
    if (qi >= plan.query_segments.size()) {
      return Status::InvalidArgument("plan missing query " +
                                     std::to_string(qi));
    }
    for (size_t seg : plan.query_segments[qi]) {
      if (seg >= plan.segments.size()) {
        return Status::InvalidArgument("plan references unknown segment");
      }
      if (plan.segments[seg].empty()) {
        return Status::InvalidArgument("plan has an empty segment");
      }
      concat.insert(concat.end(), plan.segments[seg].begin(),
                    plan.segments[seg].end());
    }
    if (concat != types) {
      return Status::InvalidArgument(
          "plan segments do not concatenate to the pattern of " +
          q.ToString());
    }
  }
  std::unique_ptr<ChopConnectEngine> engine(
      new ChopConnectEngine(std::move(queries), std::move(plan)));
  engine->window_ms_ = window;
  engine->grouped_ = grouped;
  if (grouped) {
    engine->group_attr_ = engine->queries_[0].partition_spec().parts[0].attr;
  }
  engine->Build();
  return engine;
}

void ChopConnectEngine::Build() {
  segments_.resize(plan_.segments.size());
  for (size_t s = 0; s < plan_.segments.size(); ++s) {
    segments_[s].types = plan_.segments[s];
  }
  dyn_.resize(segments_.size());
  final_hook_.assign(queries_.size(), -1);
  auto trigger_row = [this](EventTypeId t) -> std::vector<size_t>& {
    if (t >= trigger_index_.size()) trigger_index_.resize(t + 1);
    return trigger_index_[t];
  };
  auto update_row =
      [this](EventTypeId t) -> std::vector<std::pair<size_t, size_t>>& {
    if (t >= update_index_.size()) update_index_.resize(t + 1);
    return update_index_[t];
  };
  // Register hooks: one per (query, junction >= 1).
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const std::vector<size_t>& segs = plan_.query_segments[qi];
    int upstream_hook = -1;
    for (size_t j = 1; j < segs.size(); ++j) {
      Segment& seg = segments_[segs[j]];
      Hook hook;
      hook.query = qi;
      hook.junction = j;
      hook.upstream_seg = segs[j - 1];
      hook.upstream_hook = upstream_hook;
      hook.first_seg = segs[0];
      upstream_hook = static_cast<int>(seg.hooks.size());
      seg.hooks.push_back(hook);
    }
    if (segs.size() > 1) final_hook_[qi] = upstream_hook;
    // Trigger type: last type of the last segment.
    trigger_row(segments_[segs.back()].types.back()).push_back(qi);
  }
  // Update index per type (dense, EventTypeId-indexed).
  for (size_t s = 0; s < segments_.size(); ++s) {
    const auto& types = segments_[s].types;
    for (size_t pos = types.size(); pos > 0; --pos) {
      update_row(types[pos - 1]).emplace_back(s, pos - 1);
    }
  }
}

void ChopConnectEngine::PurgeSegment(SegState* st, size_t seg,
                                     Timestamp now) {
  const size_t n_types = segments_[seg].types.size();
  const size_t n_hooks = segments_[seg].hooks.size();
  size_t n = 0;
  uint64_t rows = 0;
  for (; n < st->entries.size() && st->entries[n].exp <= now; ++n) {
    for (size_t h = 0; h < n_hooks; ++h) {
      rows += st->tables[n * n_hooks + h].size;
    }
  }
  if (n == 0) return;
  stats_.objects.Remove(static_cast<int64_t>(n + rows));
  st->entries.pop_front(n);
  st->counts.pop_front(n * n_types);
  st->tables.pop_front(n * n_hooks);
  st->rows.pop_front(rows);
}

void ChopConnectEngine::Purge(Timestamp now) {
  while (!due_.empty() && due_.front().first <= now) {
    std::pop_heap(due_.begin(), due_.end(), DueLater);
    const size_t s = due_.back().second;
    SegState& st = dyn_[s];
    PurgeSegment(&st, s, now);
    if (st.entries.empty()) {
      due_.pop_back();
    } else {
      due_.back().first = st.entries[0].exp;
      std::push_heap(due_.begin(), due_.end(), DueLater);
    }
  }
  next_expiry_ =
      due_.empty() ? std::numeric_limits<Timestamp>::max() : due_.front().first;
}

void ChopConnectEngine::RebuildDue() {
  due_.clear();
  for (size_t s = 0; s < dyn_.size(); ++s) {
    if (!dyn_[s].entries.empty()) due_.emplace_back(dyn_[s].entries[0].exp, s);
  }
  std::make_heap(due_.begin(), due_.end(), DueLater);
}

Timestamp ChopConnectEngine::PartNextExpiry(const PartState& part) const {
  Timestamp min_exp = state::WindowClock::kNever;
  for (const SegState& st : part.segs) {
    if (!st.entries.empty()) min_exp = std::min(min_exp, st.entries[0].exp);
  }
  return min_exp;
}

void ChopConnectEngine::AdvanceClock(Timestamp now) {
  clock_.AdvanceTo(
      now, [&](const state::WindowClock::Entry& top) -> Timestamp {
        const uint32_t slot = part_store_.Lookup(top.hash, top.key);
        if (slot == state::kNoSlot) return state::WindowClock::kNever;
        PartState& part = part_store_.at(slot);
        for (size_t s = 0; s < part.segs.size(); ++s) {
          PurgeSegment(&part.segs[s], s, now);
        }
        const Timestamp next = PartNextExpiry(part);
        if (next == state::WindowClock::kNever) {
          part_store_.Erase(slot);
          return state::WindowClock::kNever;
        }
        return next;
      });
}

void ChopConnectEngine::ComputeSnapshot(const Hook& hook,
                                        const std::vector<SegState>& dyn,
                                        Timestamp now, SegState* st) {
  // Reading another segment while appending to *st keeps no pointer
  // across a reallocation of the rows it reads.
  assert(&dyn[hook.upstream_seg] != st && &dyn[hook.first_seg] != st);
  FlatFifo<SnapRow>& rows = st->rows;
  const size_t begin = rows.size();
  if (hook.upstream_hook < 0) {
    // Upstream is the query's first segment: tags are its START entries
    // (already in arrival == expiration order).
    const SegState& up = dyn[hook.upstream_seg];
    const size_t n_types = segments_[hook.upstream_seg].types.size();
    const uint64_t* count = up.counts.data() + (n_types - 1);
    stats_.work_units += up.entries.size();
    for (size_t i = 0; i < up.entries.size(); ++i, count += n_types) {
      if (*count > 0) {
        rows.push_back(SnapRow{up.entries[i].id, up.entries[i].exp, *count, 0});
      }
    }
  } else {
    MultiConnect(hook, dyn, now, &rows);
  }
  uint64_t cum = 0;
  for (size_t i = rows.size(); i > begin; --i) {
    cum += rows[i - 1].count;
    rows[i - 1].cum = cum;
  }
  st->tables.push_back(
      TableRef{rows.popped() + begin, rows.size() - begin, 0});
}

void ChopConnectEngine::MultiConnect(const Hook& hook,
                                     const std::vector<SegState>& dyn,
                                     Timestamp now, FlatFifo<SnapRow>* rows) {
  // Multi-connect (Fig. 11): combine the upstream segment's counters with
  // their snapshots, summing per full-sequence START tag. A live row's tag
  // is the id of a live entry of the query's first segment, and carries
  // that entry's expiration; ids there are consecutive, so the accumulator
  // is dense over [lo, lo + span) and its slot order is tag order, i.e.
  // expiration order.
  const SegState& first = dyn[hook.first_seg];
  const size_t span = first.entries.size();
  const uint64_t lo = first.next_id - span;
  if (acc_.size() < span) acc_.resize(span);

  const SegState& up = dyn[hook.upstream_seg];
  const size_t n_types = segments_[hook.upstream_seg].types.size();
  const size_t n_hooks = segments_[hook.upstream_seg].hooks.size();
  const size_t upstream_hook = static_cast<size_t>(hook.upstream_hook);
  const uint64_t* mult = up.counts.data() + (n_types - 1);
  for (size_t i = 0; i < up.entries.size(); ++i, mult += n_types) {
    ++stats_.work_units;
    if (*mult == 0) continue;
    const TableRef& table = up.tables[i * n_hooks + upstream_hook];
    stats_.work_units += table.size;
    const SnapRow* row = up.RowsOf(table);
    const SnapRow* end = row + table.size;
    // Rows are in expiration order: skip the expired prefix at once.
    row = std::partition_point(
        row, end, [now](const SnapRow& r) { return r.exp <= now; });
    for (; row != end; ++row) {
      // Tags outside the span occur only in a restored state whose rows
      // disagree with its first segment; they are dropped, not indexed.
      const uint64_t slot = row->tag - lo;
      if (row->count == 0 || slot >= span) continue;
      AccSlot& acc = acc_[slot];
      acc.count += row->count * *mult;
      acc.present = true;
    }
  }
  for (size_t slot = 0; slot < span; ++slot) {
    AccSlot& acc = acc_[slot];
    if (!acc.present) continue;
    rows->push_back(SnapRow{lo + slot, first.entries[slot].exp, acc.count, 0});
    acc = AccSlot();
  }
}

uint64_t ChopConnectEngine::LiveSum(const SegState& st, TableRef* table,
                                    Timestamp now) {
  const SnapRow* rows = st.RowsOf(*table);
  while (table->cursor < table->size && rows[table->cursor].exp <= now) {
    ++table->cursor;
  }
  return table->cursor < table->size ? rows[table->cursor].cum : 0;
}

uint64_t ChopConnectEngine::QueryTotal(size_t qi, std::vector<SegState>& dyn,
                                       Timestamp now) {
  const std::vector<size_t>& segs = plan_.query_segments[qi];
  SegState& last = dyn[segs.back()];
  const size_t n_types = segments_[segs.back()].types.size();
  const uint64_t* tail = last.counts.data() + (n_types - 1);
  uint64_t total = 0;
  if (segs.size() == 1) {
    for (size_t i = 0; i < last.entries.size(); ++i, tail += n_types) {
      total += *tail;
    }
    return total;
  }
  const size_t n_hooks = segments_[segs.back()].hooks.size();
  const size_t hook = static_cast<size_t>(final_hook_[qi]);
  for (size_t i = 0; i < last.entries.size(); ++i, tail += n_types) {
    ++stats_.work_units;
    if (*tail == 0) continue;
    total += *tail * LiveSum(last, &last.tables[i * n_hooks + hook], now);
  }
  return total;
}

void ChopConnectEngine::OnBatch(std::span<const Event> batch,
                                std::vector<MultiOutput>* out) {
  if (batch.empty()) return;
  if (grouped_) {
    // Purging is partition-local (no global sweep to hoist); the clock
    // already makes trigger-time expiry amortized O(expired entries).
    for (const Event& e : batch) ProcessGroupedEvent(e, out);
    stats_.NoteBatch(batch.size());
    return;
  }
  for (const Event& e : batch) {
    if (e.ts() >= next_expiry_) Purge(e.ts());
    ProcessEvent(e, out);
    // New segment entries expire at e.ts() + window; keep the bound valid.
    next_expiry_ = std::min(next_expiry_, e.ts() + window_ms_);
  }
  stats_.NoteBatch(batch.size());
}

void ChopConnectEngine::ProcessGroupedEvent(const Event& e,
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

  // Does this type start a segment (i.e. create entries)? Only then is an
  // absent partition materialized — mirroring HpcEngine, where only START
  // roles create partitions.
  bool creates = false;
  if (e.type() < update_index_.size()) {
    for (const auto& [s, pos] : update_index_[e.type()]) {
      if (pos == 0) creates = true;
    }
  }

  uint32_t slot = part_store_.Lookup(hash, key);
  if (slot == state::kNoSlot && creates) {
    auto [slot_ref, inserted] = part_store_.Upsert(hash, key);
    *slot_ref = part_store_.Emplace(key, hash, segments_.size());
    slot = *slot_ref;
  }
  if (slot != state::kNoSlot) {
    PartState& part = part_store_.at(slot);
    // HPC-style partition-local purge: only the partition this event's
    // key owns is purged here; the rest purge lazily at trigger time via
    // the clock. (A trigger event purges its own partition here too, so
    // the later clock advance sees it already clean.)
    for (size_t s = 0; s < part.segs.size(); ++s) {
      PurgeSegment(&part.segs[s], s, e.ts());
    }
    const bool was_empty = PartNextExpiry(part) == state::WindowClock::kNever;
    ApplyUpdates(e, part.segs);
    // An entry landing in an empty partition establishes a new earliest
    // expiration; put it on the clock *before* any trigger advance below
    // (non-empty partitions already have a clock entry at or before their
    // true next expiry — the clock invariant).
    if (was_empty) clock_.Schedule(PartNextExpiry(part), hash, key);
  }

  // Grouped trigger: the serial engine purges *every* partition here (the
  // clock makes that amortized O(expired entries)), then reports from the
  // trigger's own group alone. The advance can erase partitions — this
  // event's included, if it left its group empty — so the scope is
  // re-resolved afterwards (absent partition counts zero).
  const std::vector<size_t>& trigs =
      e.type() < trigger_index_.size() ? trigger_index_[e.type()] : kNoTriggers;
  if (trigs.empty()) return;
  AdvanceClock(e.ts());
  slot = part_store_.Lookup(hash, key);
  PartState* part = slot == state::kNoSlot ? nullptr : &part_store_.at(slot);
  for (size_t qi : trigs) {
    const uint64_t total =
        part == nullptr ? 0 : QueryTotal(qi, part->segs, e.ts());
    out->push_back(MultiOutput{
        qi, Output{e.ts(), e.seq(), part_store_.interner().ValueOf(gid),
                   Value(static_cast<int64_t>(total))}});
    ++stats_.outputs;
  }
}

void ChopConnectEngine::ApplyUpdates(const Event& e,
                                     std::vector<SegState>& dyn) {
  const EventTypeId type = e.type();
  if (type >= update_index_.size()) return;
  const std::vector<std::pair<size_t, size_t>>& updates = update_index_[type];
  // CNET pre-pass (Lemma 7): snapshots use counts from *before* this
  // arrival's updates. Each table lands in the flat storage of the segment
  // the type starts, ahead of the entry the update pass below creates there.
  for (const auto& [s, pos] : updates) {
    if (pos != 0) continue;
    for (const Hook& hook : segments_[s].hooks) {
      ComputeSnapshot(hook, dyn, e.ts(), &dyn[s]);
    }
  }

  // Apply updates / create counters.
  for (const auto& [s, pos] : updates) {
    SegState& st = dyn[s];
    const size_t n_types = segments_[s].types.size();
    if (pos == 0) {
      if (!grouped_ && st.entries.empty()) {
        due_.emplace_back(e.ts() + window_ms_, s);
        std::push_heap(due_.begin(), due_.end(), DueLater);
      }
      st.entries.push_back(EntryHead{st.next_id++, e.ts() + window_ms_});
      st.counts.push_back(1);
      for (size_t p = 1; p < n_types; ++p) st.counts.push_back(0);
      const size_t n_hooks = segments_[s].hooks.size();
      uint64_t rows = 0;
      for (size_t h = st.tables.size() - n_hooks; h < st.tables.size(); ++h) {
        rows += st.tables[h].size;
      }
      stats_.objects.Add(static_cast<int64_t>(1 + rows));
      ++stats_.work_units;
    } else {
      uint64_t* count = st.counts.data();
      for (size_t i = 0; i < st.entries.size(); ++i, count += n_types) {
        count[pos] += count[pos - 1];
      }
      stats_.work_units += st.entries.size();
    }
  }
}

void ChopConnectEngine::ProcessEvent(const Event& e,
                                     std::vector<MultiOutput>* out) {
  ++stats_.events_processed;
  // Type-level early-out via the compiled programs: a type outside every
  // query's pattern is CNET/UPD/TRIG for no segment.
  if (e.type() >= type_relevant_.size() || !type_relevant_[e.type()]) return;

  ApplyUpdates(e, dyn_);

  // Triggers.
  const std::vector<size_t>& trigs =
      e.type() < trigger_index_.size() ? trigger_index_[e.type()] : kNoTriggers;
  for (size_t qi : trigs) {
    // Aggregate-initialize (GCC 12 raises a spurious -Wmaybe-uninitialized
    // on the variant move-assignment the field-wise form compiles to).
    out->push_back(MultiOutput{
        qi, Output{e.ts(), e.seq(), std::nullopt,
                   Value(static_cast<int64_t>(QueryTotal(qi, dyn_, e.ts())))}});
    ++stats_.outputs;
  }
}

std::vector<MultiOutput> ChopConnectEngine::Poll(Timestamp now) {
  std::vector<MultiOutput> outputs;
  if (!grouped_) {
    Purge(now);
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      outputs.push_back(MultiOutput{
          qi, Output{now, 0, std::nullopt,
                     Value(static_cast<int64_t>(QueryTotal(qi, dyn_, now)))}});
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
      PartState& part = part_store_.at(s);
      outputs.push_back(MultiOutput{
          qi,
          Output{now, 0,
                 part_store_.interner().ValueOf(part.key.ids[0]),
                 Value(static_cast<int64_t>(QueryTotal(qi, part.segs, now)))}});
    }
  }
  return outputs;
}

void ChopConnectEngine::SyncPurgeTo(Timestamp now,
                                    std::span<const size_t> trigger_queries) {
  // Every triggered query shares this engine's one clock, so which of them
  // triggered is immaterial — the purge happens once.
  (void)trigger_queries;
  if (!grouped_) return;
  AdvanceClock(now);
}

Status ChopConnectEngine::CheckpointSegState(const SegState& st,
                                             const Segment& seg,
                                             ckpt::Writer* writer) const {
  const size_t n_types = seg.types.size();
  const size_t n_hooks = seg.hooks.size();
  writer->WriteU64(st.next_id);
  writer->WriteU64(st.entries.size());
  for (size_t i = 0; i < st.entries.size(); ++i) {
    writer->WriteU64(st.entries[i].id);
    writer->WriteI64(st.entries[i].exp);
    for (size_t p = 0; p < n_types; ++p) {
      writer->WriteU64(st.counts[i * n_types + p]);
    }
    for (size_t h = 0; h < n_hooks; ++h) {
      const TableRef& table = st.tables[i * n_hooks + h];
      writer->WriteU64(table.cursor);
      writer->WriteU64(table.size);
      const SnapRow* rows = st.RowsOf(table);
      for (size_t r = 0; r < table.size; ++r) {
        writer->WriteU64(rows[r].tag);
        writer->WriteI64(rows[r].exp);
        writer->WriteU64(rows[r].count);
        writer->WriteU64(rows[r].cum);
      }
    }
  }
  return Status::OK();
}

Status ChopConnectEngine::RestoreSegState(SegState* st, const Segment& seg,
                                          ckpt::Reader* reader) {
  *st = SegState();
  ASEQ_RETURN_NOT_OK(reader->ReadU64(&st->next_id, "segment next id"));
  uint64_t n_entries = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_entries, 16, "segment entries"));
  for (uint64_t i = 0; i < n_entries; ++i) {
    EntryHead head;
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&head.id, "entry id"));
    ASEQ_RETURN_NOT_OK(reader->ReadI64(&head.exp, "entry expiry"));
    if (head.id >= st->next_id ||
        (i > 0 && head.id <= st->entries[i - 1].id)) {
      return Status::ParseError(
          "snapshot corrupt: entry id " + std::to_string(head.id) +
          " is not strictly ascending below the segment's next id " +
          std::to_string(st->next_id));
    }
    st->entries.push_back(head);
    for (size_t p = 0; p < seg.types.size(); ++p) {
      uint64_t count = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&count, "entry count"));
      st->counts.push_back(count);
    }
    uint64_t rows = 0;
    for (size_t h = 0; h < seg.hooks.size(); ++h) {
      TableRef table{st->rows.popped() + st->rows.size(), 0, 0};
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&table.cursor, "snapshot cursor"));
      ASEQ_RETURN_NOT_OK(reader->ReadCount(&table.size, 32, "snapshot rows"));
      if (table.cursor > table.size) {
        return Status::ParseError(
            "snapshot corrupt: snapshot cursor " +
            std::to_string(table.cursor) + " beyond its " +
            std::to_string(table.size) + " row(s)");
      }
      for (uint64_t r = 0; r < table.size; ++r) {
        SnapRow row;
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&row.tag, "row tag"));
        ASEQ_RETURN_NOT_OK(reader->ReadI64(&row.exp, "row expiry"));
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&row.count, "row count"));
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&row.cum, "row cum"));
        if (r > 0) {
          const SnapRow& prev = st->rows[st->rows.size() - 1];
          if (row.tag <= prev.tag || row.exp < prev.exp) {
            return Status::ParseError(
                "snapshot corrupt: snapshot row (tag " +
                std::to_string(row.tag) + ", expiry " +
                std::to_string(row.exp) + ") out of order after (tag " +
                std::to_string(prev.tag) + ", expiry " +
                std::to_string(prev.exp) + ")");
          }
        }
        st->rows.push_back(row);
      }
      // Each row's cum is its suffix sum (wrapping, as BuildSuffix adds).
      const SnapRow* table_rows = st->RowsOf(table);
      uint64_t cum = 0;
      for (uint64_t r = table.size; r > 0; --r) {
        cum += table_rows[r - 1].count;
        if (table_rows[r - 1].cum != cum) {
          return Status::ParseError(
              "snapshot corrupt: snapshot row cum " +
              std::to_string(table_rows[r - 1].cum) +
              " differs from its suffix sum " + std::to_string(cum));
        }
      }
      st->tables.push_back(table);
      rows += table.size;
    }
    stats_.objects.Add(static_cast<int64_t>(1 + rows));
  }
  return Status::OK();
}

Status ChopConnectEngine::RestoreScope(std::vector<SegState>* dyn,
                                       ckpt::Reader* reader) {
  for (size_t s = 0; s < segments_.size(); ++s) {
    ASEQ_RETURN_NOT_OK(RestoreSegState(&(*dyn)[s], segments_[s], reader));
  }
  // A hook's row tags are entry ids of the query's first segment, so each
  // lies below that segment's next id (tags ascend: check the last row).
  for (size_t s = 0; s < segments_.size(); ++s) {
    const SegState& st = (*dyn)[s];
    const std::vector<Hook>& hooks = segments_[s].hooks;
    for (size_t i = 0; i < st.entries.size(); ++i) {
      for (size_t h = 0; h < hooks.size(); ++h) {
        const TableRef& table = st.tables[i * hooks.size() + h];
        if (table.size == 0) continue;
        const uint64_t tag = st.RowsOf(table)[table.size - 1].tag;
        const uint64_t next_id = (*dyn)[hooks[h].first_seg].next_id;
        if (tag >= next_id) {
          return Status::ParseError(
              "snapshot corrupt: snapshot row tag " + std::to_string(tag) +
              " at or beyond its first segment's next id " +
              std::to_string(next_id));
        }
      }
    }
  }
  return Status::OK();
}

Status ChopConnectEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  writer->WriteI64(next_expiry_);
  if (grouped_) {
    // Structural spine via the store; each partition's payload is its
    // per-segment state in plan order. The clock rides verbatim.
    ASEQ_RETURN_NOT_OK(part_store_.Checkpoint(
        writer, [this](const PartState& part, ckpt::Writer* w) -> Status {
          for (size_t s = 0; s < segments_.size(); ++s) {
            ASEQ_RETURN_NOT_OK(
                CheckpointSegState(part.segs[s], segments_[s], w));
          }
          return Status::OK();
        }));
    clock_.Checkpoint(writer);
    return Status::OK();
  }
  writer->WriteU64(dyn_.size());
  for (size_t s = 0; s < segments_.size(); ++s) {
    ASEQ_RETURN_NOT_OK(CheckpointSegState(dyn_[s], segments_[s], writer));
  }
  return Status::OK();
}

Status ChopConnectEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(reader->ReadI64(&next_expiry_, "chop next expiry"));
  if (grouped_) {
    ASEQ_RETURN_NOT_OK(part_store_.Restore(
        reader, [&](uint32_t slot, const container::InternedKey& key,
                    uint64_t hash, ckpt::Reader* r) -> Status {
          PartState& part =
              part_store_.RestoreEmplaceAt(slot, key, hash, segments_.size());
          return RestoreScope(&part.segs, r);
        }));
    ASEQ_RETURN_NOT_OK(clock_.Restore(reader, part_store_.interner().size()));
    ASEQ_RETURN_NOT_OK(
        ckpt::CheckLiveObjects(stats, stats_.objects.current()));
    stats_ = stats;
    return Status::OK();
  }
  uint64_t n_segments = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_segments, 16, "segments"));
  if (n_segments != segments_.size()) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n_segments) +
        " segments but the plan builds " + std::to_string(segments_.size()));
  }
  ASEQ_RETURN_NOT_OK(RestoreScope(&dyn_, reader));
  RebuildDue();
  ASEQ_RETURN_NOT_OK(ckpt::CheckLiveObjects(stats, stats_.objects.current()));
  stats_ = stats;
  return Status::OK();
}

}  // namespace aseq
