#include "multi/chop_connect_engine.h"

#include <algorithm>
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
      hook.suffix = j + 1 == segs.size();
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
  dyn_ = std::vector<SegState>(segments_.begin(), segments_.end());
}

void ChopConnectEngine::PurgeSegment(SegState* st, Timestamp now) {
  size_t n = 0;
  while (n < st->size() && st->exps[n] <= now) ++n;
  if (n == 0) return;
  uint64_t objects = n;
  for (HookTables& hook : st->hooks) {
    uint64_t cells = 0;
    for (size_t i = 0; i < n; ++i) {
      cells += hook.tables[i].size;
      objects += hook.tables[i].nonzero;
    }
    hook.tables.pop_front(n);
    hook.cells.pop_front(cells);
  }
  for (FlatFifo<uint64_t>& column : st->counts) column.pop_front(n);
  st->exps.pop_front(n);
  stats_.objects.Remove(static_cast<int64_t>(objects));
}

void ChopConnectEngine::Purge(Timestamp now) {
  while (!due_.empty() && due_.front().first <= now) {
    std::pop_heap(due_.begin(), due_.end(), DueLater);
    const size_t s = due_.back().second;
    SegState& st = dyn_[s];
    PurgeSegment(&st, now);
    if (st.exps.empty()) {
      due_.pop_back();
    } else {
      due_.back().first = st.exps[0];
      std::push_heap(due_.begin(), due_.end(), DueLater);
    }
  }
  next_expiry_ =
      due_.empty() ? std::numeric_limits<Timestamp>::max() : due_.front().first;
}

void ChopConnectEngine::RebuildDue() {
  due_.clear();
  for (size_t s = 0; s < dyn_.size(); ++s) {
    if (!dyn_[s].exps.empty()) due_.emplace_back(dyn_[s].exps[0], s);
  }
  std::make_heap(due_.begin(), due_.end(), DueLater);
}

Timestamp ChopConnectEngine::PartNextExpiry(const PartState& part) const {
  Timestamp min_exp = state::WindowClock::kNever;
  for (const SegState& st : part.segs) {
    if (!st.exps.empty()) min_exp = std::min(min_exp, st.exps[0]);
  }
  return min_exp;
}

void ChopConnectEngine::AdvanceClock(Timestamp now) {
  clock_.AdvanceTo(
      now, [&](const state::WindowClock::Entry& top) -> Timestamp {
        const uint32_t slot = part_store_.Lookup(top.hash, top.key);
        if (slot == state::kNoSlot) return state::WindowClock::kNever;
        PartState& part = part_store_.at(slot);
        for (SegState& st : part.segs) PurgeSegment(&st, now);
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
                                        HookTables* dst) {
  if (hook.upstream_hook >= 0) {
    MultiConnect(hook, dyn, dst);
    return;
  }
  // Upstream is the query's first segment: a cell per START entry, its
  // tail count.
  const SegState& up = dyn[hook.upstream_seg];
  stats_.work_units += up.size();
  AppendTable(up.counts.back().data(), up.lo(), up.size(), hook.suffix, dst);
}

void ChopConnectEngine::MultiConnect(const Hook& hook,
                                     const std::vector<SegState>& dyn,
                                     HookTables* dst) {
  // Multi-connect (Fig. 11): combine the upstream segment's counters with
  // their count tables, summing per full-sequence START tag. Live tags are
  // the first segment's live ids [lo, lo + span), so each upstream entry
  // adds its multiplier times the live overlap of its table into acc_.
  const SegState& first = dyn[hook.first_seg];
  const uint64_t lo = first.lo();
  const size_t span = first.size();
  if (acc_.size() < span) acc_.resize(span);

  const SegState& up = dyn[hook.upstream_seg];
  const HookTables& in = up.hooks[static_cast<size_t>(hook.upstream_hook)];
  const uint64_t* mult = up.counts.back().data();
  const uint64_t* cells = in.cells.data();
  size_t used_lo = span;
  size_t used_hi = 0;
  stats_.work_units += up.size();
  for (size_t i = 0; i < up.size(); ++i) {
    const Table& table = in.tables[i];
    // Cells below lo are expired; every tag lies below lo + span.
    const uint64_t skip = lo > table.first ? lo - table.first : 0;
    if (mult[i] != 0 && skip < table.size) {
      const size_t at = table.first + skip - lo;
      const size_t n = table.size - skip;
      const uint64_t* src = cells + skip;
      uint64_t* sum = acc_.data() + at;
      for (size_t k = 0; k < n; ++k) sum[k] += src[k] * mult[i];
      used_lo = std::min(used_lo, at);
      used_hi = std::max(used_hi, at + n);
      stats_.work_units += n;
    }
    cells += table.size;
  }
  if (used_lo > used_hi) used_lo = used_hi;
  AppendTable(acc_.data() + used_lo, lo + used_lo, used_hi - used_lo,
              hook.suffix, dst);
  std::fill(acc_.data() + used_lo, acc_.data() + used_hi, 0);
}

void ChopConnectEngine::AppendTable(const uint64_t* counts, uint64_t first,
                                    size_t n, bool suffix, HookTables* dst) {
  size_t begin = 0;
  while (begin < n && counts[begin] == 0) ++begin;
  while (n > begin && counts[n - 1] == 0) --n;
  dst->tables.push_back(Table{first + begin, n - begin,
                              NonzeroCounts(counts + begin, n - begin, false)});
  dst->cells.append(counts + begin, n - begin);
  if (!suffix) return;
  uint64_t* cell = dst->cells.data() + dst->cells.size();
  uint64_t cum = 0;
  for (size_t k = begin; k < n; ++k) {
    --cell;
    cum += *cell;
    *cell = cum;
  }
}

uint64_t ChopConnectEngine::NonzeroCounts(const uint64_t* cells, size_t n,
                                          bool suffix) {
  uint64_t nonzero = 0;
  for (size_t k = 0; k < n; ++k) {
    const uint64_t next = suffix && k + 1 < n ? cells[k + 1] : 0;
    nonzero += cells[k] != next;
  }
  return nonzero;
}

uint64_t ChopConnectEngine::QueryTotal(size_t qi,
                                       const std::vector<SegState>& dyn) {
  const std::vector<size_t>& segs = plan_.query_segments[qi];
  const SegState& last = dyn[segs.back()];
  const uint64_t* tail = last.counts.back().data();
  uint64_t total = 0;
  if (segs.size() == 1) {
    for (size_t i = 0; i < last.size(); ++i) total += tail[i];
    return total;
  }
  // A suffix table's live total is its cell at the first live tag.
  const HookTables& fin = last.hooks[static_cast<size_t>(final_hook_[qi])];
  const uint64_t lo = dyn[segs.front()].lo();
  const uint64_t* cells = fin.cells.data();
  stats_.work_units += last.size();
  for (size_t i = 0; i < last.size(); ++i) {
    const Table& table = fin.tables[i];
    const uint64_t skip = lo > table.first ? lo - table.first : 0;
    if (skip < table.size) total += tail[i] * cells[skip];
    cells += table.size;
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
    *slot_ref = part_store_.Emplace(key, hash, segments_);
    slot = *slot_ref;
  }
  if (slot != state::kNoSlot) {
    PartState& part = part_store_.at(slot);
    // HPC-style partition-local purge: only the partition this event's
    // key owns is purged here; the rest purge lazily at trigger time via
    // the clock. (A trigger event purges its own partition here too, so
    // the later clock advance sees it already clean.)
    for (SegState& st : part.segs) PurgeSegment(&st, e.ts());
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
        part == nullptr ? 0 : QueryTotal(qi, part->segs);
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
  // arrival's updates. Each table lands in the segment the type starts,
  // ahead of the entry the update pass below creates there.
  for (const auto& [s, pos] : updates) {
    if (pos != 0) continue;
    const std::vector<Hook>& hooks = segments_[s].hooks;
    for (size_t h = 0; h < hooks.size(); ++h) {
      ComputeSnapshot(hooks[h], dyn, &dyn[s].hooks[h]);
    }
  }

  // Apply updates / create counters.
  for (const auto& [s, pos] : updates) {
    SegState& st = dyn[s];
    if (pos == 0) {
      if (!grouped_ && st.exps.empty()) {
        due_.emplace_back(e.ts() + window_ms_, s);
        std::push_heap(due_.begin(), due_.end(), DueLater);
      }
      st.exps.push_back(e.ts() + window_ms_);
      ++st.next_id;
      st.counts[0].push_back(1);
      for (size_t p = 1; p < st.counts.size(); ++p) st.counts[p].push_back(0);
      uint64_t objects = 1;
      for (const HookTables& hook : st.hooks) {
        objects += hook.tables.back().nonzero;
      }
      stats_.objects.Add(static_cast<int64_t>(objects));
      ++stats_.work_units;
    } else {
      uint64_t* count = st.counts[pos].data();
      const uint64_t* prev = st.counts[pos - 1].data();
      for (size_t i = 0; i < st.size(); ++i) count[i] += prev[i];
      stats_.work_units += st.size();
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
                   Value(static_cast<int64_t>(QueryTotal(qi, dyn_)))}});
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
                     Value(static_cast<int64_t>(QueryTotal(qi, dyn_)))}});
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
                 Value(static_cast<int64_t>(QueryTotal(qi, part.segs)))}});
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
                                             ckpt::Writer* writer) const {
  writer->WriteU64(st.next_id);
  writer->WriteU64(st.size());
  for (size_t i = 0; i < st.size(); ++i) writer->WriteI64(st.exps[i]);
  for (const FlatFifo<uint64_t>& column : st.counts) {
    for (size_t i = 0; i < st.size(); ++i) writer->WriteU64(column[i]);
  }
  for (const HookTables& hook : st.hooks) {
    const uint64_t* cells = hook.cells.data();
    for (size_t i = 0; i < st.size(); ++i) {
      const Table& table = hook.tables[i];
      writer->WriteU64(table.first);
      writer->WriteU64(table.size);
      for (uint64_t k = 0; k < table.size; ++k) writer->WriteU64(*cells++);
    }
  }
  return Status::OK();
}

Status ChopConnectEngine::RestoreSegState(SegState* st, const Segment& seg,
                                          ckpt::Reader* reader) {
  *st = SegState(seg);
  ASEQ_RETURN_NOT_OK(reader->ReadU64(&st->next_id, "segment next id"));
  // Each entry takes its expiry, its counts and a table head per hook.
  uint64_t n = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(
      &n, 8 * (1 + seg.types.size() + 2 * seg.hooks.size()),
      "segment entries"));
  if (n > st->next_id) {
    return Status::ParseError(
        "snapshot corrupt: " + std::to_string(n) +
        " segment entries but only " + std::to_string(st->next_id) +
        " ids assigned");
  }
  for (uint64_t i = 0; i < n; ++i) {
    Timestamp exp = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadI64(&exp, "entry expiry"));
    if (i > 0 && exp < st->exps[i - 1]) {
      return Status::ParseError(
          "snapshot corrupt: entry expiry " + std::to_string(exp) +
          " below its predecessor's " + std::to_string(st->exps[i - 1]));
    }
    st->exps.push_back(exp);
  }
  for (FlatFifo<uint64_t>& column : st->counts) {
    for (uint64_t i = 0; i < n; ++i) {
      uint64_t count = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&count, "entry count"));
      column.push_back(count);
    }
  }
  uint64_t objects = n;
  for (size_t h = 0; h < seg.hooks.size(); ++h) {
    HookTables& hook = st->hooks[h];
    for (uint64_t i = 0; i < n; ++i) {
      Table table{0, 0, 0};
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&table.first, "table first tag"));
      ASEQ_RETURN_NOT_OK(reader->ReadCount(&table.size, 8, "table cells"));
      const size_t at = hook.cells.size();
      for (uint64_t k = 0; k < table.size; ++k) {
        uint64_t cell = 0;
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&cell, "table cell"));
        hook.cells.push_back(cell);
      }
      table.nonzero = NonzeroCounts(hook.cells.data() + at, table.size,
                                    seg.hooks[h].suffix);
      objects += table.nonzero;
      hook.tables.push_back(table);
    }
  }
  stats_.objects.Add(static_cast<int64_t>(objects));
  return Status::OK();
}

Status ChopConnectEngine::RestoreScope(std::vector<SegState>* dyn,
                                       ckpt::Reader* reader) {
  for (size_t s = 0; s < segments_.size(); ++s) {
    ASEQ_RETURN_NOT_OK(RestoreSegState(&(*dyn)[s], segments_[s], reader));
  }
  // A hook's tags are entry ids of the query's first segment, so each lies
  // below that segment's next id.
  for (size_t s = 0; s < segments_.size(); ++s) {
    const SegState& st = (*dyn)[s];
    const std::vector<Hook>& hooks = segments_[s].hooks;
    for (size_t h = 0; h < hooks.size(); ++h) {
      const uint64_t next_id = (*dyn)[hooks[h].first_seg].next_id;
      for (size_t i = 0; i < st.size(); ++i) {
        const Table& table = st.hooks[h].tables[i];
        if (table.first > next_id || table.size > next_id - table.first) {
          return Status::ParseError(
              "snapshot corrupt: table of " + std::to_string(table.size) +
              " cell(s) from tag " + std::to_string(table.first) +
              " reaches past its first segment's next id " +
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
            ASEQ_RETURN_NOT_OK(CheckpointSegState(part.segs[s], w));
          }
          return Status::OK();
        }));
    clock_.Checkpoint(writer);
    return Status::OK();
  }
  writer->WriteU64(dyn_.size());
  for (size_t s = 0; s < segments_.size(); ++s) {
    ASEQ_RETURN_NOT_OK(CheckpointSegState(dyn_[s], writer));
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
              part_store_.RestoreEmplaceAt(slot, key, hash, segments_);
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
