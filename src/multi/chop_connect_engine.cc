#include "multi/chop_connect_engine.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <map>

#include "ckpt/ckpt.h"

namespace aseq {

namespace {

/// Empty dispatch row for types beyond the dense trigger index's range.
const std::vector<size_t> kNoTriggers;

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

void ChopConnectEngine::PurgeSegment(SegState* st, Timestamp now) {
  while (!st->entries.empty() && st->entries.front().exp <= now) {
    int64_t rows = 0;
    for (const SnapshotTable& table : st->entries.front().snapshots) {
      rows += static_cast<int64_t>(table.size());
    }
    stats_.objects.Remove(1 + rows);
    st->entries.pop_front();
  }
}

void ChopConnectEngine::Purge(Timestamp now) {
  Timestamp min_exp = std::numeric_limits<Timestamp>::max();
  for (SegState& st : dyn_) {
    PurgeSegment(&st, now);
    if (!st.entries.empty()) {
      min_exp = std::min(min_exp, st.entries.front().exp);
    }
  }
  next_expiry_ = min_exp;
}

Timestamp ChopConnectEngine::PartNextExpiry(const PartState& part) const {
  Timestamp min_exp = state::WindowClock::kNever;
  for (const SegState& st : part.segs) {
    if (!st.entries.empty()) {
      min_exp = std::min(min_exp, st.entries.front().exp);
    }
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

ChopConnectEngine::SnapshotTable ChopConnectEngine::ComputeSnapshot(
    const Hook& hook, std::vector<SegState>& dyn, Timestamp now) {
  SnapshotTable table;
  SegState& up = dyn[hook.upstream_seg];
  if (hook.upstream_hook < 0) {
    // Upstream is the query's first segment: tags are its START entries
    // (already in arrival == expiration order).
    table.rows.reserve(up.entries.size());
    stats_.work_units += up.entries.size();
    for (const SegEntry& entry : up.entries) {
      uint64_t c = entry.counts.back();
      if (c > 0) {
        table.rows.push_back(SnapRow{entry.id, entry.exp, c, 0});
      }
    }
    table.BuildSuffix();
    return table;
  }
  // Multi-connect (Fig. 11): combine the upstream segment's counters with
  // their snapshots, summing per full-sequence START tag. Tags increase in
  // arrival order, so the std::map keeps rows in expiration order.
  std::map<uint64_t, SnapRow> acc;
  for (const SegEntry& entry : up.entries) {
    uint64_t mult = entry.counts.back();
    ++stats_.work_units;
    if (mult == 0) continue;
    const SnapshotTable& upstream =
        entry.snapshots[static_cast<size_t>(hook.upstream_hook)];
    for (const SnapRow& row : upstream.rows) {
      ++stats_.work_units;
      if (row.exp <= now || row.count == 0) continue;
      SnapRow& out = acc[row.tag];
      out.tag = row.tag;
      out.exp = row.exp;
      out.count += row.count * mult;
      out.cum = 0;
    }
  }
  table.rows.reserve(acc.size());
  for (const auto& [tag, row] : acc) table.rows.push_back(row);
  table.BuildSuffix();
  return table;
}

uint64_t ChopConnectEngine::QueryTotal(size_t qi, std::vector<SegState>& dyn,
                                       Timestamp now) {
  const std::vector<size_t>& segs = plan_.query_segments[qi];
  SegState& last = dyn[segs.back()];
  uint64_t total = 0;
  if (segs.size() == 1) {
    for (const SegEntry& entry : last.entries) {
      total += entry.counts.back();
    }
    return total;
  }
  const size_t hook = static_cast<size_t>(final_hook_[qi]);
  for (SegEntry& entry : last.entries) {
    ++stats_.work_units;
    uint64_t tail = entry.counts.back();
    if (tail == 0) continue;
    total += tail * entry.snapshots[hook].LiveSum(now);
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
        part == nullptr ? 0 : QueryTotal(qi, part->segs, e.ts());
    out->push_back(MultiOutput{
        qi, Output{e.ts(), e.seq(), part_store_.interner().ValueOf(gid),
                   Value(static_cast<int64_t>(total))}});
    ++stats_.outputs;
  }
}

void ChopConnectEngine::ApplyUpdates(const Event& e,
                                     std::vector<SegState>& dyn) {
  // CNET pre-pass (Lemma 7): snapshots use counts from *before* this
  // arrival's updates.
  struct PendingSnapshot {
    size_t seg;
    size_t hook;
    SnapshotTable table;
  };
  std::vector<PendingSnapshot> pending;
  for (size_t s = 0; s < segments_.size(); ++s) {
    Segment& seg = segments_[s];
    if (seg.types[0] != e.type() || seg.hooks.empty()) continue;
    for (size_t h = 0; h < seg.hooks.size(); ++h) {
      pending.push_back(
          PendingSnapshot{s, h, ComputeSnapshot(seg.hooks[h], dyn, e.ts())});
    }
  }

  // Apply updates / create counters.
  if (e.type() < update_index_.size()) {
    for (const auto& [s, pos] : update_index_[e.type()]) {
      SegState& st = dyn[s];
      if (pos == 0) {
        SegEntry entry;
        entry.id = st.next_id++;
        entry.exp = e.ts() + window_ms_;
        entry.counts.assign(segments_[s].types.size(), 0);
        entry.counts[0] = 1;
        entry.snapshots.resize(segments_[s].hooks.size());
        int64_t rows = 0;
        for (PendingSnapshot& p : pending) {
          if (p.seg == s) {
            rows += static_cast<int64_t>(p.table.size());
            entry.snapshots[p.hook] = std::move(p.table);
          }
        }
        st.entries.push_back(std::move(entry));
        stats_.objects.Add(1 + rows);
        ++stats_.work_units;
      } else {
        for (SegEntry& entry : st.entries) {
          entry.counts[pos] += entry.counts[pos - 1];
        }
        stats_.work_units += st.entries.size();
      }
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
                                             ckpt::Writer* writer) const {
  writer->WriteU64(st.next_id);
  writer->WriteU64(st.entries.size());
  for (const SegEntry& entry : st.entries) {
    writer->WriteU64(entry.id);
    writer->WriteI64(entry.exp);
    for (uint64_t count : entry.counts) writer->WriteU64(count);
    for (const SnapshotTable& table : entry.snapshots) {
      writer->WriteU64(table.cursor);
      writer->WriteU64(table.rows.size());
      for (const SnapRow& row : table.rows) {
        writer->WriteU64(row.tag);
        writer->WriteI64(row.exp);
        writer->WriteU64(row.count);
        writer->WriteU64(row.cum);
      }
    }
  }
  return Status::OK();
}

Status ChopConnectEngine::RestoreSegState(SegState* st, const Segment& seg,
                                          ckpt::Reader* reader) {
  st->entries.clear();
  ASEQ_RETURN_NOT_OK(reader->ReadU64(&st->next_id, "segment next id"));
  uint64_t n_entries = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_entries, 16, "segment entries"));
  for (uint64_t i = 0; i < n_entries; ++i) {
    SegEntry entry;
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&entry.id, "entry id"));
    ASEQ_RETURN_NOT_OK(reader->ReadI64(&entry.exp, "entry expiry"));
    entry.counts.resize(seg.types.size());
    for (uint64_t& count : entry.counts) {
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&count, "entry count"));
    }
    entry.snapshots.resize(seg.hooks.size());
    int64_t rows = 0;
    for (SnapshotTable& table : entry.snapshots) {
      uint64_t cursor = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadU64(&cursor, "snapshot cursor"));
      uint64_t n_rows = 0;
      ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_rows, 32, "snapshot rows"));
      if (cursor > n_rows) {
        return Status::ParseError(
            "snapshot corrupt: snapshot cursor " + std::to_string(cursor) +
            " beyond its " + std::to_string(n_rows) + " row(s)");
      }
      table.cursor = cursor;
      table.rows.resize(n_rows);
      for (SnapRow& row : table.rows) {
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&row.tag, "row tag"));
        ASEQ_RETURN_NOT_OK(reader->ReadI64(&row.exp, "row expiry"));
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&row.count, "row count"));
        ASEQ_RETURN_NOT_OK(reader->ReadU64(&row.cum, "row cum"));
      }
      rows += static_cast<int64_t>(table.size());
    }
    st->entries.push_back(std::move(entry));
    stats_.objects.Add(1 + rows);
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
          for (const SegState& st : part.segs) {
            ASEQ_RETURN_NOT_OK(CheckpointSegState(st, w));
          }
          return Status::OK();
        }));
    clock_.Checkpoint(writer);
    return Status::OK();
  }
  writer->WriteU64(dyn_.size());
  for (const SegState& st : dyn_) {
    ASEQ_RETURN_NOT_OK(CheckpointSegState(st, writer));
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
          for (size_t s = 0; s < segments_.size(); ++s) {
            ASEQ_RETURN_NOT_OK(RestoreSegState(&part.segs[s], segments_[s], r));
          }
          return Status::OK();
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
  for (size_t s = 0; s < segments_.size(); ++s) {
    ASEQ_RETURN_NOT_OK(RestoreSegState(&dyn_[s], segments_[s], reader));
  }
  ASEQ_RETURN_NOT_OK(ckpt::CheckLiveObjects(stats, stats_.objects.current()));
  stats_ = stats;
  return Status::OK();
}

}  // namespace aseq
