#include "multi/chop_connect_engine.h"

#include <algorithm>

#include "ckpt/ckpt.h"

namespace aseq {

using chop::Hook;
using chop::HookTables;
using chop::SegState;
using chop::Segment;
using chop::Table;

Result<std::unique_ptr<ChopConnectEngine>> ChopConnectEngine::Create(
    std::vector<CompiledQuery> queries, ChopPlan plan) {
  if (!queries.empty() && plan.query_segments.size() != queries.size()) {
    return Status::InvalidArgument(
        "plan must assign segments to every workload query");
  }
  ASEQ_RETURN_NOT_OK(CheckWorkload(queries, [&](size_t qi) -> Status {
    const CompiledQuery& q = queries[qi];
    if (!HasDistinctTypes(q)) {
      return Status::Unsupported(
          "Chop-Connect requires distinct event types per pattern: " +
          q.ToString());
    }
    // The plan's segment concatenation must reproduce the pattern.
    std::vector<EventTypeId> concat;
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
    if (concat != q.positive_types()) {
      return Status::InvalidArgument(
          "plan segments do not concatenate to the pattern of " +
          q.ToString());
    }
    return Status::OK();
  }));
  std::unique_ptr<ChopConnectEngine> engine(
      new ChopConnectEngine(std::move(queries), std::move(plan)));
  engine->Build();
  return engine;
}

void ChopConnectEngine::Build() {
  segments_.resize(plan_.segments.size());
  for (size_t s = 0; s < plan_.segments.size(); ++s) {
    segments_[s].types = plan_.segments[s];
  }
  final_hook_.assign(queries_.size(), -1);
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
    AddTrigger(segments_[segs.back()].types.back(), qi);
  }
  // Update index per type (dense, EventTypeId-indexed); a segment's first
  // type creates its entries.
  for (size_t s = 0; s < segments_.size(); ++s) {
    const auto& types = segments_[s].types;
    for (size_t pos = types.size(); pos > 0; --pos) {
      update_row(types[pos - 1]).emplace_back(s, pos - 1);
    }
    if (!types.empty()) MarkCreates(types[0]);
  }
  dyn_ = NewScope();
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
  for (chop::FlatFifo<uint64_t>& column : st->counts) column.pop_front(n);
  st->exps.pop_front(n);
  stats_.objects.Remove(static_cast<int64_t>(objects));
}

Timestamp ChopConnectEngine::PurgeScope(Scope& scope, Timestamp now) {
  Timestamp next = state::WindowClock::kNever;
  for (SegState& st : scope) {
    PurgeSegment(&st, now);
    if (!st.exps.empty()) next = std::min(next, st.exps[0]);
  }
  return next;
}

Timestamp ChopConnectEngine::PurgeUngrouped(Timestamp now) {
  // The first due record of a segment purges all its due entries; the
  // segment's later due records find nothing left to pop.
  size_t n = 0;
  while (n < expiries_.size() && expiries_[n].first <= now) {
    PurgeSegment(&dyn_[expiries_[n].second], now);
    ++n;
  }
  expiries_.pop_front(n);
  return expiries_.empty() ? state::WindowClock::kNever : expiries_[0].first;
}

void ChopConnectEngine::AfterUngroupedRestore() {
  expiries_ = {};
  for (size_t s = 0; s < dyn_.size(); ++s) {
    for (size_t i = 0; i < dyn_[s].size(); ++i) {
      expiries_.push_back({dyn_[s].exps[i], s});
    }
  }
  std::sort(expiries_.data(), expiries_.data() + expiries_.size());
}

void ChopConnectEngine::ComputeSnapshot(const Hook& hook,
                                        const Scope& scope,
                                        HookTables* dst) {
  if (hook.upstream_hook >= 0) {
    MultiConnect(hook, scope, dst);
    return;
  }
  // Upstream is the query's first segment: a cell per START entry, its
  // tail count.
  const SegState& up = scope[hook.upstream_seg];
  stats_.work_units += up.size();
  AppendTable(up.counts.back().data(), up.lo(), up.size(), hook.suffix, dst);
}

void ChopConnectEngine::MultiConnect(const Hook& hook,
                                     const Scope& scope,
                                     HookTables* dst) {
  // Multi-connect (Fig. 11): combine the upstream segment's counters with
  // their count tables, summing per full-sequence START tag. Live tags are
  // the first segment's live ids [lo, lo + span), so each upstream entry
  // adds its multiplier times the live overlap of its table into acc_.
  const SegState& first = scope[hook.first_seg];
  const uint64_t lo = first.lo();
  const size_t span = first.size();
  if (acc_.size() < span) acc_.resize(span);

  // Everything the loop reads is a local: a store through `sum` may alias
  // any uint64_t or size_t, so members would be reloaded per cell.
  const SegState& up = scope[hook.upstream_seg];
  const HookTables& in = up.hooks[static_cast<size_t>(hook.upstream_hook)];
  const size_t entries = up.size();
  const Table* tables = in.tables.data();
  const uint64_t* mult = up.counts.back().data();
  const uint64_t* cells = in.cells.data();
  uint64_t* const acc = acc_.data();
  size_t used_lo = span;
  size_t used_hi = 0;
  uint64_t work = entries;
  for (size_t i = 0; i < entries; ++i) {
    const Table table = tables[i];
    const uint64_t m = mult[i];
    // Cells below lo are expired; every tag lies below lo + span.
    const uint64_t skip = lo > table.first ? lo - table.first : 0;
    if (m != 0 && skip < table.size) {
      const size_t at = table.first + skip - lo;
      const size_t n = table.size - skip;
      const uint64_t* src = cells + skip;
      uint64_t* sum = acc + at;
      for (size_t k = 0; k < n; ++k) sum[k] += src[k] * m;
      used_lo = std::min(used_lo, at);
      used_hi = std::max(used_hi, at + n);
      work += n;
    }
    cells += table.size;
  }
  stats_.work_units += work;
  if (used_lo > used_hi) used_lo = used_hi;
  AppendTable(acc + used_lo, lo + used_lo, used_hi - used_lo, hook.suffix,
              dst);
  std::fill(acc + used_lo, acc + used_hi, 0);
}

void ChopConnectEngine::AppendTable(const uint64_t* counts, uint64_t first,
                                    size_t n, bool suffix, HookTables* dst) {
  size_t begin = 0;
  while (begin < n && counts[begin] == 0) ++begin;
  while (n > begin && counts[n - 1] == 0) --n;
  const size_t size = n - begin;
  dst->cells.append(counts + begin, size);
  // One pass over the copy counts its nonzero counts and, for a suffix
  // table, turns it into suffix sums.
  uint64_t* const cells = dst->cells.data() + dst->cells.size() - size;
  uint64_t nonzero = 0;
  uint64_t cum = 0;
  for (size_t k = size; k-- > 0;) {
    nonzero += cells[k] != 0;
    if (!suffix) continue;
    cum += cells[k];
    cells[k] = cum;
  }
  dst->tables.push_back(Table{first + begin, size, nonzero});
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
                                       const Scope& scope) {
  const std::vector<size_t>& segs = plan_.query_segments[qi];
  const SegState& last = scope[segs.back()];
  const size_t entries = last.size();
  const uint64_t* tail = last.counts.back().data();
  uint64_t total = 0;
  if (segs.size() == 1) {
    for (size_t i = 0; i < entries; ++i) total += tail[i];
    return total;
  }
  // A suffix table's live total is its cell at the first live tag.
  const HookTables& fin = last.hooks[static_cast<size_t>(final_hook_[qi])];
  const uint64_t lo = scope[segs.front()].lo();
  const Table* tables = fin.tables.data();
  const uint64_t* cells = fin.cells.data();
  stats_.work_units += entries;
  for (size_t i = 0; i < entries; ++i) {
    const Table& table = tables[i];
    const uint64_t skip = lo > table.first ? lo - table.first : 0;
    if (skip < table.size) total += tail[i] * cells[skip];
    cells += table.size;
  }
  return total;
}

void ChopConnectEngine::ApplyUpdates(const Event& e,
                                     Scope& scope) {
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
      ComputeSnapshot(hooks[h], scope, &scope[s].hooks[h]);
    }
  }

  // Apply updates / create counters.
  for (const auto& [s, pos] : updates) {
    SegState& st = scope[s];
    if (pos == 0) {
      if (!grouped_) expiries_.push_back({e.ts() + window_ms_, s});
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
      const size_t entries = st.size();
      uint64_t* count = st.counts[pos].data();
      const uint64_t* prev = st.counts[pos - 1].data();
      for (size_t i = 0; i < entries; ++i) count[i] += prev[i];
      stats_.work_units += entries;
    }
  }
}

Status ChopConnectEngine::CheckpointScope(const Scope& scope,
                                          ckpt::Writer* writer) const {
  for (const SegState& st : scope) {
    writer->WriteU64(st.next_id);
    writer->WriteU64(st.size());
    for (size_t i = 0; i < st.size(); ++i) writer->WriteI64(st.exps[i]);
    for (const chop::FlatFifo<uint64_t>& column : st.counts) {
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
  for (chop::FlatFifo<uint64_t>& column : st->counts) {
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

Status ChopConnectEngine::RestoreScope(Scope* scope,
                                       ckpt::Reader* reader) {
  for (size_t s = 0; s < segments_.size(); ++s) {
    ASEQ_RETURN_NOT_OK(RestoreSegState(&(*scope)[s], segments_[s], reader));
  }
  // A hook's tags are entry ids of the query's first segment, so each lies
  // below that segment's next id.
  for (size_t s = 0; s < segments_.size(); ++s) {
    const SegState& st = (*scope)[s];
    const std::vector<Hook>& hooks = segments_[s].hooks;
    for (size_t h = 0; h < hooks.size(); ++h) {
      const uint64_t next_id = (*scope)[hooks[h].first_seg].next_id;
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

}  // namespace aseq
