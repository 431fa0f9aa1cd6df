#include "aseq/aseq_engine.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <memory>
#include <utility>

#include "ckpt/ckpt.h"

namespace aseq {

// ---------------------------------------------------------------------------
// AseqEngine (DPC / SEM)
// ---------------------------------------------------------------------------

AseqEngine::AseqEngine(CompiledQuery query)
    : query_(std::move(query)),
      length_(query_.num_positive()),
      carrier_pos1_(query_.agg_positive_pos() >= 0
                        ? static_cast<size_t>(query_.agg_positive_pos()) + 1
                        : 0),
      counters_(length_, query_.agg().func, carrier_pos1_, query_.window_ms(),
                &stats_),
      program_(query_) {
  assert(!query_.partitioned());
  assert(!query_.has_join_predicates());
}

void AseqEngine::ProcessEvent(const Event& e, std::vector<Output>* out) {
  ++stats_.events_processed;
  bool trigger = false;
  plan::AdmissionRecord rec;
  for (const plan::RoleProgram& rp : program_.RolesFor(e.type())) {
    // Fused qualify + carrier load; no partition parts to extract here.
    if (!program_.AdmitRole(e, rp, &rec, &stats_)) continue;
    const Role& role = rp.role;
    if (role.negated) {
      counters_.ResetPrefix(role.position);
      continue;
    }
    if (role.position == 1) {
      counters_.OnStart(e, rec.carrier);
    } else {
      counters_.ApplyUpdate(role.position, rec.carrier);
    }
    if (role.position == length_) trigger = true;
  }
  if (trigger) {
    Output output;
    output.ts = e.ts();
    output.seq = e.seq();
    output.value = counters_.Total().Finalize(query_.agg().func);
    out->push_back(std::move(output));
    ++stats_.outputs;
  }
}

void AseqEngine::OnBatch(std::span<const Event> batch,
                         std::vector<Output>* out) {
  if (batch.empty()) return;
  const bool windowed = counters_.windowed();
  const Timestamp window_ms = counters_.window_ms();
  // Lower bound on the earliest live expiration: Purge(now) is a no-op for
  // now < next_expiry, so those calls are skipped without changing state.
  Timestamp next_expiry = counters_.next_expiry();
  for (const Event& e : batch) {
    if (e.ts() >= next_expiry) {
      counters_.Purge(e.ts());
      next_expiry = counters_.next_expiry();
    }
    ProcessEvent(e, out);
    if (windowed) {
      // Any counter ProcessEvent created expires at e.ts() + window or
      // later, so the cached bound stays a valid lower bound.
      const Timestamp bound = e.ts() + window_ms;
      if (bound < next_expiry) next_expiry = bound;
    }
  }
  stats_.NoteBatch(batch.size());
}

std::vector<Output> AseqEngine::Poll(Timestamp now) {
  counters_.Purge(now);
  Output output;
  output.ts = now;
  output.value = counters_.Total().Finalize(query_.agg().func);
  return {std::move(output)};
}

Status AseqEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  counters_.Checkpoint(writer);
  return Status::OK();
}

Status AseqEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  ASEQ_RETURN_NOT_OK(counters_.Restore(reader));
  // Stats last: the structural rebuild above must not perturb the restored
  // object accounting, and it must count exactly what the snapshot says.
  ASEQ_RETURN_NOT_OK(
      ckpt::CheckLiveObjects(stats, stats_.objects.current()));
  stats_ = stats;
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HpcEngine
// ---------------------------------------------------------------------------

HpcEngine::HpcEngine(CompiledQuery query)
    : query_(std::move(query)),
      length_(query_.num_positive()),
      carrier_pos1_(query_.agg_positive_pos() >= 0
                        ? static_cast<size_t>(query_.agg_positive_pos()) + 1
                        : 0),
      num_parts_(query_.partition_spec().parts.size()),
      full_mask_((uint64_t{1} << num_parts_) - 1),
      per_group_(query_.partition_spec().per_group_output),
      group_part_(query_.partition_spec().group_part >= 0
                      ? static_cast<size_t>(query_.partition_spec().group_part)
                      : 0),
      single_part_(num_parts_ == 1),
      store_(single_part_),
      program_(query_) {
  assert(query_.partitioned());
  assert(!query_.has_join_predicates());
  assert(num_parts_ <= container::kMaxKeyParts &&
         "CreateAseqEngine rejects wider keys");
}

void HpcEngine::ExecuteEvent(const Event& e,
                             std::span<const plan::AdmissionRecord> records,
                             std::vector<Output>* out) {
  ++stats_.events_processed;
  bool trigger = false;
  container::InternedKey trigger_key;
  uint64_t trigger_hash = 0;

  for (const plan::AdmissionRecord& rec : records) {
    const Role& role = rec.role->role;
    if (role.negated) {
      if (rec.role->fully_covered) {
        const uint32_t slot = store_.Lookup(rec.key_hash, rec.key);
        if (slot != kNoSlot) {
          Partition& part = store_.at(slot);
          MutatePartition(part, [&] {
            part.counters.Purge(e.ts());
            part.counters.ResetPrefix(role.position);
          });
        }
      } else {
        // Invalidate every partition matching on the covering parts —
        // slab slot order, like every observable sweep. An id compare is
        // exactly a Value::Equals compare (the interner is
        // Equals-consistent), and an unseen value staged as kNoId matches
        // no live partition.
        for (uint32_t s = 0; s < store_.end(); ++s) {
          if (!store_.live(s)) continue;
          Partition& part = store_.at(s);
          bool match = true;
          for (size_t p = 0; p < num_parts_ && match; ++p) {
            if ((rec.role->covered_mask >> p) & 1) {
              match = part.key.ids[p] == rec.key.ids[p];
            }
          }
          if (match) {
            MutatePartition(part, [&] {
              part.counters.Purge(e.ts());
              part.counters.ResetPrefix(role.position);
            });
          }
        }
      }
      continue;
    }
    // Positive role.
    if (role.position == 1) {
      // Single-probe upsert: the index entry is created first (with a
      // placeholder slot), then the partition is slab-allocated into it.
      auto [slot_ref, inserted] = store_.Upsert(rec.key_hash, rec.key);
      if (inserted) {
        *slot_ref = store_.Emplace(rec.key, rec.key_hash, length_,
                                   query_.agg().func, carrier_pos1_,
                                   query_.window_ms(), &stats_);
      }
      Partition& part = store_.at(*slot_ref);
      MutatePartition(part, [&] { part.counters.Purge(e.ts()); });
      MutatePartition(part, [&] { part.counters.OnStart(e, rec.carrier); });
      // A new partition goes on the expiry clock once. A live partition
      // that was emptied by a purge keeps its queued entry: that entry is
      // already due, so the next trigger revisits the partition and
      // reschedules it at its new earliest expiration.
      if (inserted) EnqueueExpiry(part);
      if (role.position == length_) {
        trigger = true;
        trigger_key = part.key;
        trigger_hash = part.hash;
      }
    } else {
      const uint32_t found = store_.Lookup(rec.key_hash, rec.key);
      if (found != kNoSlot) {
        Partition& part = store_.at(found);
        MutatePartition(part, [&] {
          part.counters.Purge(e.ts());
          part.counters.ApplyUpdate(role.position, rec.carrier);
        });
      }
      if (role.position == length_) {
        trigger = true;
        // Triggers fire even into an absent partition (the total is then
        // whatever the other live partitions hold).
        trigger_key = rec.key;
        trigger_hash = rec.key_hash;
      }
    }
  }

  if (trigger) {
    // Purge only what is due (amortized O(expired counters)), then read
    // the trigger's total.
    AdvanceExpiry(e.ts());
    Output output;
    output.ts = e.ts();
    output.seq = e.seq();
    if (per_group_) {
      output.group = store_.interner().ValueOf(trigger_key.ids[group_part_]);
    }
    AggAccum acc;
    if (!count_fast_path()) {
      acc = ScanTotal(trigger_key, trigger_hash);
    } else if (per_group_) {
      // The running totals are integer-exact, so identical to a scan.
      const uint32_t idx = DenseIdx(trigger_key.ids[group_part_]);
      acc.count = idx < group_counts_.size() ? group_counts_[idx] : 0;
    } else {
      acc.count = running_count_;
    }
    output.value = acc.Finalize(query_.agg().func);
    out->push_back(std::move(output));
    ++stats_.outputs;
  }
}

void HpcEngine::OnBatch(std::span<const Event> batch,
                        std::vector<Output>* out) {
  if (batch.empty()) return;
  admitter_.AdmitBatch(program_, batch, &store_.interner(), &stats_);
  for (size_t i = 0; i < batch.size(); ++i) {
    ExecuteEvent(batch[i], admitter_.RecordsFor(i), out);
  }
  stats_.NoteBatch(batch.size());
  UpdateHtStats();
}

void HpcEngine::UpdateHtStats() {
  // The dense slot/group arrays are not hash tables; only the interner and
  // the multi-part index probe (see PartitionStore's gauges).
  stats_.ht_probes = store_.probes();
  stats_.ht_probe_steps = store_.probe_steps();
  stats_.ht_slots = store_.table_capacity();
  stats_.ht_entries = store_.table_entries();
}

AggAccum HpcEngine::ScanTotal(const container::InternedKey& key,
                              uint64_t hash) const {
  AggAccum acc;
  if (per_group_ && single_part_) {
    const uint32_t slot = store_.Lookup(hash, key);
    if (slot != kNoSlot) {
      acc.Merge(store_.at(slot).counters.Total(), query_.agg().func);
    }
    return acc;
  }
  // Slab slot order is the engine's observable iteration order: the
  // floating-point merge order below (SUM/AVG) must survive
  // checkpoint/restore byte-identically, and the checkpointed slab
  // geometry guarantees exactly that.
  const uint32_t gid = key.ids[group_part_];
  for (uint32_t s = 0; s < store_.end(); ++s) {
    if (!store_.live(s)) continue;
    const Partition& part = store_.at(s);
    if (!per_group_ || part.key.ids[group_part_] == gid) {
      acc.Merge(part.counters.Total(), query_.agg().func);
    }
  }
  return acc;
}

void HpcEngine::SyncPurgeTo(Timestamp now, std::span<const size_t>) {
  AdvanceExpiry(now);
}

void HpcEngine::EnqueueExpiry(const Partition& part) {
  clock_.Schedule(part.counters.next_expiry(), part.hash, part.key);
}

void HpcEngine::AdvanceExpiry(Timestamp now) {
  clock_.AdvanceTo(
      now, [&](const state::WindowClock::Entry& top) -> Timestamp {
        const uint32_t slot = store_.Lookup(top.hash, top.key);
        if (slot == kNoSlot) {  // stale: already erased
          return state::WindowClock::kNever;
        }
        Partition& part = store_.at(slot);
        MutatePartition(part, [&] { part.counters.Purge(now); });
        const Timestamp next = part.counters.next_expiry();
        if (next == state::WindowClock::kNever) {
          if (part.counters.windowed() && part.counters.num_counters() == 0) {
            store_.Erase(slot);
          }
          return state::WindowClock::kNever;
        }
        // Still live (or the entry was stale-early): revisit when due.
        return next;
      });
}

std::vector<Output> HpcEngine::Poll(Timestamp now) {
  // One output per live group, in first-seen slab-slot order (one output
  // in all without GROUP BY) — a pure function of engine state, so a
  // restored engine polls byte-identically. The walk purges every
  // partition and erases the ones left empty.
  std::vector<std::pair<uint32_t, AggAccum>> groups;
  if (!per_group_) groups.emplace_back(0, AggAccum());
  container::FlatMap<uint32_t, uint32_t, container::IdHash> group_pos;
  for (uint32_t s = 0; s < store_.end(); ++s) {
    if (!store_.live(s)) continue;
    Partition& part = store_.at(s);
    MutatePartition(part, [&] { part.counters.Purge(now); });
    if (part.counters.windowed() && part.counters.num_counters() == 0) {
      store_.Erase(s);
      continue;
    }
    if (!per_group_) {
      groups[0].second.Merge(part.counters.Total(), query_.agg().func);
      continue;
    }
    const uint32_t gid = part.key.ids[group_part_];
    auto [pos, inserted] = group_pos.TryEmplaceHashed(
        container::IdHash{}(gid), gid, static_cast<uint32_t>(groups.size()));
    if (inserted) groups.emplace_back(gid, AggAccum());
    groups[*pos].second.Merge(part.counters.Total(), query_.agg().func);
  }
  std::vector<Output> outputs;
  for (const auto& [gid, acc] : groups) {
    Output output;
    output.ts = now;
    if (per_group_) output.group = store_.interner().ValueOf(gid);
    output.value = acc.Finalize(query_.agg().func);
    outputs.push_back(std::move(output));
  }
  return outputs;
}

Status HpcEngine::Checkpoint(ckpt::Writer* writer) const {
  ckpt::WriteStats(writer, stats_);
  // The store serializes the structural spine (interner values in id
  // order, slab geometry, entries in canonical key order, freelist); the
  // per-partition counter payload rides along via the callback.
  ASEQ_RETURN_NOT_OK(
      store_.Checkpoint(writer, [](const Partition& part, ckpt::Writer* w) {
        part.counters.Checkpoint(w);
        return Status::OK();
      }));
  writer->WriteU64(running_count_);
  // Nonzero group totals, ascending group id. Zero and absent are the same
  // reading (see group_counts_), so nonzero-only is the canonical payload:
  // two logically identical states serialize byte-identically no matter
  // which groups ever held a count. (DenseIdx wraps kNoId to cell 0, and
  // wraps back here — it sorts last, as the old map payload had it.)
  std::vector<std::pair<uint32_t, uint64_t>> groups;
  for (uint32_t idx = 0; idx < group_counts_.size(); ++idx) {
    if (group_counts_[idx] != 0) {
      groups.emplace_back(idx - 1u, group_counts_[idx]);
    }
  }
  std::sort(groups.begin(), groups.end());
  writer->WriteU64(groups.size());
  for (const auto& [gid, count] : groups) {
    writer->WriteU32(gid);
    writer->WriteU64(count);
  }
  // Window clock, verbatim heap order: the pop order of equal deadlines
  // depends on the heap's internal layout, and AdvanceExpiry's
  // purge-then-erase order feeds the slab freelist — observable through
  // later slot assignment.
  clock_.Checkpoint(writer);
  return Status::OK();
}

Status HpcEngine::Restore(ckpt::Reader* reader) {
  EngineStats stats;
  ASEQ_RETURN_NOT_OK(ckpt::ReadStats(reader, &stats));
  // The store validates the slab geometry and rebuilds the index; the
  // callback re-creates each partition in its checkpointed slot and reads
  // its counter payload.
  ASEQ_RETURN_NOT_OK(store_.Restore(
      reader, [&](uint32_t slot, const container::InternedKey& key,
                  uint64_t hash, ckpt::Reader* r) -> Status {
        Partition& part = store_.RestoreEmplaceAt(
            slot, key, hash, length_, query_.agg().func, carrier_pos1_,
            query_.window_ms(), &stats_);
        return part.counters.Restore(r);
      }));
  ASEQ_RETURN_NOT_OK(reader->ReadU64(&running_count_, "running count"));
  uint64_t n_groups = 0;
  ASEQ_RETURN_NOT_OK(reader->ReadCount(&n_groups, 12, "group counts"));
  group_counts_.assign(store_.interner().size() + 1, 0);
  uint32_t prev_gid = 0;
  for (uint64_t i = 0; i < n_groups; ++i) {
    uint32_t gid = 0;
    uint64_t count = 0;
    ASEQ_RETURN_NOT_OK(reader->ReadU32(&gid, "group id"));
    ASEQ_RETURN_NOT_OK(reader->ReadU64(&count, "group count"));
    if (gid >= store_.interner().size() || (i > 0 && gid <= prev_gid)) {
      return Status::ParseError(
          "snapshot corrupt: group id out of range or out of order");
    }
    prev_gid = gid;
    group_counts_[DenseIdx(gid)] = count;
  }
  ASEQ_RETURN_NOT_OK(clock_.Restore(reader, store_.interner().size()));
  // Stats last: the structural rebuild above must not perturb the restored
  // object accounting, and it must count exactly what the snapshot says;
  // the transient ht_* gauges refresh from the rebuilt tables.
  ASEQ_RETURN_NOT_OK(
      ckpt::CheckLiveObjects(stats, stats_.objects.current()));
  stats_ = stats;
  UpdateHtStats();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

Result<std::unique_ptr<QueryEngine>> CreateAseqEngine(
    const CompiledQuery& query) {
  if (query.has_join_predicates()) {
    return Status::Unsupported(
        "A-Seq supports local and equivalence predicates only; query '" +
        query.ToString() +
        "' has general join predicates (use the stack-based baseline)");
  }
  if (query.partitioned()) {
    return std::unique_ptr<QueryEngine>(new HpcEngine(query));
  }
  return std::unique_ptr<QueryEngine>(new AseqEngine(query));
}

}  // namespace aseq
