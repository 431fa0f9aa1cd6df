#include "exec/sharded_executor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <utility>

#include "ckpt/snapshot.h"
#include "fault/fault.h"
#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

namespace {

// What differs between the single-query and the workload executor,
// overloaded on the output type.

SeqNum SeqOf(const Output& o) { return o.seq; }
SeqNum SeqOf(const MultiOutput& o) { return o.output.seq; }
SeqNum SeqOf(const StatsTimelineMerger::Record& r) { return r.seq; }

/// The first element at or above `seq` of a seq-ascending vector of
/// outputs or object records.
template <class V>
auto FirstFrom(V& v, SeqNum seq) {
  return std::partition_point(v.begin(), v.end(), [seq](const auto& x) {
    return SeqOf(x) < seq;
  });
}

/// Seconds between two obs::MonotonicNanos readings.
double Seconds(uint64_t begin, uint64_t end) {
  return static_cast<double>(end - begin) * 1e-9;
}

}  // namespace

template <class Engine>
ShardedExecutorT<Engine>::ShardedExecutorT(
    const RunOptions& options, std::vector<std::unique_ptr<Engine>> engines,
    ShardRouter router, EngineFactoryT<Engine> factory,
    std::vector<uint64_t> query_hashes)
    : options_(options),
      engines_(std::move(engines)),
      factory_(std::move(factory)),
      router_(std::move(router)),
      query_hashes_(std::move(query_hashes)),
      states_(engines_.size()),
      ledgers_(engines_.size()),
      pending_(engines_.size()),
      supervisor_(engines_.size(), options_, &lanes_),
      lanes_(engines_.size(), options_,
             options_.supervise ? &supervisor_ : nullptr),
      busy_view_(engines_.size(), 0) {
  assert(engines_.size() > 1);
  options_.num_shards = engines_.size();
  for (ShardState& st : states_) st.slots.resize(ShardLanes::kDoneSlots);
}

template <class Engine>
void ShardedExecutorT<Engine>::WorkerMain(size_t shard) {
  ShardLanes::Lane& lane = lanes_.lane(shard);
  ShardState& st = states_[shard];
  Engine* engine = engines_[shard].get();
  auto* shardable = dynamic_cast<ShardableEngine*>(engine);
  ObjectCounter& objects = shardable->shard_mutable_stats()->objects;
  const bool check_faults = fault::Injector::Global().armed();
  const bool collect = CollectsOutputs();
  // Telemetry cell for this shard (null = off). The worker is the cell's
  // only writer; the per-op sites reuse timing the busy-seconds accounting
  // already pays for.
  WorkerTally& tally = lane.tally;
  obs::ShardCell* const cell = tally.cell;
  for (;;) {
    LaneItem item;
    if (!lanes_.Pop(shard, &item)) return;
    const SharedBatch& batch = *item.batch;
    ResultSlot& slot = st.slots[item.slot];
    std::vector<OutputT>& out = collect ? slot.outputs : st.scratch;
    StopWatch watch;
    // Per-item accumulators for the per-op telemetry counts: one tally
    // update per drained item instead of one per op.
    uint64_t item_events = 0;
    uint64_t item_outputs = 0;
    for (const uint32_t op : slot.ops) {
      if (check_faults && lanes_.HitWorkerFault(shard)) {
        // The item dies with the worker (a restart replays it); only its
        // batch reference is let go.
        SharedBatchPool::Release(item.batch);
        return;
      }
      objects.BeginPeakWindow();
      const int64_t before = objects.current();
      SeqNum seq;
      if ((op & kMarkerOp) == 0) {
        const Event& e = batch.event(op);
        seq = e.seq();
        if (!collect) out.clear();
        const size_t outputs_before = out.size();
        engine->OnEvent(e, &out);
        if (cell != nullptr) {
          ++item_events;
          item_outputs += out.size() - outputs_before;
        }
      } else {
        const SharedBatch::Trigger& trigger = batch.trigger(op & ~kMarkerOp);
        const Event& e = batch.event(trigger.event);
        seq = e.seq();
        shardable->SyncPurgeTo(e.ts(), batch.queries(trigger));
      }
      const int64_t after = objects.current();
      const int64_t window_peak = objects.window_peak();
      // Record only state changes: the merge needs every current
      // transition and every mid-event maximum above the entry count.
      if (after != before || window_peak > before) {
        slot.records.push_back({seq, after, window_peak});
      }
      lane.progress.fetch_add(1, std::memory_order_relaxed);
    }
    const size_t num_ops = slot.ops.size();
    SharedBatchPool::Release(item.batch);
    if (cell == nullptr) {
      st.busy_seconds += watch.ElapsedSeconds();
    } else {
      // One elapsed read serves both the busy-seconds accounting and the
      // telemetry cell; the service-time histogram amortizes its record
      // over the whole drained item.
      const uint64_t busy = watch.ElapsedNanos();
      st.busy_seconds += static_cast<double>(busy) * 1e-9;
      ++tally.items;
      tally.ops += num_ops;
      tally.events += item_events;
      tally.outputs += item_outputs;
      tally.busy_ns += busy;
      cell->op_service_ns.Record(busy / num_ops);
      if (item_outputs > 0) {
        // Trigger-to-output latency: the batch's publication to the
        // completion of the item that produced the outputs. The absolute
        // end instant is reconstructed from the busy StopWatch (same
        // steady-clock epoch), so the record costs no extra clock read.
        cell->trigger_latency_ns.Record(watch.StartNanos() + busy -
                                        item.publish_ns);
      }
      if (tally.items >= WorkerTally::kFlushItems) {
        tally.Flush(lane.ring.size());
      }
    }
    lane.CountFinished();
  }
}

template <class Engine>
PushResult ShardedExecutorT<Engine>::PushPending(size_t shard,
                                                 SharedBatch* batch,
                                                 SeqNum end_seq,
                                                 uint64_t publish_ns) {
  Collect(shard);
  LaneLedger& ledger = ledgers_[shard];
  assert(ledger.published - ledger.collected < ShardLanes::kDoneSlots);
  const auto index =
      static_cast<uint32_t>(ledger.published % ShardLanes::kDoneSlots);
  ResultSlot& slot = states_[shard].slots[index];
  // The ops move into the slot, and pending_ takes the slot's old vector
  // (its storage reused, any ops of an unpushed item dropped).
  slot.ops.swap(pending_[shard]);
  pending_[shard].clear();
  slot.end_seq = end_seq;
  SharedBatchPool::Ref(batch);
  LaneItem item{.batch = batch, .slot = index, .publish_ns = publish_ns};
  const PushResult pushed = lanes_.Push(shard, item);
  if (pushed == PushResult::kPushed) {
    ++ledger.published;
  } else {
    SharedBatchPool::Release(batch);
  }
  return pushed;
}

template <class Engine>
Status ShardedExecutorT<Engine>::FlushPending(size_t shard,
                                              SharedBatch* batch,
                                              SeqNum end_seq,
                                              uint64_t publish_ns,
                                              bool sample_occupancy) {
  std::vector<uint32_t>& pending = pending_[shard];
  if (pending.empty()) return Status::OK();
  ++coord_counts_.pub_batches;
  if (options_.supervise) supervisor_.Log(shard, batch, pending, end_seq);
  if (options_.telemetry != nullptr) {
    obs::CoordCell& cc = options_.telemetry->coord();
    cc.publications.Add(1);
    // Occupancy sampled before the push: what the publication found in
    // front of it — the dataplane's backpressure profile.
    if (sample_occupancy) {
      cc.ring_occupancy.Record(lanes_.lane(shard).ring.size());
    }
  }
  const PushResult pushed = PushPending(shard, batch, end_seq, publish_ns);
  // Stopped: the run ends stop-stalled (interrupted, no final checkpoint).
  // Failed: the restart replays everything logged since the recovery
  // point, these ops included, so pushing them now would double-feed.
  if (pushed == PushResult::kFailed) return RestartShard(shard);
  return Status::OK();
}

template <class Engine>
void ShardedExecutorT<Engine>::Collect(size_t shard) {
  LaneLedger& ledger = ledgers_[shard];
  const uint64_t finished =
      lanes_.lane(shard).finished.load(std::memory_order_acquire);
  for (; ledger.collected < finished; ++ledger.collected) {
    ResultSlot& slot =
        states_[shard].slots[ledger.collected % ShardLanes::kDoneSlots];
    // A restarted lane replays from its recovery point; whatever it
    // regenerates below merged_upto_ already went out.
    ledger.outputs.insert(
        ledger.outputs.end(),
        std::make_move_iterator(FirstFrom(slot.outputs, merged_upto_)),
        std::make_move_iterator(slot.outputs.end()));
    ledger.records.insert(ledger.records.end(),
                          FirstFrom(slot.records, merged_upto_),
                          slot.records.end());
    slot.outputs.clear();
    slot.records.clear();
    ledger.done_below = slot.end_seq;
  }
}

template <class Engine>
SeqNum ShardedExecutorT<Engine>::Watermark(SeqNum seq) const {
  SeqNum w = seq;
  for (const LaneLedger& ledger : ledgers_) {
    if (ledger.collected < ledger.published) {
      w = std::min(w, ledger.done_below);
    }
  }
  return w;
}

template <class Engine>
void ShardedExecutorT<Engine>::MergeBelow(SeqNum upto, RunResultT* result) {
  if (upto <= merged_upto_) return;
  OutputSink* sink = options_.output_sink;
  for (;;) {
    // The next seq below `upto` that some lane holds a record or outputs
    // for; everything below `upto` is collected on every lane.
    SeqNum seq = upto;
    for (const LaneLedger& l : ledgers_) {
      if (l.next_record < l.records.size()) {
        seq = std::min(seq, SeqOf(l.records[l.next_record]));
      }
      if (l.next_output < l.outputs.size()) {
        seq = std::min(seq, SeqOf(l.outputs[l.next_output]));
      }
    }
    if (seq == upto) break;
    for (size_t s = 0; s < ledgers_.size(); ++s) {
      LaneLedger& l = ledgers_[s];
      if (l.next_record < l.records.size() &&
          SeqOf(l.records[l.next_record]) == seq) {
        merger_.Take(s, l.records[l.next_record++]);
      }
    }
    merger_.CloseSeq();
    // One event's outputs all come from its owner shard, in order.
    for (LaneLedger& l : ledgers_) {
      const size_t first = l.next_output;
      while (l.next_output < l.outputs.size() &&
             SeqOf(l.outputs[l.next_output]) == seq) {
        ++l.next_output;
      }
      if (l.next_output == first) continue;
      const auto begin = l.outputs.begin() + static_cast<ptrdiff_t>(first);
      const auto end =
          l.outputs.begin() + static_cast<ptrdiff_t>(l.next_output);
      if (sink != nullptr) {
        sink->Take(std::span<const OutputT>(begin, end));
      } else {
        result->outputs.insert(result->outputs.end(),
                               std::make_move_iterator(begin),
                               std::make_move_iterator(end));
      }
      break;
    }
  }
  for (LaneLedger& l : ledgers_) {
    l.outputs.erase(l.outputs.begin(),
                    l.outputs.begin() + static_cast<ptrdiff_t>(l.next_output));
    l.records.erase(l.records.begin(),
                    l.records.begin() + static_cast<ptrdiff_t>(l.next_record));
    l.next_output = l.next_record = 0;
  }
  merged_upto_ = upto;
}

template <class Engine>
Status ShardedExecutorT<Engine>::Barrier() {
  for (size_t failed = 0;;) {
    if (lanes_.Barrier(&failed) != PushResult::kFailed) return Status::OK();
    ASEQ_RETURN_NOT_OK(RestartShard(failed));
  }
}

template <class Engine>
Status ShardedExecutorT<Engine>::Quiesce(uint64_t seq, bool recover,
                                         bool save, CheckpointCadence* ckpt,
                                         RunResultT* result) {
  const uint64_t begin =
      options_.telemetry != nullptr ? obs::MonotonicNanos() : 0;
  ASEQ_RETURN_NOT_OK(Barrier());
  // Stop-stalled: StopWorkers tears down by quarantine.
  if (lanes_.stop_stalled()) return Status::OK();
  if (options_.telemetry != nullptr) {
    const uint64_t end = obs::MonotonicNanos();
    obs::CoordCell& cc = options_.telemetry->coord();
    cc.barriers.Add(1);
    cc.barrier_ns.Record(end - begin);
    if (options_.telemetry->trace() != nullptr) {
      options_.telemetry->trace()->Span(
          "barrier", obs::TraceWriter::kCoordTid, begin, end,
          {obs::TraceWriter::NumArg("shards", engines_.size())});
    }
  }
  // Every item queued before the tokens is finished.
  for (size_t s = 0; s < engines_.size(); ++s) Collect(s);
  MergeBelow(seq, result);
  Status status = recover ? CaptureRecoveryPoints(seq) : Status::OK();
  if (status.ok() && save) ckpt->Record(seq, SaveSnapshotAt(seq), result);
  lanes_.ResumeAll();
  return status;
}

template <class Engine>
Status ShardedExecutorT<Engine>::RestartShard(size_t shard) {
  ASEQ_ASSIGN_OR_RETURN(const ShardSupervisor::RecoveryPoint* point,
                        supervisor_.BeginRestart(shard));
  // The failed worker's results since the recovery point are dropped: the
  // replay regenerates them (its queued items went with the cleared rings).
  for (ResultSlot& slot : states_[shard].slots) {
    slot.outputs.clear();
    slot.records.clear();
  }
  LaneLedger& ledger = ledgers_[shard];
  ledger.published = ledger.collected = 0;
  ledger.done_below = point->seq;
  ledger.outputs.erase(FirstFrom(ledger.outputs, point->seq),
                       ledger.outputs.end());
  ledger.records.erase(FirstFrom(ledger.records, point->seq),
                       ledger.records.end());
  // Ops routed but not yet flushed are already in the replay log; dropping
  // them here keeps the replay from double-feeding them.
  pending_[shard].clear();
  // Rebuild the engine twin from the recovery snapshot (engine Checkpoint
  // payloads carry stats, so the merged view stays exact).
  ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> fresh, factory_());
  if (dynamic_cast<ShardableEngine*>(fresh.get()) == nullptr) {
    return Status::Internal(
        "engine factory stopped producing shardable engines during a "
        "supervised restart");
  }
  ckpt::Reader reader(point->snapshot);
  ASEQ_RETURN_NOT_OK(fresh->Restore(&reader));
  ASEQ_RETURN_NOT_OK(reader.ExpectEnd());
  engines_[shard] = std::move(fresh);
  lanes_.Spawn(shard, [this, shard] { WorkerMain(shard); });
  supervisor_.Replay(shard, [&](const ShardSupervisor::LogEntry& entry) {
    pending_[shard].assign(entry.ops.begin(), entry.ops.end());
    return PushPending(
        shard, entry.batch, entry.end_seq,
        options_.telemetry != nullptr ? obs::MonotonicNanos() : 0);
  });
  return Status::OK();
}

template <class Engine>
Status ShardedExecutorT<Engine>::CaptureRecoveryPoints(SeqNum seq) {
  for (size_t s = 0; s < engines_.size(); ++s) {
    ckpt::Writer writer;
    ASEQ_RETURN_NOT_OK(engines_[s]->Checkpoint(&writer));
    supervisor_.SetRecoveryPoint(s, {writer.buffer(), seq});
  }
  return Status::OK();
}

template <class Engine>
EngineStats ShardedExecutorT<Engine>::ComputeMergedStats() const {
  EngineStats merged;
  for (const auto& e : engines_) MergeShardStats(e->stats(), &merged);
  // An unshipped event is what a shard's batch-of-one OnEvent would have
  // charged for it: one event, one batch of one.
  merged.events_processed += unshipped_;
  merged.batches_processed += unshipped_;
  if (unshipped_ > 0) {
    merged.max_batch_events = std::max<uint64_t>(merged.max_batch_events, 1);
  }
  merged.objects.RestoreCounts(merger_.merged_current(),
                               merger_.merged_peak());
  FoldCoordinatorStats(coord_counts_, &merged);
  return merged;
}

template <class Engine>
Status ShardedExecutorT<Engine>::SaveSnapshotAt(uint64_t seq) {
  const EngineStats merged_now = ComputeMergedStats();
  std::vector<const Engine*> shards;
  shards.reserve(engines_.size());
  for (const auto& e : engines_) shards.push_back(e.get());
  // The router is quiescent here (this coordinator thread is the only one
  // that touches it, and the workers are parked at the barrier), so its
  // interner table is captured consistently with shard state.
  ckpt::Writer router_state;
  router_.Checkpoint(&router_state);
  return ckpt::SaveShardedSnapshot<OutputT>(
      ckpt::SnapshotPathForOffset(options_.checkpoint_dir, seq), shards, seq,
      merged_now, router_state.buffer(), query_hashes_);
}

template <class Engine>
typename ShardedExecutorT<Engine>::RunResultT ShardedExecutorT<Engine>::Run(
    StreamSource* source) {
  const size_t n = engines_.size();
  const bool supervised = options_.supervise;
  obs::Telemetry* const tel = options_.telemetry;
  obs::TraceWriter* const trace = tel != nullptr ? tel->trace() : nullptr;
  RunResultT result;
  result.batch_size = options_.batch_size;
  result.num_shards = n;
  CoordinatorStats& coord = result.coordinator;

  // Per-run state, clear-not-shrink; no worker is spawned yet.
  lanes_.ResetForRun();
  supervisor_.ResetForRun();
  for (ShardState& st : states_) st.busy_seconds = 0;
  for (LaneLedger& ledger : ledgers_) {
    ledger.published = ledger.collected = 0;
    ledger.outputs.clear();
    ledger.records.clear();
  }
  merged_upto_ = options_.start_offset;
  coord_counts_ = EngineStats{};
  shed_keys_.clear();
  const uint64_t fired_at_start = fault::Injector::Global().fired_count();
  {
    std::vector<int64_t> currents;
    currents.reserve(n);
    for (const auto& e : engines_) {
      currents.push_back(e->stats().objects.current());
    }
    // Seed with the merged view carried across runs/restores: engines
    // keep their state, so the peak must continue from where it stood.
    merger_.Reset(currents, merged_.objects.peak());
  }

  if (supervised) {
    // The initial recovery point: a restart before the first barrier must
    // rebuild the engines' *current* state — which, after a Restore(), is
    // not the fresh-constructed one.
    Status cs = CaptureRecoveryPoints(options_.start_offset);
    if (!cs.ok()) {
      result.fault_status = std::move(cs);
      return result;
    }
  }

  StopWatch watch;
  for (size_t s = 0; s < n; ++s) {
    lanes_.Spawn(s, [this, s] { WorkerMain(s); });
  }

  SeqNum seq = options_.start_offset;
  // Occupancy-sample rotor: each batch samples ONE shard's ring depth into
  // the coordinator's occupancy histogram, rotating through the shards —
  // full coverage over n batches at 1/n of the per-publication record
  // cost (and no shard aliasing, which a modulo on the publication count
  // would produce).
  size_t occ_rotor = 0;
  CheckpointCadence ckpt(options_, options_.checkpoint_every);
  CheckpointCadence recovery(options_,
                             supervised ? options_.recovery_every : 0);
  for (;;) {
    if (options_.StopRequested()) {
      result.interrupted = true;
      break;
    }
    std::span<Event> batch = source->BorrowBatch(options_.batch_size);
    if (batch.empty()) break;
    // Stamp the whole batch, then route it in one pass: the router runs
    // the vectorized admission prefilter + one BatchAdmitter sweep over
    // the borrowed batch instead of a per-event walk.
    for (Event& e : batch) e.set_seq(seq++);
    const uint64_t batch_begin = obs::MonotonicNanos();
    const auto routes =
        router_.RouteBatch(std::span<const Event>(batch.data(), batch.size()));
    if (tel != nullptr) {
      // Batch-admission latency: the routing pass alone (vectorized
      // prefilter + compiled admission + hash routing).
      tel->coord().admit_ns.Record(obs::MonotonicNanos() - batch_begin);
      tel->coord().batches.Add(1);
      tel->coord().events.Add(batch.size());
    }
    const uint64_t unshipped = batch.size() - routes.size();
    unshipped_ += unshipped;
    coord.unshipped_events += unshipped;
    // An injected overload on an unrouted event can only drain.
    bool overload_hit = router_.unrouted_overload();
    SharedBatch* shared = nullptr;
    for (const ShardRouter::Route& route : routes) {
      const Event& e = batch[route.index];
      if (options_.overload_policy != OverloadPolicy::kBlock) {
        const bool overloaded =
            route.inject_overload ||
            lanes_.lane(route.shard).ring.size() >=
                options_.overload_high_watermark;
        if (options_.overload_policy == OverloadPolicy::kShed &&
            route.has_key) {
          // Drop whole partitions, deterministically: once a key is shed,
          // every later event of that key is discarded before routing.
          // Events of other keys never read a shed partition's state (the
          // GROUP BY key scopes all reads), so survivors stay exact.
          if (shed_keys_.count(route.key_id) != 0) {
            ++coord_counts_.shed_events;
            continue;
          }
          if (overloaded) {
            shed_keys_.insert(route.key_id);
            ++coord_counts_.shed_partitions;
            ++coord_counts_.shed_events;
            if (trace != nullptr) {
              trace->Instant("shed", obs::TraceWriter::kCoordTid,
                             obs::MonotonicNanos(),
                             {obs::TraceWriter::NumArg("key", route.key_id),
                              obs::TraceWriter::NumArg("seq", e.seq())});
            }
            continue;
          }
        } else if (overloaded) {
          overload_hit = true;
        }
      }
      // Copied once, not moved: the batch may be borrowed source storage
      // that a Reset replay will serve again, and the shared batch's slot
      // reuses its attribute capacity.
      if (shared == nullptr) shared = pool_.Acquire();
      const uint32_t index = shared->Append(e);
      pending_[route.shard].push_back(index);
      if (!route.trigger_queries.empty()) {
        // The serial trigger purges every partition (of each triggered
        // query); non-owner shards replay it as a marker at the same seq,
        // keeping their state and object counts in lockstep. Unbounded
        // queries never trigger markers: nothing of theirs expires, so the
        // router leaves them out of trigger_queries.
        const uint32_t marker =
            shared->AddTrigger(index, route.trigger_queries);
        for (size_t s = 0; s < n; ++s) {
          if (s != route.shard) pending_[s].push_back(marker);
        }
      }
    }
    // One publication per shard per batch; one shared timestamp covers all
    // of them (the trigger-latency epoch is the batch's publication, not
    // each shard's push).
    const uint64_t publish_begin = obs::MonotonicNanos();
    coord.route_s += Seconds(batch_begin, publish_begin);
    if (shared != nullptr) {
      const uint64_t publish_ns = tel != nullptr ? publish_begin : 0;
      const size_t occ_shard = occ_rotor++ % n;
      for (size_t s = 0; s < n; ++s) {
        Status fs = FlushPending(s, shared, seq, publish_ns, s == occ_shard);
        if (!fs.ok()) {
          result.fault_status = std::move(fs);
          break;
        }
      }
      // The coordinator's own reference: held across the pushes so a fast
      // worker cannot return the batch to the pool mid-publication.
      SharedBatchPool::Release(shared);
    }
    const uint64_t merge_begin = obs::MonotonicNanos();
    coord.publish_s += Seconds(publish_begin, merge_begin);
    for (size_t s = 0; s < n; ++s) Collect(s);
    MergeBelow(Watermark(seq), &result);
    const uint64_t merge_end = obs::MonotonicNanos();
    coord.merge_s += Seconds(merge_begin, merge_end);
    if (trace != nullptr) {
      // The coordinator-side batch span: routing through the merge
      // (worker-side execution shows up in the shard rows).
      trace->Span("batch", obs::TraceWriter::kCoordTid, batch_begin,
                  merge_end,
                  {obs::TraceWriter::NumArg("seq", seq - batch.size()),
                   obs::TraceWriter::NumArg("events", batch.size())});
    }
    if (!result.fault_status.ok() || lanes_.stop_stalled()) break;
    for (size_t s = 0; supervised && s < n; ++s) {
      if (!supervisor_.LaneFailed(s)) continue;
      Status rs = RestartShard(s);
      if (!rs.ok()) {
        result.fault_status = std::move(rs);
        break;
      }
    }
    if (!result.fault_status.ok()) break;
    if (overload_hit &&
        options_.overload_policy == OverloadPolicy::kDegradeSerial) {
      ++coord_counts_.overload_stalls;
      if (trace != nullptr) {
        trace->Instant("overload-degrade", obs::TraceWriter::kCoordTid,
                       obs::MonotonicNanos(),
                       {obs::TraceWriter::NumArg("seq", seq)});
      }
      // The drain: every queued item runs before the barrier token.
      Status ds = Barrier();
      if (!ds.ok()) {
        result.fault_status = std::move(ds);
        break;
      }
      if (lanes_.stop_stalled()) break;
      lanes_.ResumeAll();
    }

    const bool ckpt_due = ckpt.Due(seq);
    if (ckpt_due || recovery.Due(seq)) {
      Status qs = Quiesce(seq, supervised, ckpt_due, &ckpt, &result);
      if (!qs.ok()) {
        result.fault_status = std::move(qs);
        break;
      }
      if (lanes_.stop_stalled()) break;
      recovery.Advance(seq);
    }
  }

  // Graceful-stop drain + final snapshot, and (supervised) a final health
  // barrier so a worker that died after the last check still gets its ops
  // recovered before the stop tokens go out. A stop-stalled run skips all
  // of it: queued work could not flush, so a snapshot at the stop offset
  // would be inconsistent, and the barrier could never complete.
  const bool final_ckpt = ckpt.FinalDue(seq, result);
  if (result.fault_status.ok() && !lanes_.stop_stalled() &&
      (supervised || final_ckpt)) {
    Status qs = Quiesce(seq, /*recover=*/false, final_ckpt, &ckpt, &result);
    if (!qs.ok()) result.fault_status = std::move(qs);
  }

  lanes_.StopWorkers();
  // Work stranded by a stop-stalled push or barrier never ran.
  if (lanes_.stop_stalled()) result.interrupted = true;

  // Workers are joined: merge whatever they finished, and let go of every
  // batch reference still held (unrun items, unflushed ops, replay logs).
  const uint64_t merge_begin = obs::MonotonicNanos();
  for (size_t s = 0; s < n; ++s) {
    lanes_.ReleaseQueued(s);
    Collect(s);
    pending_[s].clear();
  }
  MergeBelow(std::numeric_limits<SeqNum>::max(), &result);
  coord.merge_s += Seconds(merge_begin, obs::MonotonicNanos());
  supervisor_.ClearLogs();
  coord_counts_.fault_injected =
      fault::Injector::Global().fired_count() - fired_at_start;
  coord_counts_.fault_restarts = supervisor_.restarts();
  coord_counts_.fault_replayed_events = supervisor_.replayed_events();
  coord_counts_.ring_full_waits = lanes_.full_waits();
  // Workers are joined, so their plain spin counters are visible.
  coord_counts_.ring_spins = lanes_.spins();
  merged_ = ComputeMergedStats();
  for (size_t s = 0; s < n; ++s) busy_view_[s] = states_[s].busy_seconds;
  result.elapsed_seconds = watch.ElapsedSeconds();
  result.events = seq - options_.start_offset;
  return result;
}

template <class Engine>
Status ShardedExecutorT<Engine>::Restore(const std::string& path,
                                         uint64_t* stream_offset) {
  std::vector<Engine*> shards;
  shards.reserve(engines_.size());
  for (auto& e : engines_) shards.push_back(e.get());
  EngineStats merged;
  std::string router_state;
  ASEQ_RETURN_NOT_OK(ckpt::RestoreShardedSnapshot<OutputT>(
      path, shards, stream_offset, &merged, &router_state,
      query_hashes_));
  ckpt::Reader router_reader(router_state);
  ASEQ_RETURN_NOT_OK(router_.Restore(&router_reader));
  ASEQ_RETURN_NOT_OK(router_reader.ExpectEnd());
  // The events no shard saw are the merged count minus the shards' own.
  uint64_t shipped = 0;
  for (const auto& e : engines_) shipped += e->stats().events_processed;
  if (merged.events_processed < shipped) {
    return Status::ParseError(
        "snapshot corrupt: merged event count below the shards' sum");
  }
  unshipped_ = merged.events_processed - shipped;
  merged_ = merged;
  options_.start_offset = *stream_offset;
  return Status::OK();
}

template class ShardedExecutorT<QueryEngine>;
template class ShardedExecutorT<MultiQueryEngine>;

}  // namespace exec
}  // namespace aseq
