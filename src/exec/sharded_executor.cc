#include "exec/sharded_executor.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <type_traits>
#include <utility>

#include "ckpt/snapshot.h"
#include "fault/fault.h"
#include "obs/trace_writer.h"

namespace aseq {
namespace exec {

namespace {

// What differs between the single-query and the workload executor,
// overloaded on the engine and output types.

SeqNum OutputSeq(const Output& o) { return o.seq; }
SeqNum OutputSeq(const MultiOutput& o) { return o.output.seq; }

ShardableEngine* AsShardable(QueryEngine* engine) {
  return dynamic_cast<ShardableEngine*>(engine);
}
MultiShardableEngine* AsShardable(MultiQueryEngine* engine) {
  return dynamic_cast<MultiShardableEngine*>(engine);
}

/// Applies a purge marker. A single query's marker purges the whole engine;
/// a workload's purges the queries its trigger completed.
void SyncPurge(ShardableEngine* shardable, const ShardOp& op) {
  shardable->SyncPurgeTo(op.event.ts());
}
void SyncPurge(MultiShardableEngine* shardable, const ShardOp& op) {
  shardable->SyncPurgeTo(op.event.ts(), op.trigger_queries);
}

/// Single-query engines count objects at add/remove granularity, so their
/// mid-event peaks are real serial observations. Wrapper engines (NonShare,
/// Hybrid) sample the combined sub-engine total once per event, so their
/// window_peak is not — merge boundary totals only.
bool BoundaryObjects(const ShardableEngine* /*shardable*/) { return false; }
bool BoundaryObjects(const MultiShardableEngine* shardable) {
  return shardable->objects_sampled_at_boundaries();
}

}  // namespace

template <class Engine>
ShardedExecutorT<Engine>::ShardedExecutorT(
    const RunOptions& options, std::vector<std::unique_ptr<Engine>> engines,
    ShardRouter router, EngineFactoryT<Engine> factory)
    : options_(options),
      engines_(std::move(engines)),
      factory_(std::move(factory)),
      router_(std::move(router)),
      states_(engines_.size()),
      pending_(engines_.size()),
      supervisor_(engines_.size(), options_, &lanes_),
      lanes_(engines_.size(), options_,
             options_.supervise ? &supervisor_ : nullptr),
      busy_view_(engines_.size(), 0) {
  assert(engines_.size() > 1);
  options_.num_shards = engines_.size();
}

template <class Engine>
void ShardedExecutorT<Engine>::WorkerMain(size_t shard) {
  ShardLanes::Lane& lane = lanes_.lane(shard);
  ShardState& st = states_[shard];
  Engine* engine = engines_[shard].get();
  auto* shardable = AsShardable(engine);
  EngineStats* stats = shardable->shard_mutable_stats();
  const bool boundary_objects = BoundaryObjects(shardable);
  const bool check_faults = fault::Injector::Global().armed();
  // Telemetry cell for this shard (null = off). The worker is the cell's
  // only writer; the per-op sites reuse timing the busy-seconds accounting
  // already pays for.
  WorkerTally& tally = lane.tally;
  obs::ShardCell* const cell = tally.cell;
  for (;;) {
    LaneItem item;
    if (!lanes_.Pop(shard, &item)) return;
    StopWatch watch;
    // Per-item accumulators for the per-op telemetry counts: one tally
    // update per drained item instead of one per op.
    uint64_t item_events = 0;
    uint64_t item_outputs = 0;
    for (const ShardOp& op : item.live_ops()) {
      if (check_faults && lanes_.HitWorkerFault(shard)) return;
      ObjectCounter& objects = stats->objects;
      objects.BeginPeakWindow();
      const int64_t before = objects.current();
      if (op.kind == ShardOp::Kind::kEvent) {
        st.scratch.clear();
        engine->OnEvent(op.event, &st.scratch);
        if (cell != nullptr) {
          ++item_events;
          item_outputs += st.scratch.size();
        }
        if (CollectsOutputs() && !st.scratch.empty()) {
          st.outputs.insert(st.outputs.end(), st.scratch.begin(),
                            st.scratch.end());
        }
      } else {
        SyncPurge(shardable, op);
      }
      const int64_t after = objects.current();
      int64_t window_peak = objects.window_peak();
      // Boundary-sampled engines take one Add per event, so window_peak
      // (= max(before, after)) is not a point the serial engine observed;
      // clamping it to min(before, after) silences the merger's mid-event
      // candidate and leaves the exact boundary totals.
      if (boundary_objects) window_peak = std::min(before, after);
      // Record only state changes: the merge needs every current
      // transition and every mid-event maximum above the entry count.
      if (after != before || window_peak > before) {
        st.records.push_back({op.event.seq(), after, window_peak});
      }
      lane.progress.fetch_add(1, std::memory_order_relaxed);
    }
    if (cell == nullptr) {
      st.busy_seconds += watch.ElapsedSeconds();
    } else {
      // One elapsed read serves both the busy-seconds accounting and the
      // telemetry cell; the service-time histogram amortizes its record
      // over the whole drained item.
      const uint64_t busy = watch.ElapsedNanos();
      st.busy_seconds += static_cast<double>(busy) * 1e-9;
      ++tally.items;
      tally.ops += item.live;
      tally.events += item_events;
      tally.outputs += item_outputs;
      tally.busy_ns += busy;
      cell->op_service_ns.Record(busy / item.live);
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
    // Recycle the drained ops to the router uncleared, so the coordinator
    // overwrites them in place (best-effort: a full free ring just lets
    // the capacity go).
    lane.free_ring.TryPush(item.ops);
  }
}

template <class Engine>
Status ShardedExecutorT<Engine>::FlushPending(size_t shard,
                                              uint64_t publish_ns,
                                              bool sample_occupancy) {
  LaneItem& pending = pending_[shard];
  if (pending.live == 0) return Status::OK();
  ++counters_.pub_batches;
  LaneItem item{LaneItem::Tag::kOps, std::move(pending.ops), pending.live};
  pending.live = 0;
  if (options_.telemetry != nullptr) {
    obs::CoordCell& cc = options_.telemetry->coord();
    cc.publications.Add(1);
    // Occupancy sampled before the push: what the publication found in
    // front of it — the dataplane's backpressure profile.
    if (sample_occupancy) {
      cc.ring_occupancy.Record(lanes_.lane(shard).ring.size());
    }
    item.publish_ns = publish_ns;
  }
  const PushResult pushed = lanes_.Push(shard, item);
  if (pushed == PushResult::kFailed) ASEQ_RETURN_NOT_OK(RestartShard(shard));
  if (pushed != PushResult::kPushed) {
    // Drop the ops and keep their storage. Stopped: the run ends
    // stop-stalled (interrupted, no final checkpoint). Failed: the restart
    // replays everything routed since the recovery point, these ops
    // included, so pushing them now would double-feed.
    pending.ops = std::move(item.ops);
    return Status::OK();
  }
  // Re-arm pending_ with a worker-recycled vector when one is available.
  lanes_.lane(shard).free_ring.TryPop(&pending.ops);
  return Status::OK();
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
                                         RunResultBase* result) {
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
  DrainMerger();
  Status status = recover ? CaptureRecoveryPoints() : Status::OK();
  if (status.ok() && save) ckpt->Record(seq, SaveSnapshotAt(seq), result);
  lanes_.ResumeAll();
  return status;
}

template <class Engine>
Status ShardedExecutorT<Engine>::RestartShard(size_t shard) {
  ASEQ_ASSIGN_OR_RETURN(const ShardSupervisor::RecoveryPoint* point,
                        supervisor_.BeginRestart(shard));
  ShardState& st = states_[shard];
  st.outputs.resize(point->outputs);
  st.records.resize(point->records);
  st.records_consumed = point->records;
  // Ops routed but not yet flushed are already in the replay log; dropping
  // them here keeps the replay from double-feeding them.
  pending_[shard].live = 0;
  // Rebuild the engine twin from the recovery snapshot (engine Checkpoint
  // payloads carry stats, so the merged view stays exact).
  ASEQ_ASSIGN_OR_RETURN(std::unique_ptr<Engine> fresh, factory_());
  if (AsShardable(fresh.get()) == nullptr) {
    return Status::Internal(
        "engine factory stopped producing shardable engines during a "
        "supervised restart");
  }
  ckpt::Reader reader(point->snapshot);
  ASEQ_RETURN_NOT_OK(fresh->Restore(&reader));
  ASEQ_RETURN_NOT_OK(reader.ExpectEnd());
  engines_[shard] = std::move(fresh);
  lanes_.Spawn(shard, [this, shard] { WorkerMain(shard); });
  supervisor_.Replay(shard);
  return Status::OK();
}

template <class Engine>
Status ShardedExecutorT<Engine>::CaptureRecoveryPoints() {
  for (size_t s = 0; s < engines_.size(); ++s) {
    ckpt::Writer writer;
    ASEQ_RETURN_NOT_OK(engines_[s]->Checkpoint(&writer));
    supervisor_.SetRecoveryPoint(
        s, {writer.buffer(), states_[s].outputs.size(),
            states_[s].records.size()});
  }
  return Status::OK();
}

template <class Engine>
void ShardedExecutorT<Engine>::DrainMerger() {
  std::vector<std::span<const StatsTimelineMerger::Record>> spans;
  spans.reserve(states_.size());
  for (ShardState& st : states_) {
    spans.push_back(std::span<const StatsTimelineMerger::Record>(
        st.records.data() + st.records_consumed,
        st.records.size() - st.records_consumed));
    st.records_consumed = st.records.size();
  }
  merger_.Consume(spans);
}

template <class Engine>
EngineStats ShardedExecutorT<Engine>::ComputeMergedStats() const {
  EngineStats merged;
  for (const auto& e : engines_) MergeBulkStats(e->stats(), &merged);
  merged.objects.RestoreCounts(merger_.merged_current(),
                               merger_.merged_peak());
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
  return ckpt::SaveShardedSnapshot(
      ckpt::SnapshotPathForOffset(options_.checkpoint_dir, seq), shards, seq,
      merged_now, router_state.buffer());
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

  // Per-run state, clear-not-shrink; no worker is spawned yet.
  lanes_.ResetForRun();
  supervisor_.ResetForRun();
  for (ShardState& st : states_) {
    st.outputs.clear();
    st.records.clear();
    st.records_consumed = 0;
    st.busy_seconds = 0;
  }
  counters_ = Counters{};
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
    Status cs = CaptureRecoveryPoints();
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
    const uint64_t batch_begin = tel != nullptr ? obs::MonotonicNanos() : 0;
    const auto routes =
        router_.RouteBatch(std::span<const Event>(batch.data(), batch.size()));
    if (tel != nullptr) {
      // Batch-admission latency: the routing pass alone (vectorized
      // prefilter + compiled admission + hash routing).
      tel->coord().admit_ns.Record(obs::MonotonicNanos() - batch_begin);
      tel->coord().batches.Add(1);
      tel->coord().events.Add(batch.size());
    }
    bool overload_hit = false;
    for (size_t bi = 0; bi < batch.size(); ++bi) {
      const Event& e = batch[bi];
      const auto& route = routes[bi];
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
            ++counters_.shed_events;
            continue;
          }
          if (overloaded) {
            shed_keys_.insert(route.key_id);
            ++counters_.shed_partitions;
            ++counters_.shed_events;
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
      // Copied into a recycled op, not moved: the batch may be borrowed
      // source storage that a Reset replay will serve again, and the op's
      // event reuses its attribute capacity. An event of a type no query
      // names ships slim.
      ShardOp& op = pending_[route.shard].Append();
      op.AssignEvent(e, route.relevant);
      if (supervised) supervisor_.replay_log(route.shard).Append() = op;
      if (!route.trigger_queries.empty()) {
        // The serial trigger purges every partition (of each triggered
        // query); non-owner shards replay it as a marker at the same seq,
        // keeping their state and object counts in lockstep. Unbounded
        // queries never trigger markers: nothing of theirs expires, so the
        // router leaves them out of trigger_queries.
        // A single query's marker carries no payload.
        const std::span<const size_t> payload =
            std::is_same_v<Engine, MultiQueryEngine>
                ? std::span<const size_t>(route.trigger_queries)
                : std::span<const size_t>();
        for (size_t s = 0; s < n; ++s) {
          if (s == route.shard) continue;
          ShardOp& marker = pending_[s].Append();
          marker.AssignMarker(e, payload);
          if (supervised) supervisor_.replay_log(s).Append() = marker;
        }
      }
    }
    // One chunked publication per shard per batch; one shared timestamp
    // covers all of them (the trigger-latency epoch is the batch's
    // publication, not each shard's push).
    const uint64_t publish_ns = tel != nullptr ? obs::MonotonicNanos() : 0;
    const size_t occ_shard = occ_rotor++ % n;
    for (size_t s = 0; s < n; ++s) {
      Status fs = FlushPending(s, publish_ns, s == occ_shard);
      if (!fs.ok()) {
        result.fault_status = std::move(fs);
        break;
      }
    }
    if (trace != nullptr) {
      // The coordinator-side batch span: routing through publication
      // (worker-side execution shows up in the shard rows).
      trace->Span("batch", obs::TraceWriter::kCoordTid, batch_begin,
                  obs::MonotonicNanos(),
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
      ++counters_.overload_stalls;
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

  DrainMerger();
  merged_ = ComputeMergedStats();
  merged_.fault_injected =
      fault::Injector::Global().fired_count() - fired_at_start;
  merged_.fault_restarts = supervisor_.restarts();
  merged_.fault_replayed_events = supervisor_.replayed_events();
  merged_.shed_partitions = counters_.shed_partitions;
  merged_.shed_events = counters_.shed_events;
  merged_.overload_stalls = counters_.overload_stalls;
  merged_.pub_batches = counters_.pub_batches;
  merged_.ring_full_waits = lanes_.full_waits();
  // Workers are joined, so their plain spin counters are visible.
  merged_.ring_spins = lanes_.spins();
  for (size_t s = 0; s < n; ++s) busy_view_[s] = states_[s].busy_seconds;

  if (CollectsOutputs()) {
    OutputSink* sink = options_.output_sink;
    if (sink == nullptr) {
      size_t total = 0;
      for (const ShardState& st : states_) total += st.outputs.size();
      result.outputs.reserve(total);
    }
    std::vector<size_t> cursor(n, 0);
    for (;;) {
      size_t best = n;
      SeqNum best_seq = std::numeric_limits<SeqNum>::max();
      for (size_t s = 0; s < n; ++s) {
        const auto& outs = states_[s].outputs;
        if (cursor[s] < outs.size() &&
            OutputSeq(outs[cursor[s]]) < best_seq) {
          best_seq = OutputSeq(outs[cursor[s]]);
          best = s;
        }
      }
      if (best == n) break;
      // One event's outputs all come from its owner shard, in order.
      auto& outs = states_[best].outputs;
      const size_t first = cursor[best];
      while (cursor[best] < outs.size() &&
             OutputSeq(outs[cursor[best]]) == best_seq) {
        ++cursor[best];
      }
      const auto begin = outs.begin() + static_cast<ptrdiff_t>(first);
      const auto end = outs.begin() + static_cast<ptrdiff_t>(cursor[best]);
      if (sink != nullptr) {
        sink->Take(std::span<const OutputT>(begin, end));
      } else {
        result.outputs.insert(result.outputs.end(),
                              std::make_move_iterator(begin),
                              std::make_move_iterator(end));
      }
    }
  }
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
  ASEQ_RETURN_NOT_OK(ckpt::RestoreShardedSnapshot(path, shards, stream_offset,
                                                  &merged, &router_state));
  ckpt::Reader router_reader(router_state);
  ASEQ_RETURN_NOT_OK(router_.Restore(&router_reader));
  ASEQ_RETURN_NOT_OK(router_reader.ExpectEnd());
  merged_ = merged;
  options_.start_offset = *stream_offset;
  return Status::OK();
}

template class ShardedExecutorT<QueryEngine>;
template class ShardedExecutorT<MultiQueryEngine>;

}  // namespace exec
}  // namespace aseq
