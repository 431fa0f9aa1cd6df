#ifndef ASEQ_METRICS_SHARD_STATS_H_
#define ASEQ_METRICS_SHARD_STATS_H_

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "metrics/metrics.h"

namespace aseq {

/// \brief Folds the additive EngineStats fields of `shard` into `merged`.
///
/// Every bulk counter is charged on exactly one shard per serial event
/// (events_processed, outputs, dropped) or is purge-timing-independent
/// (work_units: counter mutations are always preceded by a purge to the
/// event's timestamp, so the live-entry counts they observe match the
/// serial engine's), so plain sums reproduce the serial values exactly.
/// The object counters are NOT summed here — live/peak object accounting
/// needs the seq-ordered timeline merge below, because the sum of
/// per-shard peaks overestimates the serial global peak (shards do not
/// peak at the same instant). The fault_*, shed_*, overload_stalls,
/// pub_batches and ring_* counters are not summed either: shard engines
/// never write them, and the sharded coordinator sets them on the merged
/// view after the merge.
inline void MergeBulkStats(const EngineStats& shard, EngineStats* merged) {
  merged->events_processed += shard.events_processed;
  merged->outputs += shard.outputs;
  merged->work_units += shard.work_units;
  merged->batches_processed += shard.batches_processed;
  if (shard.max_batch_events > merged->max_batch_events) {
    merged->max_batch_events = shard.max_batch_events;
  }
  merged->dropped_events += shard.dropped_events;
  // Flat-store diagnostics: sums over shards (each shard owns its own
  // tables). Diagnostic-only — per-shard probe lengths legitimately differ
  // from a serial run's, so these are outside the equivalence contract.
  merged->ht_probes += shard.ht_probes;
  merged->ht_probe_steps += shard.ht_probe_steps;
  merged->ht_slots += shard.ht_slots;
  merged->ht_entries += shard.ht_entries;
  // Admission counters: each serial event is admitted on exactly one owner
  // shard (the router's purge markers never reach admission), so sums
  // reproduce the serial engine's admission counts exactly.
  merged->adm_admitted += shard.adm_admitted;
  merged->adm_rejected_local += shard.adm_rejected_local;
  merged->adm_missing_attr += shard.adm_missing_attr;
  merged->adm_generic_cmps += shard.adm_generic_cmps;
}

/// \brief Reconstructs the serial engine's global live/peak object counts
/// from per-shard, per-event observations.
///
/// Each shard records, for every event (or purge marker) that changed its
/// object count, a Record with the event's global sequence number, the
/// shard's live count after the event, and the maximum the count reached
/// *during* the event (ObjectCounter::window_peak — a probe can add
/// counters and then purge others, so the peak may fall mid-event).
///
/// The merge replays records in global seq order. In the serial engine,
/// event k's object Adds all happen while every other shard's slice still
/// holds its pre-k count (cross-shard purges happen in the trigger phase,
/// after the probes' Adds, and are replicated on the other shards as
/// purge markers *at the same seq*), so
///
///   candidate_peak(k, s) = total_before_k - current[s] + window_peak(k, s)
///
/// is exactly the maximum global live count during event k's Adds on shard
/// s, and max over events/shards of these candidates (plus every
/// between-events boundary total) is exactly the serial peak.
class StatsTimelineMerger {
 public:
  struct Record {
    uint64_t seq = 0;
    /// Shard-local live object count after the event fully executed.
    int64_t current_after = 0;
    /// Maximum the shard-local count reached during the event.
    int64_t window_peak = 0;
  };

  /// Starts a merge with the shards' initial live counts (all zero for a
  /// fresh run; the restored per-shard counts after a snapshot restore)
  /// and the peak observed so far (0, or the restored merged peak).
  void Reset(std::span<const int64_t> initial_currents, int64_t initial_peak) {
    current_.assign(initial_currents.begin(), initial_currents.end());
    total_ = 0;
    for (int64_t c : current_) total_ += c;
    peak_ = initial_peak > total_ ? initial_peak : total_;
  }

  /// Consumes one batch of per-shard record runs (lanes[s] = shard s's
  /// not-yet-consumed records, seq-ascending). All records for any seq in
  /// the consumed range must be present — call only while every shard is
  /// quiescent (at a checkpoint barrier or after the run drained).
  void Consume(std::span<const std::span<const Record>> lanes) {
    assert(lanes.size() == current_.size());
    cursor_.assign(lanes.size(), 0);
    for (;;) {
      // Next global seq with pending records across all lanes.
      uint64_t seq = UINT64_MAX;
      for (size_t s = 0; s < lanes.size(); ++s) {
        if (cursor_[s] < lanes[s].size() && lanes[s][cursor_[s]].seq < seq) {
          seq = lanes[s][cursor_[s]].seq;
        }
      }
      if (seq == UINT64_MAX) break;
      // Phase 1: peak candidates — each lane's mid-event maximum against
      // the other lanes' pre-event counts.
      for (size_t s = 0; s < lanes.size(); ++s) {
        if (cursor_[s] < lanes[s].size() && lanes[s][cursor_[s]].seq == seq) {
          const int64_t candidate =
              total_ - current_[s] + lanes[s][cursor_[s]].window_peak;
          if (candidate > peak_) peak_ = candidate;
        }
      }
      // Phase 2: apply the post-event counts, then check the boundary.
      for (size_t s = 0; s < lanes.size(); ++s) {
        if (cursor_[s] < lanes[s].size() && lanes[s][cursor_[s]].seq == seq) {
          total_ += lanes[s][cursor_[s]].current_after - current_[s];
          current_[s] = lanes[s][cursor_[s]].current_after;
          ++cursor_[s];
        }
      }
      if (total_ > peak_) peak_ = total_;
    }
  }

  int64_t merged_current() const { return total_; }
  int64_t merged_peak() const { return peak_; }

 private:
  std::vector<int64_t> current_;
  std::vector<size_t> cursor_;
  int64_t total_ = 0;
  int64_t peak_ = 0;
};

}  // namespace aseq

#endif  // ASEQ_METRICS_SHARD_STATS_H_
