#ifndef ASEQ_METRICS_SHARD_STATS_H_
#define ASEQ_METRICS_SHARD_STATS_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "metrics/metrics.h"

namespace aseq {

/// \brief Folds one shard's stats into `merged` by each kStatsFields
/// row's shard rule: kShardSum rows add, kShardMax rows keep the larger
/// value. The coordinator-owned rows are FoldCoordinatorStats's, and the
/// objects rows StatsTimelineMerger's.
inline void MergeShardStats(const EngineStats& shard, EngineStats* merged) {
  for (const StatsField& f : kStatsFields) {
    if (f.shard == kShardSum) {
      merged->*f.field += shard.*f.field;
    } else if (f.shard == kShardMax) {
      merged->*f.field = std::max(merged->*f.field, shard.*f.field);
    }
  }
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
