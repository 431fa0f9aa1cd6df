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
/// The merge replays records in global seq order, one seq at a time: the
/// caller hands over every shard's record for a seq (Take), then closes
/// the seq (CloseSeq). In the serial engine, event k's object Adds all
/// happen while every other shard's slice still holds its pre-k count
/// (cross-shard purges happen in the trigger phase, after the probes'
/// Adds, and are replicated on the other shards as purge markers *at the
/// same seq*), so
///
///   candidate_peak(k, s) = total_before_k - current[s] + window_peak(k, s)
///
/// is exactly the maximum global live count during event k's Adds on shard
/// s, and max over events/shards of these candidates (plus every
/// between-events boundary total) is exactly the serial peak.
///
/// The rule has two phases per seq: every candidate is taken against the
/// pre-event counts, and only then do the post-event counts apply. Take
/// does both for one shard at once without breaking it: the candidate
/// reads the total before the seq (frozen until CloseSeq) and the shard's
/// own count, which no other shard's record moves.
///
/// An engine whose counter moves once per event (ObjectCounter::Sample)
/// records window_peak equal to its pre-event count, so its candidate is
/// the pre-event total and only its boundary totals can raise the peak.
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
    before_seq_ = total_;
    peak_ = initial_peak > total_ ? initial_peak : total_;
  }

  /// Takes shard `shard`'s record for the seq being merged (at most one
  /// per shard per seq; seqs ascend across CloseSeq calls).
  void Take(size_t shard, const Record& record) {
    assert(shard < current_.size());
    // Phase 1: the shard's mid-event maximum against the other shards'
    // pre-event counts.
    const int64_t candidate =
        before_seq_ - current_[shard] + record.window_peak;
    if (candidate > peak_) peak_ = candidate;
    // Phase 2: the shard's post-event count.
    total_ += record.current_after - current_[shard];
    current_[shard] = record.current_after;
  }

  /// Ends the seq: checks the boundary total.
  void CloseSeq() {
    if (total_ > peak_) peak_ = total_;
    before_seq_ = total_;
  }

  int64_t merged_current() const { return total_; }
  int64_t merged_peak() const { return peak_; }

 private:
  std::vector<int64_t> current_;
  int64_t total_ = 0;
  /// The total when the open seq began.
  int64_t before_seq_ = 0;
  int64_t peak_ = 0;
};

}  // namespace aseq

#endif  // ASEQ_METRICS_SHARD_STATS_H_
