#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "metrics/metrics.h"
#include "metrics/shard_stats.h"
#include "test_util.h"

namespace aseq {
namespace {

TEST(ObjectCounterTest, TracksCurrentAndPeak) {
  ObjectCounter counter;
  EXPECT_EQ(counter.current(), 0);
  EXPECT_EQ(counter.peak(), 0);
  counter.Add(5);
  counter.Add(3);
  EXPECT_EQ(counter.current(), 8);
  EXPECT_EQ(counter.peak(), 8);
  counter.Remove(6);
  EXPECT_EQ(counter.current(), 2);
  EXPECT_EQ(counter.peak(), 8);  // peak is sticky
  counter.Add(1);
  EXPECT_EQ(counter.peak(), 8);
  counter.Add(10);
  EXPECT_EQ(counter.peak(), 13);
}

TEST(ObjectCounterTest, NegativeDeltasViaAdd) {
  // CompositeEngine feeds deltas through Add; negative deltas must not
  // disturb the peak.
  ObjectCounter counter;
  counter.Add(10);
  counter.Add(-4);
  EXPECT_EQ(counter.current(), 6);
  EXPECT_EQ(counter.peak(), 10);
}

TEST(ObjectCounterTest, SampleMovesCurrentAndPeakButNotTheWindow) {
  ObjectCounter counter;
  counter.Add(4);
  counter.BeginPeakWindow();
  counter.Sample(9);
  EXPECT_EQ(counter.current(), 9);
  EXPECT_EQ(counter.peak(), 9);
  EXPECT_EQ(counter.window_peak(), 4) << "a sample is no mid-event maximum";
  counter.Sample(2);
  EXPECT_EQ(counter.current(), 2);
  EXPECT_EQ(counter.peak(), 9);
  counter.Add(3);
  EXPECT_EQ(counter.window_peak(), 5) << "Add still moves the window";
}

TEST(ObjectCounterTest, RemoveBelowZeroAssertsInDebug) {
#ifndef NDEBUG
  ObjectCounter counter;
  counter.Add(2);
  EXPECT_DEATH(counter.Remove(3), "current_");
#else
  GTEST_SKIP() << "assert compiled out in release builds";
#endif
}

TEST(EngineStatsTest, NoteBatchCountsAndTracksMax) {
  EngineStats stats;
  EXPECT_EQ(stats.batches_processed, 0u);
  EXPECT_EQ(stats.max_batch_events, 0u);
  stats.NoteBatch(16);
  stats.NoteBatch(256);
  stats.NoteBatch(3);  // a short tail batch must not lower the max
  EXPECT_EQ(stats.batches_processed, 3u);
  EXPECT_EQ(stats.max_batch_events, 256u);
}

TEST(StatsFieldsTest, EachCounterHasOneRow) {
  // Distinct values in every counter read back distinct through the rows.
  const EngineStats stats = testing_util::DistinctStats();
  std::set<uint64_t> values;
  std::set<std::string> keys;
  for (const StatsField& f : kStatsFields) {
    values.insert(f.Get(stats));
    keys.insert(f.key);
  }
  EXPECT_EQ(values.size(), std::size(kStatsFields));
  EXPECT_EQ(keys.size(), std::size(kStatsFields));
}

TEST(StatsFieldsTest, TheContractRowsComeFirst) {
  // The first eight rows are checkpointed, the rest transient; only the
  // objects rows go through the timeline merge, which they always do.
  for (size_t i = 0; i < std::size(kStatsFields); ++i) {
    const StatsField& f = kStatsFields[i];
    EXPECT_EQ(f.ckpt != nullptr, i < 8) << f.key;
    EXPECT_EQ(f.field == nullptr, f.shard == kObjectTimeline) << f.key;
    EXPECT_EQ(f.field == nullptr, f.object != nullptr) << f.key;
    // The part sum reads `field`, and executor-owned counts are nothing a
    // composite's parts keep.
    if (f.field == nullptr || f.shard == kCoordinatorOwned) {
      EXPECT_EQ(f.part, kCompositeOwn) << f.key;
    }
  }
}

TEST(StatsFieldsTest, CoordinatorFoldSetsOnlyItsRows) {
  const EngineStats coordinator = testing_util::DistinctStats();
  EngineStats merged;
  merged.events_processed = 7;
  FoldCoordinatorStats(coordinator, &merged);
  for (const StatsField& f : kStatsFields) {
    if (f.shard == kCoordinatorOwned) {
      EXPECT_EQ(f.Get(merged), f.Get(coordinator)) << f.key;
    } else {
      EXPECT_EQ(f.Get(merged), f.field == &EngineStats::events_processed
                                   ? 7u
                                   : 0u)
          << f.key;
    }
  }
}

TEST(StatsFieldsTest, ShardMergeSumsAndMaxesOnly) {
  EngineStats big = testing_util::DistinctStats();
  big.max_batch_events = 500;
  EngineStats merged;
  MergeShardStats(testing_util::DistinctStats(), &merged);
  MergeShardStats(big, &merged);
  for (const StatsField& f : kStatsFields) {
    const uint64_t one = f.Get(testing_util::DistinctStats());
    uint64_t want = 0;  // coordinator and timeline rows are not merged
    if (f.shard == kShardSum) want = 2 * one;
    if (f.shard == kShardMax) want = 500;
    EXPECT_EQ(f.Get(merged), want) << f.key;
  }
}

// ---- StatsTimelineMerger against a serial replay. ----

/// How a generated timeline is shaped.
struct TimelineSpec {
  uint64_t seed = 1;
  size_t lanes = 3;
  size_t events = 400;
  /// Lanes that own no event and hold no object, so they never record.
  size_t silent_lanes = 0;
  /// Restore-style start: lane s holds initial[s] objects, and the peak
  /// observed so far is initial_peak (>= their sum).
  std::vector<int64_t> initial;
  int64_t initial_peak = 0;
  /// Lanes whose counter moves once per event (a composite engine): the
  /// serial counter sees their combined net change at the event's end, and
  /// their records carry no mid-event maximum.
  std::vector<bool> boundary;
};

/// One generated run: the per-lane records a sharded run would produce,
/// and the serial counter's (seq, current, peak) after each event.
struct Timeline {
  std::vector<std::vector<StatsTimelineMerger::Record>> records;
  struct Point {
    uint64_t seq;
    int64_t current;
    int64_t peak;
  };
  std::vector<Point> serial;
};

/// Per event, one owner lane adds and removes objects (so its maximum may
/// fall mid-event); at a trigger, every other lane only removes, at the
/// same seq. The serial counter sees the exact lanes' steps in order and
/// the boundary lanes' net change last.
Timeline GenerateTimeline(const TimelineSpec& spec) {
  std::mt19937_64 rng(spec.seed);
  auto uniform = [&rng](int64_t hi) {  // in [0, hi]
    return static_cast<int64_t>(rng() % static_cast<uint64_t>(hi + 1));
  };
  const size_t n = spec.lanes;
  std::vector<int64_t> current(n, 0);
  if (!spec.initial.empty()) current = spec.initial;
  std::vector<bool> boundary = spec.boundary;
  boundary.resize(n, false);
  ObjectCounter serial;
  int64_t total = 0;
  for (int64_t c : current) total += c;
  if (total > 0 || spec.initial_peak > 0) {
    serial.RestoreCounts(total, std::max(total, spec.initial_peak));
  }

  Timeline t;
  t.records.resize(n);
  const size_t owners = n - spec.silent_lanes;
  uint64_t seq = 1000;
  std::vector<int64_t> before(n), window(n);
  for (size_t k = 0; k < spec.events; ++k) {
    seq += 1 + static_cast<uint64_t>(uniform(2));  // gaps: unrecorded seqs
    before = current;
    window = current;
    int64_t boundary_net = 0;
    auto step = [&](size_t s, int64_t delta) {
      current[s] += delta;
      window[s] = std::max(window[s], current[s]);
      if (boundary[s]) {
        boundary_net += delta;
      } else if (delta >= 0) {
        serial.Add(delta);
      } else {
        serial.Remove(-delta);
      }
    };
    const size_t owner = static_cast<size_t>(rng() % owners);
    for (int64_t ops = 1 + uniform(3); ops > 0; --ops) {
      if (uniform(2) != 0) {
        step(owner, uniform(6));
      } else {
        step(owner, -uniform(current[owner]));
      }
    }
    if (uniform(3) == 0) {  // a trigger: the cross-partition purge
      for (size_t s = 0; s < n; ++s) {
        if (s != owner) step(s, -uniform(current[s]));
      }
    }
    serial.Add(boundary_net);
    for (size_t s = 0; s < n; ++s) {
      // What the lane's worker records: only state changes, and no
      // mid-event maximum for a boundary-sampled counter.
      const int64_t peak = boundary[s] ? before[s] : window[s];
      if (current[s] != before[s] || peak > before[s]) {
        t.records[s].push_back({seq, current[s], peak});
      }
    }
    t.serial.push_back({seq, serial.current(), serial.peak()});
  }
  return t;
}

/// Feeds `merger` every record below `upto` that `next` has not fed yet,
/// one seq at a time.
void FeedBelow(const Timeline& t, uint64_t upto, std::vector<size_t>* next,
               StatsTimelineMerger* merger) {
  std::vector<size_t>& at = *next;
  for (;;) {
    uint64_t seq = upto;
    for (size_t s = 0; s < t.records.size(); ++s) {
      if (at[s] < t.records[s].size()) {
        seq = std::min(seq, t.records[s][at[s]].seq);
      }
    }
    if (seq == upto) return;
    for (size_t s = 0; s < t.records.size(); ++s) {
      if (at[s] < t.records[s].size() && t.records[s][at[s]].seq == seq) {
        merger->Take(s, t.records[s][at[s]++]);
      }
    }
    merger->CloseSeq();
  }
}

/// Merges the timeline in random `upto` chunks and checks the merged
/// current and peak against the serial counter after every chunk.
void ExpectMergeMatchesSerial(const TimelineSpec& spec) {
  const Timeline t = GenerateTimeline(spec);
  std::vector<int64_t> initial = spec.initial;
  initial.resize(spec.lanes, 0);
  int64_t want_current = 0;
  for (int64_t c : initial) want_current += c;
  int64_t want_peak = std::max(want_current, spec.initial_peak);

  StatsTimelineMerger merger;
  merger.Reset(initial, spec.initial_peak);
  EXPECT_EQ(merger.merged_current(), want_current);
  EXPECT_EQ(merger.merged_peak(), want_peak);
  std::mt19937_64 rng(spec.seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<size_t> next(spec.lanes, 0);
  size_t event = 0;
  while (event < t.serial.size()) {
    event = std::min(t.serial.size(), event + 1 + rng() % 60);
    // Every event below `upto` is merged; the next one is not.
    const uint64_t upto = t.serial[event - 1].seq + 1;
    FeedBelow(t, upto, &next, &merger);
    ASSERT_EQ(merger.merged_current(), t.serial[event - 1].current)
        << "seed " << spec.seed << ", through seq " << upto - 1;
    ASSERT_EQ(merger.merged_peak(), t.serial[event - 1].peak)
        << "seed " << spec.seed << ", through seq " << upto - 1;
  }
  for (size_t s = 0; s < spec.lanes; ++s) {
    EXPECT_EQ(next[s], t.records[s].size()) << "lane " << s;
  }
}

TimelineSpec Spec(uint64_t seed, size_t lanes) {
  TimelineSpec spec;
  spec.seed = seed;
  spec.lanes = lanes;
  return spec;
}

TEST(StatsTimelineMergerTest, MatchesSerialReplayInChunks) {
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    ExpectMergeMatchesSerial(Spec(seed, 1 + seed % 4));
  }
}

TEST(StatsTimelineMergerTest, MidEventPeaksReachTheMergedPeak) {
  // The generator's owner lanes do peak mid-event: a merge that took only
  // boundary totals would miss the serial peak on some seed.
  bool mid_event_peak_mattered = false;
  for (uint64_t seed = 1; seed <= 40 && !mid_event_peak_mattered; ++seed) {
    const Timeline t = GenerateTimeline(Spec(seed, 3));
    int64_t boundary_peak = 0;
    for (const Timeline::Point& p : t.serial) {
      boundary_peak = std::max(boundary_peak, p.current);
    }
    mid_event_peak_mattered = t.serial.back().peak > boundary_peak;
  }
  EXPECT_TRUE(mid_event_peak_mattered);
}

TEST(StatsTimelineMergerTest, LaneThatNeverRecords) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TimelineSpec spec = Spec(seed, 4);
    spec.silent_lanes = 1;
    EXPECT_TRUE(GenerateTimeline(spec).records[3].empty());
    ExpectMergeMatchesSerial(spec);
  }
}

TEST(StatsTimelineMergerTest, RestoredCurrentsAndPeak) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    TimelineSpec spec = Spec(seed, 3);
    spec.initial = {7, 0, 12};
    spec.initial_peak = 40 + static_cast<int64_t>(seed);
    ExpectMergeMatchesSerial(spec);
    // A restored peak equal to the restored total, the floor Reset keeps.
    spec = Spec(seed, 2);
    spec.initial = {5, 9};
    spec.initial_peak = 14;
    ExpectMergeMatchesSerial(spec);
  }
}

TEST(StatsTimelineMergerTest, BoundarySampledLanes) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    // Every lane a composite engine, as in a sharded workload run.
    TimelineSpec spec = Spec(seed, 3);
    spec.boundary = {true, true, true};
    ExpectMergeMatchesSerial(spec);
    // One boundary-sampled lane beside exact ones, from a restored start.
    spec.boundary = {false, true, false};
    spec.initial = {3, 4, 0};
    spec.initial_peak = 9;
    ExpectMergeMatchesSerial(spec);
  }
}

TEST(StopWatchTest, MeasuresElapsedNonNegativeMonotone) {
  StopWatch watch;
  double a = watch.ElapsedSeconds();
  double b = watch.ElapsedSeconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  watch.Restart();
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

TEST(StopWatchTest, MillisMatchesSecondsScale) {
  StopWatch watch;
  // Burn a little time deterministically.
  volatile uint64_t x = 0;
  for (int i = 0; i < 100000; ++i) x = x + static_cast<uint64_t>(i);
  double seconds = watch.ElapsedSeconds();
  double millis = watch.ElapsedMillis();
  EXPECT_NEAR(millis, seconds * 1e3, seconds * 1e3 * 0.5 + 0.5);
}

}  // namespace
}  // namespace aseq
