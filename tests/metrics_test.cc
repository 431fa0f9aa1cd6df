#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

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
