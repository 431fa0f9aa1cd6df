#include <gtest/gtest.h>

#include "metrics/metrics.h"

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

TEST(ObjectCounterTest, ResetClearsBoth) {
  ObjectCounter counter;
  counter.Add(7);
  counter.Reset();
  EXPECT_EQ(counter.current(), 0);
  EXPECT_EQ(counter.peak(), 0);
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

TEST(EngineStatsTest, ResetClearsEverything) {
  EngineStats stats;
  stats.events_processed = 5;
  stats.outputs = 2;
  stats.work_units = 100;
  stats.objects.Add(3);
  stats.NoteBatch(4);
  stats.Reset();
  EXPECT_EQ(stats.events_processed, 0u);
  EXPECT_EQ(stats.outputs, 0u);
  EXPECT_EQ(stats.work_units, 0u);
  EXPECT_EQ(stats.objects.current(), 0);
  EXPECT_EQ(stats.objects.peak(), 0);
  EXPECT_EQ(stats.batches_processed, 0u);
  EXPECT_EQ(stats.max_batch_events, 0u);
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
