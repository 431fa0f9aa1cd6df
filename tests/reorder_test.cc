#include <gtest/gtest.h>

#include <algorithm>

#include "aseq/aseq_engine.h"
#include "common/rng.h"
#include "engine/reordering_engine.h"
#include "engine/runtime.h"
#include "multi/composite_engine.h"
#include "query/analyzer.h"
#include "stream/reorder.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::MustCompile;
using testing_util::RunPerEvent;

// --------------------------------------------------------------------------
// KSlackReorderer
// --------------------------------------------------------------------------

TEST(KSlackReordererTest, ReordersWithinSlack) {
  KSlackReorderer reorderer(100);
  std::vector<Event> out;
  reorderer.Push(Event(0, 50), &out);
  reorderer.Push(Event(1, 10), &out);   // late but within slack
  EXPECT_TRUE(out.empty());             // watermark = -50: nothing releasable
  reorderer.Push(Event(2, 200), &out);  // watermark -> 100: releases 10, 50
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].ts(), 10);
  EXPECT_EQ(out[1].ts(), 50);
  reorderer.Flush(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[2].ts(), 200);
  EXPECT_EQ(reorderer.dropped(), 0u);
}

TEST(KSlackReordererTest, DropsBeyondSlack) {
  KSlackReorderer reorderer(50);
  std::vector<Event> out;
  reorderer.Push(Event(0, 1000), &out);
  reorderer.Push(Event(1, 100), &out);  // 900ms late with 50ms slack
  EXPECT_EQ(reorderer.dropped(), 1u);
  reorderer.Flush(&out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts(), 1000);
}

TEST(KSlackReordererTest, StableForEqualTimestamps) {
  KSlackReorderer reorderer(10);
  std::vector<Event> out;
  Event a(7, 100), b(8, 100);
  reorderer.Push(a, &out);
  reorderer.Push(b, &out);
  reorderer.Flush(&out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].type(), 7u);  // arrival order preserved on ties
  EXPECT_EQ(out[1].type(), 8u);
}

TEST(KSlackReordererTest, ZeroSlackPassesInOrderStreamsThrough) {
  KSlackReorderer reorderer(0);
  std::vector<Event> out;
  for (Timestamp t : {10, 20, 30}) reorderer.Push(Event(0, t), &out);
  // With slack 0 every event sits at the watermark and releases instantly.
  EXPECT_EQ(out.size(), 3u);
  reorderer.Flush(&out);
  EXPECT_EQ(out.size(), 3u);
}

TEST(KSlackReordererTest, RandomizedSortsBoundedDisorder) {
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    Rng rng(seed);
    // In-order base stream, then bounded shuffle.
    std::vector<Event> base;
    Timestamp ts = 0;
    for (int i = 0; i < 300; ++i) {
      ts += rng.NextInt(0, 20);
      Event e(static_cast<EventTypeId>(rng.NextUInt(4)), ts);
      e.set_seq(static_cast<SeqNum>(i));  // remember original order
      base.push_back(e);
    }
    std::vector<Event> shuffled = base;
    constexpr int kDisplacement = 5;
    for (size_t i = 0; i + 1 < shuffled.size(); ++i) {
      size_t j = i + rng.NextUInt(kDisplacement);
      if (j >= shuffled.size()) j = shuffled.size() - 1;
      std::swap(shuffled[i], shuffled[j]);
    }
    // Slack >= max timestamp displacement guarantees zero drops.
    Timestamp max_disp = 0;
    for (size_t i = 0; i < shuffled.size(); ++i) {
      Timestamp seen_max = 0;
      for (size_t j = 0; j <= i; ++j) {
        seen_max = std::max(seen_max, shuffled[j].ts());
      }
      max_disp = std::max(max_disp, seen_max - shuffled[i].ts());
    }
    KSlackReorderer reorderer(max_disp);
    std::vector<Event> out;
    for (const Event& e : shuffled) reorderer.Push(e, &out);
    reorderer.Flush(&out);
    EXPECT_EQ(reorderer.dropped(), 0u);
    ASSERT_EQ(out.size(), base.size());
    // Released stream must be in non-decreasing timestamp order and be a
    // permutation-free reconstruction w.r.t. timestamps.
    for (size_t i = 1; i < out.size(); ++i) {
      EXPECT_LE(out[i - 1].ts(), out[i].ts());
    }
  }
}

// --------------------------------------------------------------------------
// ReorderingEngine: disorderly stream == in-order results
// --------------------------------------------------------------------------

TEST(ReorderingEngineTest, MatchesInOrderExecution) {
  for (uint64_t seed : {11u, 12u, 13u}) {
    Schema schema;
    CompiledQuery cq =
        MustCompile(&schema, "PATTERN SEQ(A, B, C) WITHIN 500");
    Rng rng(seed);
    const char* kTypes[] = {"A", "B", "C", "D"};
    // Strictly increasing timestamps: reordering by timestamp then has a
    // unique answer (ties are unrecoverable by any reorderer).
    std::vector<Event> base;
    Timestamp ts = 0;
    for (int i = 0; i < 400; ++i) {
      ts += rng.NextInt(1, 30);
      base.emplace_back(schema.RegisterEventType(kTypes[rng.NextUInt(4)]),
                        ts);
    }
    // Reference: in-order execution over the timestamp-sorted stream.
    std::vector<Event> sorted = base;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Event& a, const Event& b) {
                       return a.ts() < b.ts();
                     });
    AssignSeqNums(&sorted);
    auto ref_engine = CreateAseqEngine(cq);
    RunResult ref = RunPerEvent(sorted, ref_engine->get());

    // Disordered: disjoint swaps two positions apart, so each event is
    // displaced at most 2 slots (<= 60ms with 30ms max gaps).
    std::vector<Event> shuffled = base;
    for (size_t i = 0; i + 3 < shuffled.size(); i += 3) {
      if (rng.NextBool(0.5)) std::swap(shuffled[i], shuffled[i + 2]);
    }
    auto inner = CreateAseqEngine(cq);
    ReorderingEngine engine(std::move(*inner), /*slack_ms=*/200);
    std::vector<Output> outputs;
    SeqNum seq = 0;
    for (Event e : shuffled) {
      e.set_seq(seq++);
      engine.OnEvent(e, &outputs);
    }
    engine.Finish(&outputs);
    EXPECT_EQ(engine.dropped_events(), 0u);

    ASSERT_EQ(outputs.size(), ref.outputs.size())
        << "seed=" << seed;
    for (size_t i = 0; i < outputs.size(); ++i) {
      EXPECT_EQ(outputs[i].ts, ref.outputs[i].ts) << "seed=" << seed;
      EXPECT_TRUE(outputs[i].value.Equals(ref.outputs[i].value))
          << "seed=" << seed << " output#" << i << ": "
          << outputs[i].value.ToString() << " vs "
          << ref.outputs[i].value.ToString();
    }
  }
}

TEST(ReorderingMultiEngineTest, MatchesInOrderExecution) {
  Schema schema;
  std::vector<CompiledQuery> queries;
  queries.push_back(MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 400"));
  queries.push_back(MustCompile(&schema, "PATTERN SEQ(A, C) WITHIN 400"));

  Rng rng(5);
  const char* kTypes[] = {"A", "B", "C"};
  std::vector<Event> base;
  Timestamp ts = 0;
  for (int i = 0; i < 300; ++i) {
    ts += rng.NextInt(1, 25);
    base.emplace_back(schema.RegisterEventType(kTypes[rng.NextUInt(3)]), ts);
  }
  // Reference: in-order execution.
  std::vector<Event> sorted = base;
  AssignSeqNums(&sorted);
  auto ref = CompositeEngine::CreateNonShare(queries);
  MultiRunResult ref_run = RunPerEvent(sorted, ref->get());

  // Disordered input through the multi-engine K-slack wrapper.
  std::vector<Event> shuffled = base;
  for (size_t i = 0; i + 3 < shuffled.size(); i += 3) {
    std::swap(shuffled[i], shuffled[i + 2]);
  }
  auto inner = CompositeEngine::CreateNonShare(queries);
  ReorderingEngineT<MultiQueryEngine> engine(std::move(*inner),
                                             /*slack_ms=*/100);
  EXPECT_EQ(engine.name(), "NonShare(A-Seq)+KSlack");
  std::vector<MultiOutput> outputs;
  SeqNum seq = 0;
  for (Event e : shuffled) {
    e.set_seq(seq++);
    engine.OnEvent(e, &outputs);
  }
  engine.Finish(&outputs);
  EXPECT_EQ(engine.dropped_events(), 0u);
  EXPECT_EQ(engine.buffered_events(), 0u);

  ASSERT_EQ(outputs.size(), ref_run.outputs.size());
  for (size_t i = 0; i < outputs.size(); ++i) {
    EXPECT_EQ(outputs[i].query_index, ref_run.outputs[i].query_index);
    EXPECT_TRUE(outputs[i].output.value.Equals(
        ref_run.outputs[i].output.value))
        << "output#" << i;
  }
}

TEST(ReorderingMultiEngineTest, PollForwardsToInnerEngine) {
  // A polled K-slack workload reports the inner engine's values as of the
  // released stream time, exactly like the single-query wrapper.
  Schema schema;
  std::vector<CompiledQuery> queries;
  queries.push_back(MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 400"));
  queries.push_back(MustCompile(&schema, "PATTERN SEQ(A, C) WITHIN 400"));
  const EventTypeId types[] = {schema.RegisterEventType("A"),
                               schema.RegisterEventType("B"),
                               schema.RegisterEventType("C")};
  std::vector<Event> events;
  for (int i = 0; i < 30; ++i) events.emplace_back(types[i % 3], 10 * i);
  AssignSeqNums(&events);
  auto ref = CompositeEngine::CreateNonShare(queries);
  RunPerEvent(events, ref->get());

  auto inner = CompositeEngine::CreateNonShare(queries);
  ReorderingEngineT<MultiQueryEngine> engine(std::move(*inner),
                                             /*slack_ms=*/50);
  std::vector<MultiOutput> outputs;
  engine.OnBatch(events, &outputs);
  engine.Finish(&outputs);
  const Timestamp now = events.back().ts();
  std::vector<MultiOutput> want = (*ref)->Poll(now);
  std::vector<MultiOutput> got = engine.Poll(now);
  ASSERT_EQ(want.size(), 2u);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].query_index, want[i].query_index);
    EXPECT_TRUE(got[i].output.value.Equals(want[i].output.value))
        << "poll#" << i;
  }
}

// --------------------------------------------------------------------------
// Slack-bound boundary cases
// --------------------------------------------------------------------------

TEST(KSlackReordererTest, EventExactlyAtSlackBoundIsAccepted) {
  KSlackReorderer reorderer(100);
  std::vector<Event> out;
  reorderer.Push(Event(0, 200), &out);  // watermark 200, release bound 100
  // ts == watermark - slack is the oldest still-orderable event: accepted
  // (and immediately releasable), not dropped.
  reorderer.Push(Event(1, 100), &out);
  EXPECT_EQ(reorderer.dropped(), 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts(), 100);
  // One millisecond older is beyond the bound: dropped.
  reorderer.Push(Event(2, 99), &out);
  EXPECT_EQ(reorderer.dropped(), 1u);
  EXPECT_EQ(out.size(), 1u);
}

TEST(KSlackReordererTest, DuplicateTimestampsExactlyAtSlackBound) {
  KSlackReorderer reorderer(50);
  std::vector<Event> out;
  reorderer.Push(Event(1, 150), &out);  // release bound 100
  // Several duplicates squarely on the bound: all accepted, all released
  // in arrival order (none may be misclassified as late).
  reorderer.Push(Event(2, 100), &out);
  reorderer.Push(Event(3, 100), &out);
  reorderer.Push(Event(4, 100), &out);
  EXPECT_EQ(reorderer.dropped(), 0u);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].type(), 2u);
  EXPECT_EQ(out[1].type(), 3u);
  EXPECT_EQ(out[2].type(), 4u);
  reorderer.Flush(&out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[3].ts(), 150);
}

TEST(KSlackReordererTest, DuplicateWatermarkTimestampsDoNotAdvanceBound) {
  KSlackReorderer reorderer(30);
  std::vector<Event> out;
  reorderer.Push(Event(1, 100), &out);
  reorderer.Push(Event(2, 100), &out);  // duplicate watermark: bound stays 70
  reorderer.Push(Event(3, 70), &out);   // still exactly at the bound
  EXPECT_EQ(reorderer.dropped(), 0u);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].ts(), 70);
}

// --------------------------------------------------------------------------
// Drop accounting and end-of-stream drain (robustness satellites)
// --------------------------------------------------------------------------

TEST(ReorderingEngineTest, DroppedEventsFoldIntoEngineStats) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s");
  auto inner = CreateAseqEngine(cq);
  ReorderingEngine engine(std::move(*inner), /*slack_ms=*/50);
  std::vector<Output> outputs;
  EventTypeId a = schema.RegisterEventType("A");
  Event first(a, 1000);
  first.set_seq(0);
  engine.OnEvent(first, &outputs);
  Event late(a, 100);  // 900ms late against a 50ms slack
  late.set_seq(1);
  engine.OnEvent(late, &outputs);
  EXPECT_EQ(engine.dropped_events(), 1u);
  // The drop is never silently swallowed: stats() folds it into
  // EngineStats::dropped_events even though the inner engine never saw
  // the event.
  EXPECT_EQ(engine.stats().dropped_events, 1u);
  engine.Finish(&outputs);
  EXPECT_EQ(engine.stats().events_processed, 1u);
  EXPECT_EQ(engine.stats().dropped_events, 1u);
}

TEST(ReorderingEngineTest, FinishDrainsThroughOnBatch) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s");
  auto inner = CreateAseqEngine(cq);
  ReorderingEngine engine(std::move(*inner), /*slack_ms=*/100);
  std::vector<Output> outputs;
  EventTypeId a = schema.RegisterEventType("A");
  Event e(a, 10);
  e.set_seq(0);
  engine.OnEvent(e, &outputs);
  EXPECT_EQ(engine.buffered_events(), 1u);
  engine.Finish(&outputs);
  EXPECT_EQ(engine.buffered_events(), 0u);
  // The drain goes through the inner engine's batched path — the same code
  // as steady-state processing — so the batch counter must have moved.
  EXPECT_EQ(engine.inner()->stats().batches_processed, 1u);
  EXPECT_EQ(engine.stats().events_processed, 1u);
}

TEST(ReorderingEngineTest, NameAndStatsForwarded) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s");
  auto inner = CreateAseqEngine(cq);
  ReorderingEngine engine(std::move(*inner), 100);
  EXPECT_EQ(engine.name(), "A-Seq(SEM)+KSlack");
  std::vector<Output> outputs;
  engine.OnEvent(Event(schema.RegisterEventType("A"), 10), &outputs);
  EXPECT_EQ(engine.buffered_events(), 1u);
  engine.Finish(&outputs);
  EXPECT_EQ(engine.buffered_events(), 0u);
  EXPECT_EQ(engine.stats().events_processed, 1u);
}

}  // namespace
}  // namespace aseq
