#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "aseq/aseq_engine.h"
#include "engine/runtime.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::CountOf;
using testing_util::MustCompile;
using testing_util::RunPerEvent;
using testing_util::StreamBuilder;

std::vector<Output> Feed(QueryEngine* engine, const std::vector<Event>& events) {
  return RunPerEvent(events, engine).outputs;
}

// --------------------------------------------------------------------------
// DPC (unbounded window)
// --------------------------------------------------------------------------

TEST(DpcEngineTest, CountsEveryTrigger) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B, C)");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->name(), "A-Seq(DPC)");
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1)
                                  .Add("B", 2)
                                  .Add("C", 3)
                                  .Add("C", 4)
                                  .Add("B", 5)
                                  .Add("C", 6)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  // Triggers at each C: counts 1, 2, then 2 (prev) + (A,B)=2 -> 4.
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 2);
  EXPECT_EQ(CountOf(outputs[2]), 4);
}

TEST(DpcEngineTest, IgnoresForeignTypes) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B)");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("X", 1)
                                  .Add("A", 2)
                                  .Add("Y", 3)
                                  .Add("B", 4)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ((*engine)->stats().events_processed, 4u);
}

TEST(DpcEngineTest, EmptyStreamNoOutputs) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B)");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(Feed(engine->get(), {}).empty());
  std::vector<Output> poll = (*engine)->Poll(100);
  ASSERT_EQ(poll.size(), 1u);
  EXPECT_EQ(CountOf(poll[0]), 0);
}

// --------------------------------------------------------------------------
// SEM (sliding window) — the paper's Example 3 / Fig. 6
// --------------------------------------------------------------------------

TEST(SemEngineTest, PaperExample3) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B, C, D) WITHIN 7s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->name(), "A-Seq(SEM)");
  StreamBuilder b(&schema);
  b.Add("A", 1000)   // a1, expires at 8000
      .Add("B", 2000)   // b1
      .Add("C", 3000)   // c1
      .Add("A", 4000)   // a2
      .Add("C", 5000)   // c2
      .Add("B", 6000)   // b2
      .Add("D", 7000);  // d1 -> output 2 = 2 (a1) + 0 (a2)
  std::vector<Event> events = b.Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 2);
  EXPECT_EQ(outputs[0].ts, 7000);

  // c3 arrives at t=8s: a1's PreCntr expires exactly then.
  Event c3(*schema.FindEventType("C"), 8000);
  c3.set_seq(events.size());
  std::vector<Output> none;
  engine->get()->OnEvent(c3, &none);
  EXPECT_TRUE(none.empty());
  // "If users require a result at this moment, the output would be 0."
  std::vector<Output> poll = (*engine)->Poll(8000);
  ASSERT_EQ(poll.size(), 1u);
  EXPECT_EQ(CountOf(poll[0]), 0);

  // a3, then d2: only (a2, b2, c3, d2) survives -> 1.
  Event a3(*schema.FindEventType("A"), 9000);
  a3.set_seq(events.size() + 1);
  Event d2(*schema.FindEventType("D"), 10000);
  d2.set_seq(events.size() + 2);
  std::vector<Output> out2;
  engine->get()->OnEvent(a3, &out2);
  engine->get()->OnEvent(d2, &out2);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(CountOf(out2[0]), 1);
}

TEST(SemEngineTest, ExpiryIsExactlyAtArrivalPlusWindow) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 100");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  // B exactly at expiry -> the (A) counter is already purged.
  std::vector<Event> events =
      StreamBuilder(&schema).Add("A", 0).Add("B", 100).Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 0);
  // One ms earlier it still counts.
  auto engine2 = CreateAseqEngine(cq);
  std::vector<Event> events2 =
      StreamBuilder(&schema).Add("A", 0).Add("B", 99).Build();
  std::vector<Output> outputs2 = Feed(engine2->get(), events2);
  ASSERT_EQ(outputs2.size(), 1u);
  EXPECT_EQ(CountOf(outputs2[0]), 1);
}

TEST(SemEngineTest, NegationExample4) {
  // Fig. 7: (A, B, !C, D); <a1,b1,d1> is not counted since c1 sits between
  // b1 and d1.
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B, !C, D) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)
                                  .Add("A", 1500)
                                  .Add("B", 2000)
                                  .Add("C", 3000)
                                  .Add("B", 4000)
                                  .Add("D", 5000)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  // Valid: (a1, b2, d1), (a2, b2, d1); killed: both via b1.
  EXPECT_EQ(CountOf(outputs[0]), 2);
}

TEST(SemEngineTest, NegationAdjacentToStart) {
  // (A, !B, C): a B kills the start itself (explicit length-1 cell).
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, !B, C) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)  // a1
                                  .Add("B", 2000)  // kills a1
                                  .Add("A", 3000)  // a2
                                  .Add("C", 4000)  // only (a2, c1)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
}

TEST(SemEngineTest, LocalPredicateFiltersNegatedInstances) {
  // Only high-volume QQQ events invalidate.
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema,
      "PATTERN SEQ(DELL, !QQQ, AMAT) WHERE QQQ.volume > 100 WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events =
      StreamBuilder(&schema)
          .Add("DELL", 1000)
          .Add("QQQ", 2000, {{"volume", Value(50)}})   // ignored
          .Add("AMAT", 3000)                           // match
          .Add("QQQ", 4000, {{"volume", Value(500)}})  // invalidates
          .Add("AMAT", 5000)                           // no new match
          .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 1);  // old match still live, no new one
}

TEST(SemEngineTest, SumAggregate) {
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG SUM(B.w) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)
                                  .Add("A", 2000)
                                  .Add("B", 3000, {{"w", Value(10.0)}})
                                  .Add("B", 4000, {{"w", Value(1.0)}})
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(outputs[0].value.AsDouble(), 20.0);  // 2 starts x 10
  EXPECT_DOUBLE_EQ(outputs[1].value.AsDouble(), 22.0);  // + 2 x 1
}

TEST(SemEngineTest, SumDropsExpiredStarts) {
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG SUM(A.w) WITHIN 1s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 0, {{"w", Value(100.0)}})
                                  .Add("A", 800, {{"w", Value(7.0)}})
                                  .Add("B", 1200)  // a1 expired at 1000
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(outputs[0].value.AsDouble(), 7.0);
}

TEST(SemEngineTest, MinMaxAggregates) {
  Schema schema;
  CompiledQuery max_q =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG MAX(A.w) WITHIN 10s");
  auto max_engine = CreateAseqEngine(max_q);
  ASSERT_TRUE(max_engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000, {{"w", Value(5.0)}})
                                  .Add("A", 2000, {{"w", Value(9.0)}})
                                  .Add("B", 3000)
                                  .Build();
  std::vector<Output> outputs = Feed(max_engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(outputs[0].value.AsDouble(), 9.0);

  CompiledQuery min_q =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG MIN(A.w) WITHIN 10s");
  auto min_engine = CreateAseqEngine(min_q);
  std::vector<Output> outputs2 = Feed(min_engine->get(), events);
  ASSERT_EQ(outputs2.size(), 1u);
  EXPECT_DOUBLE_EQ(outputs2[0].value.AsDouble(), 5.0);
}

TEST(SemEngineTest, MaxUndefinedWhenNoMatch) {
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG MAX(A.w) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events =
      StreamBuilder(&schema).Add("B", 1000).Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].value.is_null());
}

TEST(SemEngineTest, NonNumericCarrierInstancesIgnored) {
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG SUM(A.w) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000, {{"w", Value("oops")}})
                                  .Add("A", 2000, {{"w", Value(2.0)}})
                                  .Add("B", 3000)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(outputs[0].value.AsDouble(), 2.0);
}

TEST(SemEngineTest, DuplicateTypePattern) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, A) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)
                                  .Add("A", 2000)
                                  .Add("A", 3000)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  // Every A triggers; pairs: 0, 1, 3.
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(CountOf(outputs[0]), 0);
  EXPECT_EQ(CountOf(outputs[1]), 1);
  EXPECT_EQ(CountOf(outputs[2]), 3);
}

TEST(SemEngineTest, SingleTypePattern) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A) WITHIN 1s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 0)
                                  .Add("A", 500)
                                  .Add("A", 1200)  // first A expired
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 2);
  EXPECT_EQ(CountOf(outputs[2]), 2);
}

// --------------------------------------------------------------------------
// HPC (equivalence predicates & GROUP BY)
// --------------------------------------------------------------------------

TEST(HpcEngineTest, EquivalencePartitioning) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) WHERE A.id = B.id WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->name(), "A-Seq(HPC)");
  std::vector<Event> events =
      StreamBuilder(&schema)
          .Add("A", 1000, {{"id", Value(1)}})
          .Add("A", 2000, {{"id", Value(2)}})
          .Add("B", 3000, {{"id", Value(1)}})   // matches a(id=1) only
          .Add("B", 4000, {{"id", Value(3)}})   // matches nothing
          .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 1);  // total across partitions unchanged
}

TEST(HpcEngineTest, GroupByEmitsPerGroup) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) GROUP BY ip AGG COUNT WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events =
      StreamBuilder(&schema)
          .Add("A", 1000, {{"ip", Value("x")}})
          .Add("A", 2000, {{"ip", Value("y")}})
          .Add("B", 3000, {{"ip", Value("x")}})
          .Add("B", 4000, {{"ip", Value("y")}})
          .Add("B", 5000, {{"ip", Value("y")}})
          .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 3u);
  ASSERT_TRUE(outputs[0].group.has_value());
  EXPECT_TRUE(outputs[0].group->Equals(Value("x")));
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_TRUE(outputs[1].group->Equals(Value("y")));
  EXPECT_EQ(CountOf(outputs[1]), 1);
  EXPECT_TRUE(outputs[2].group->Equals(Value("y")));
  EXPECT_EQ(CountOf(outputs[2]), 2);
}

TEST(HpcEngineTest, EventsMissingPartitionAttrIgnored) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) WHERE A.id = B.id WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)  // no id: ignored
                                  .Add("A", 1500, {{"id", Value(4)}})
                                  .Add("B", 2000, {{"id", Value(4)}})
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
}

TEST(HpcEngineTest, NegationWithinPartition) {
  // X with the matching id invalidates only that partition.
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema,
      "PATTERN SEQ(A, !X, B) WHERE A.id = X.id = B.id WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<Event> events =
      StreamBuilder(&schema)
          .Add("A", 1000, {{"id", Value(1)}})
          .Add("A", 1500, {{"id", Value(2)}})
          .Add("X", 2000, {{"id", Value(1)}})  // kills partition 1 only
          .Add("B", 3000, {{"id", Value(1)}})
          .Add("B", 4000, {{"id", Value(2)}})
          .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 0);  // id=1 invalidated
  EXPECT_EQ(CountOf(outputs[1]), 1);  // id=2 unaffected
}

TEST(HpcEngineTest, UnconstrainedNegationBroadcasts) {
  // X is not in the equivalence class: any X invalidates every partition.
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, !X, B) WHERE A.id = B.id WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  std::vector<Event> events =
      StreamBuilder(&schema)
          .Add("A", 1000, {{"id", Value(1)}})
          .Add("A", 1500, {{"id", Value(2)}})
          .Add("X", 2000)
          .Add("B", 3000, {{"id", Value(1)}})
          .Add("B", 4000, {{"id", Value(2)}})
          .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 0);
  EXPECT_EQ(CountOf(outputs[1]), 0);
}

TEST(HpcEngineTest, PartitionsExpireAndAreDropped) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) WHERE A.id = B.id WITHIN 1s");
  auto engine = CreateAseqEngine(cq);
  HpcEngine* hpc = static_cast<HpcEngine*>(engine->get());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 0, {{"id", Value(1)}})
                                  .Add("A", 100, {{"id", Value(2)}})
                                  .Add("B", 2000, {{"id", Value(1)}})
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 0);
  EXPECT_EQ(hpc->num_partitions(), 0u);  // all expired partitions dropped
}

TEST(HpcEngineTest, ExpiryClockStaysBoundedWithoutTriggers) {
  // The trigger type C never occurs, so the clock is never drained. Each
  // key's partition empties (its START expired) before the key's next
  // START refills it; the refill must not queue a second entry.
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B, C) GROUP BY k AGG COUNT WITHIN 1s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  HpcEngine* hpc = static_cast<HpcEngine*>(engine->get());
  StreamBuilder builder(&schema);
  for (int i = 0; i < 400; ++i) {
    builder.Add(i % 3 == 2 ? "B" : "A", 300 * i, {{"k", Value(i % 4)}});
  }
  std::vector<Output> outputs;
  for (const Event& e : builder.Build()) {
    hpc->OnEvent(e, &outputs);
    ASSERT_LE(hpc->clock_size(), hpc->num_partitions()) << "at t=" << e.ts();
  }
  EXPECT_TRUE(outputs.empty());
  EXPECT_EQ(hpc->num_partitions(), 4u);
}

// Every aggregate expires through the window clock: a windowed SUM, AVG,
// MIN or MAX engine queues each live partition on it, and a trigger past
// the window erases exactly the partitions the same COUNT query erases.
TEST(HpcEngineTest, EveryAggregateExpiresLikeCount) {
  for (const std::string shape : {"GROUP BY k", "WHERE A.k = B.k"}) {
    for (const std::string agg : {"SUM(B.w)", "AVG(B.w)", "MIN(B.w)",
                                  "MAX(B.w)"}) {
      const std::string context = shape + " / " + agg;
      auto text = [&](const std::string& a) {
        return "PATTERN SEQ(A, B) " + shape + " AGG " + a + " WITHIN 1s";
      };
      Schema schema;
      auto engine = CreateAseqEngine(MustCompile(&schema, text(agg)));
      auto count = CreateAseqEngine(MustCompile(&schema, text("COUNT")));
      ASSERT_TRUE(engine.ok() && count.ok()) << context;
      HpcEngine* hpc = static_cast<HpcEngine*>(engine->get());
      HpcEngine* hpc_count = static_cast<HpcEngine*>(count->get());
      StreamBuilder builder(&schema);
      for (int i = 0; i < 300; ++i) {
        builder.Add(i % 3 == 2 ? "B" : "A", 100 * i,
                    {{"k", Value(i % 7)}, {"w", Value(static_cast<double>(i % 11))}});
      }
      // Past every window: the trigger's expiry erases every partition.
      builder.Add("B", 100 * 300 + 5000, {{"k", Value(0)}, {"w", Value(1.0)}});
      std::vector<Output> outputs;
      std::vector<Output> count_outputs;
      size_t peak = 0;
      for (const Event& e : builder.Build()) {
        hpc->OnEvent(e, &outputs);
        hpc_count->OnEvent(e, &count_outputs);
        ASSERT_GE(hpc->clock_size(), hpc->num_partitions())
            << context << " at t=" << e.ts();
        ASSERT_EQ(hpc->num_partitions(), hpc_count->num_partitions())
            << context << " at t=" << e.ts();
        peak = std::max(peak, hpc->num_partitions());
      }
      EXPECT_GT(peak, 1u) << context;  // the checks above saw live state
      EXPECT_EQ(outputs.size(), count_outputs.size()) << context;
      EXPECT_EQ(hpc->num_partitions(), 0u) << context;
    }
  }
}

TEST(HpcEngineTest, PollReportsGroups) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) GROUP BY ip AGG COUNT WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000, {{"ip", Value("x")}})
                                  .Add("B", 2000, {{"ip", Value("x")}})
                                  .Build();
  Feed(engine->get(), events);
  std::vector<Output> poll = (*engine)->Poll(3000);
  ASSERT_EQ(poll.size(), 1u);
  EXPECT_TRUE(poll[0].group->Equals(Value("x")));
  EXPECT_EQ(CountOf(poll[0]), 1);
}

TEST(AseqFactoryTest, RejectsJoinPredicates) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) WHERE A.x < B.x WITHIN 1s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kUnsupported);
}

}  // namespace
}  // namespace aseq
