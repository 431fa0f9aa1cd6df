#include <gtest/gtest.h>

#include "aseq/aseq_engine.h"
#include "baseline/naive_enumerator.h"
#include "baseline/stack_engine.h"
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
// Poll / OnEvent interleaving and timing semantics
// --------------------------------------------------------------------------

TEST(EngineEdgeTest, PollBeforeAnyEvent) {
  Schema schema;
  for (const char* text :
       {"PATTERN SEQ(A, B) WITHIN 1s", "PATTERN SEQ(A, B)",
        "PATTERN SEQ(A, B) WHERE A.id = B.id WITHIN 1s"}) {
    CompiledQuery cq = MustCompile(&schema, text);
    auto engine = CreateAseqEngine(cq);
    ASSERT_TRUE(engine.ok());
    std::vector<Output> poll = (*engine)->Poll(0);
    // Ungrouped engines report a single zero; grouped report nothing.
    for (const Output& output : poll) {
      EXPECT_EQ(CountOf(output), 0);
    }
  }
}

TEST(EngineEdgeTest, PollIsIdempotent) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events =
      StreamBuilder(&schema).Add("A", 1000).Add("B", 2000).Build();
  Feed(engine->get(), events);
  for (int i = 0; i < 3; ++i) {
    std::vector<Output> poll = (*engine)->Poll(2000);
    ASSERT_EQ(poll.size(), 1u);
    EXPECT_EQ(CountOf(poll[0]), 1);
  }
}

TEST(EngineEdgeTest, PollAdvancingTimeExpiresState) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events =
      StreamBuilder(&schema).Add("A", 0).Add("B", 500).Build();
  Feed(engine->get(), events);
  EXPECT_EQ(CountOf((*engine)->Poll(999)[0]), 1);
  EXPECT_EQ(CountOf((*engine)->Poll(1000)[0]), 0);  // start expired
}

TEST(EngineEdgeTest, SimultaneousTimestampsOrderedByArrival) {
  // Arrival order defines the sequence order when timestamps tie.
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> ab =
      StreamBuilder(&schema).Add("A", 1000).Add("B", 1000).Build();
  std::vector<Output> outputs = Feed(engine->get(), ab);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 1);  // A precedes B by arrival

  auto engine2 = CreateAseqEngine(cq);
  std::vector<Event> ba =
      StreamBuilder(&schema).Add("B", 1000).Add("A", 1000).Build();
  std::vector<Output> outputs2 = Feed(engine2->get(), ba);
  ASSERT_EQ(outputs2.size(), 1u);
  EXPECT_EQ(CountOf(outputs2[0]), 0);  // B arrived before A: no match
}

// --------------------------------------------------------------------------
// Stats accounting
// --------------------------------------------------------------------------

TEST(EngineEdgeTest, StatsCountEventsAndOutputs) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1)
                                  .Add("Z", 2)
                                  .Add("B", 3)
                                  .Add("B", 4)
                                  .Build();
  Feed(engine->get(), events);
  EXPECT_EQ((*engine)->stats().events_processed, 4u);
  EXPECT_EQ((*engine)->stats().outputs, 2u);
  EXPECT_GT((*engine)->stats().work_units, 0u);
}

TEST(EngineEdgeTest, ObjectAccountingReturnsToZeroAfterExpiry) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 100");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 0)
                                  .Add("A", 10)
                                  .Add("B", 5000)
                                  .Build();
  Feed(engine->get(), events);
  EXPECT_EQ((*engine)->stats().objects.current(), 0);
  EXPECT_EQ((*engine)->stats().objects.peak(), 2);
}

// --------------------------------------------------------------------------
// Duplicate-role and multi-role patterns
// --------------------------------------------------------------------------

TEST(EngineEdgeTest, TypeBothStartAndTrigger) {
  // (A, B, A): an A instance is TRIG (pos 3) and START (pos 1) at once.
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B, A) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1)
                                  .Add("B", 2)
                                  .Add("A", 3)
                                  .Add("B", 4)
                                  .Add("A", 5)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  // Triggers at every A. Counts: 0 (a1), 1 (a1,b1,a2), 1 + {a1 b1 a3,
  // a1 b2 a3, a2 b2 a3} = 4.
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(CountOf(outputs[0]), 0);
  EXPECT_EQ(CountOf(outputs[1]), 1);
  EXPECT_EQ(CountOf(outputs[2]), 4);

  // The stack baseline agrees.
  StackEngine stack(cq);
  std::vector<Output> stack_outputs = Feed(&stack, events);
  ASSERT_EQ(stack_outputs.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(CountOf(stack_outputs[i]), CountOf(outputs[i]));
  }
}

TEST(EngineEdgeTest, TypeBothPositiveAndNegated) {
  // (A, !B, B): a B instance completes matches with the *pre-arrival*
  // prefix counts (it is not strictly between itself and A), then
  // invalidates the (A) prefix for all later Bs.
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, !B, B) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  ASSERT_TRUE(engine.ok());
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1)
                                  .Add("B", 2)  // match (a1, b1); kills a1
                                  .Add("B", 3)  // no new match
                                  .Add("A", 4)
                                  .Add("B", 5)  // match (a2, b3)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 1);  // (a1,b2) blocked by b1 in between
  EXPECT_EQ(CountOf(outputs[2]), 2);

  // The brute-force oracle agrees at every point.
  NaiveEnumerator oracle(cq);
  EXPECT_EQ(oracle.CountMatches(events, 1, 2), 1u);
  EXPECT_EQ(oracle.CountMatches(events, 2, 3), 1u);
  EXPECT_EQ(oracle.CountMatches(events, 4, 5), 2u);
}

TEST(EngineEdgeTest, TripleDuplicateType) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, A, A) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1)
                                  .Add("A", 2)
                                  .Add("A", 3)
                                  .Add("A", 4)
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  // Triples after n events: C(n,3) = 0, 0, 1, 4.
  ASSERT_EQ(outputs.size(), 4u);
  EXPECT_EQ(CountOf(outputs[2]), 1);
  EXPECT_EQ(CountOf(outputs[3]), 4);
}

// --------------------------------------------------------------------------
// Window edge cases
// --------------------------------------------------------------------------

TEST(EngineEdgeTest, HugeWindowNeverExpires) {
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1000000s");
  auto engine = CreateAseqEngine(cq);
  StreamBuilder b(&schema);
  for (int i = 0; i < 50; ++i) b.Add("A", i * 1000);
  b.Add("B", 60 * 1000);
  std::vector<Output> outputs = Feed(engine->get(), b.Build());
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 50);
}

TEST(EngineEdgeTest, AllEventsExpireBetweenBursts) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 100");
  auto engine = CreateAseqEngine(cq);
  std::vector<Output> outputs = Feed(engine->get(), StreamBuilder(&schema)
                                                        .Add("A", 0)
                                                        .Add("B", 50)
                                                        .Add("A", 100000)
                                                        .Add("B", 100050)
                                                        .Build());
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 1);  // only the second burst's pair
}

TEST(EngineEdgeTest, EventExactlyAtWindowBoundaryForBaseline) {
  // The baseline and A-Seq must agree on the inclusive/exclusive boundary.
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 100");
  std::vector<Event> events =
      StreamBuilder(&schema).Add("A", 0).Add("B", 100).Build();
  auto aseq = CreateAseqEngine(cq);
  StackEngine stack(cq);
  std::vector<Output> a = Feed(aseq->get(), events);
  std::vector<Output> s = Feed(&stack, events);
  ASSERT_EQ(a.size(), 1u);
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(CountOf(a[0]), 0);
  EXPECT_EQ(CountOf(s[0]), 0);
}

// --------------------------------------------------------------------------
// Grouping edges
// --------------------------------------------------------------------------

TEST(EngineEdgeTest, GroupKeysOfMixedValueTypes) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) GROUP BY k AGG COUNT WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events =
      StreamBuilder(&schema)
          .Add("A", 1, {{"k", Value(1)}})
          .Add("A", 2, {{"k", Value("1")}})  // string "1" is a distinct group
          .Add("B", 3, {{"k", Value(1)}})
          .Add("B", 4, {{"k", Value("1")}})
          .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_TRUE(outputs[0].group->Equals(Value(1)));
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_TRUE(outputs[1].group->Equals(Value("1")));
  EXPECT_EQ(CountOf(outputs[1]), 1);
}

TEST(EngineEdgeTest, NumericGroupKeysCrossTypeEqual) {
  // int64 5 and double 5.0 are the same group (Value::Equals semantics).
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) GROUP BY k AGG COUNT WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1, {{"k", Value(5)}})
                                  .Add("B", 2, {{"k", Value(5.0)}})
                                  .Build();
  std::vector<Output> outputs = Feed(engine->get(), events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
}

// --------------------------------------------------------------------------
// Unbounded-window (DPC) long-run behavior
// --------------------------------------------------------------------------

TEST(EngineEdgeTest, DpcCountsAreMonotoneAndExact) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B)");
  auto engine = CreateAseqEngine(cq);
  StreamBuilder b(&schema);
  for (int i = 0; i < 200; ++i) {
    b.Add(i % 2 == 0 ? "A" : "B", i);
  }
  std::vector<Output> outputs = Feed(engine->get(), b.Build());
  ASSERT_EQ(outputs.size(), 100u);
  int64_t prev = -1;
  for (const Output& output : outputs) {
    EXPECT_GT(CountOf(output), prev);
    prev = CountOf(output);
  }
  // After k B's, count = sum_{i=1..k} i = k(k+1)/2.
  EXPECT_EQ(prev, 100 * 101 / 2);
}

TEST(EngineEdgeTest, MemoryStaysConstantUnderLongDpcRun) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B, C)");
  auto engine = CreateAseqEngine(cq);
  StreamBuilder b(&schema);
  for (int i = 0; i < 3000; ++i) b.Add(i % 3 == 0 ? "A" : (i % 3 == 1 ? "B" : "C"), i);
  Feed(engine->get(), b.Build());
  EXPECT_EQ((*engine)->stats().objects.peak(), 1);  // one PreCntr, ever
}

}  // namespace
}  // namespace aseq
