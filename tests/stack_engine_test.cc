#include <gtest/gtest.h>

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

// Sec. 2.2 / Example 1: matches form at TRIG arrivals and the count drops
// to zero once the window purges the shared start.
TEST(StackEngineTest, PaperExample1) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B, C) WITHIN 5s");
  StackEngine engine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)  // a1, expires at 6000
                                  .Add("B", 2000)  // b2
                                  .Add("C", 3000)  // c3 -> count 1
                                  .Add("C", 4000)  // c4 -> count 2
                                  .Build();
  std::vector<Output> outputs = Feed(&engine, events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 2);
  EXPECT_EQ(engine.num_live_matches(), 2u);

  // "When b6 arrives, a1 is purged out of the window. No valid sequence
  // survives. Thus the count is updated to zero."
  Event b6(*schema.FindEventType("B"), 6000);
  b6.set_seq(events.size());
  std::vector<Output> none;
  engine.OnEvent(b6, &none);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(engine.num_live_matches(), 0u);
  std::vector<Output> poll = engine.Poll(6000);
  ASSERT_EQ(poll.size(), 1u);
  EXPECT_EQ(CountOf(poll[0]), 0);
}

TEST(StackEngineTest, NegationPostFilter) {
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B, !C, D) WITHIN 10s");
  StackEngine engine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)
                                  .Add("A", 1500)
                                  .Add("B", 2000)
                                  .Add("C", 3000)
                                  .Add("B", 4000)
                                  .Add("D", 5000)
                                  .Build();
  std::vector<Output> outputs = Feed(&engine, events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 2);  // same scenario as the A-Seq test
}

TEST(StackEngineTest, JoinPredicates) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) WHERE A.w < B.w WITHIN 10s");
  StackEngine engine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000, {{"w", Value(5)}})
                                  .Add("A", 1500, {{"w", Value(9)}})
                                  .Add("B", 2000, {{"w", Value(7)}})
                                  .Build();
  std::vector<Output> outputs = Feed(&engine, events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_EQ(CountOf(outputs[0]), 1);  // only the (w=5, w=7) pair
}

TEST(StackEngineTest, ObjectAccountingGrowsAndShrinks) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s");
  StackEngine engine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 0)
                                  .Add("B", 100)
                                  .Add("A", 5000)  // everything old purged
                                  .Build();
  Feed(&engine, events);
  EXPECT_GT(engine.stats().objects.peak(), engine.stats().objects.current());
  EXPECT_EQ(engine.num_live_matches(), 0u);
}

TEST(StackEngineTest, GroupedOutputs) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) GROUP BY ip AGG COUNT WITHIN 10s");
  StackEngine engine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000, {{"ip", Value("x")}})
                                  .Add("A", 1100, {{"ip", Value("y")}})
                                  .Add("B", 2000, {{"ip", Value("x")}})
                                  .Build();
  std::vector<Output> outputs = Feed(&engine, events);
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_TRUE(outputs[0].group->Equals(Value("x")));
  EXPECT_EQ(CountOf(outputs[0]), 1);
}

TEST(StackEngineTest, MinMaxWithExpiry) {
  Schema schema;
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B) AGG MAX(A.w) WITHIN 1s");
  StackEngine engine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 0, {{"w", Value(100.0)}})
                                  .Add("A", 500, {{"w", Value(7.0)}})
                                  .Add("B", 800)    // max = 100
                                  .Add("B", 1200)   // a1 expired: max = 7
                                  .Build();
  std::vector<Output> outputs = Feed(&engine, events);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_DOUBLE_EQ(outputs[0].value.AsDouble(), 100.0);
  EXPECT_DOUBLE_EQ(outputs[1].value.AsDouble(), 7.0);
}

// --------------------------------------------------------------------------
// NaiveEnumerator sanity
// --------------------------------------------------------------------------

TEST(NaiveEnumeratorTest, CountsSimplePattern) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  NaiveEnumerator oracle(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)
                                  .Add("A", 2000)
                                  .Add("B", 3000)
                                  .Build();
  EXPECT_EQ(oracle.CountMatches(events, 2, 3000), 2u);
  EXPECT_EQ(oracle.CountMatches(events, 1, 2000), 0u);
}

TEST(NaiveEnumeratorTest, WindowExcludesExpiredStarts) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s");
  NaiveEnumerator oracle(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 0)
                                  .Add("B", 500)
                                  .Build();
  EXPECT_EQ(oracle.CountMatches(events, 1, 500), 1u);
  EXPECT_EQ(oracle.CountMatches(events, 1, 1000), 0u);  // start expired
}

TEST(NaiveEnumeratorTest, NegationStrictlyBetween) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, !X, B) WITHIN 10s");
  NaiveEnumerator oracle(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("X", 500)   // before a: harmless
                                  .Add("A", 1000)
                                  .Add("X", 1500)  // between: kills
                                  .Add("B", 2000)
                                  .Build();
  EXPECT_EQ(oracle.CountMatches(events, 3, 2000), 0u);
  // Without the middle X the match exists.
  std::vector<Event> events2 = StreamBuilder(&schema)
                                   .Add("X", 500)
                                   .Add("A", 1000)
                                   .Add("B", 2000)
                                   .Build();
  EXPECT_EQ(oracle.CountMatches(events2, 2, 2000), 1u);
}

}  // namespace
}  // namespace aseq
