#include <gtest/gtest.h>

#include "aseq/aseq_engine.h"
#include "engine/change_detector.h"
#include "engine/runtime.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::CountOf;
using testing_util::MustCompile;
using testing_util::RunPerEvent;
using testing_util::StreamBuilder;

TEST(ChangeDetectorTest, EmitsOnExpirationDrop) {
  // Example 1's ending: when b6 arrives and a1 is purged, "the count is
  // updated to zero" — an output with no TRIG instance involved.
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B, C) WITHIN 5s");
  auto inner = CreateAseqEngine(cq);
  ChangeDetectingEngine engine(std::move(*inner));
  EXPECT_EQ(engine.name(), "A-Seq(SEM)+OnChange");

  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)
                                  .Add("B", 2000)
                                  .Add("C", 3000)  // count -> 1
                                  .Add("C", 4000)  // count -> 2
                                  .Add("B", 6000)  // a1 expires: count -> 0
                                  .Build();
  RunResult result = RunPerEvent(events, &engine);
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_EQ(CountOf(result.outputs[0]), 1);
  EXPECT_EQ(result.outputs[0].ts, 3000);
  EXPECT_EQ(CountOf(result.outputs[1]), 2);
  EXPECT_EQ(CountOf(result.outputs[2]), 0);
  EXPECT_EQ(result.outputs[2].ts, 6000);  // reported at the purge
}

TEST(ChangeDetectorTest, NoOutputWhenValueUnchanged) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  auto inner = CreateAseqEngine(cq);
  ChangeDetectingEngine engine(std::move(*inner));
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000)
                                  .Add("B", 2000)  // count -> 1
                                  .Add("Z", 3000)  // irrelevant: unchanged
                                  .Add("Z", 4000)
                                  .Build();
  RunResult result = RunPerEvent(events, &engine);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(CountOf(result.outputs[0]), 1);
}

TEST(ChangeDetectorTest, TrackedPerGroup) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B) GROUP BY g AGG COUNT WITHIN 10s");
  auto inner = CreateAseqEngine(cq);
  ChangeDetectingEngine engine(std::move(*inner));
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1000, {{"g", Value("x")}})
                                  .Add("A", 1500, {{"g", Value("y")}})
                                  .Add("B", 2000, {{"g", Value("x")}})
                                  .Add("B", 3000, {{"g", Value("y")}})
                                  .Add("B", 4000, {{"g", Value("y")}})
                                  .Build();
  RunResult result = RunPerEvent(events, &engine);
  // Changes: x -> 1, y -> 1, y -> 2.
  ASSERT_EQ(result.outputs.size(), 3u);
  EXPECT_TRUE(result.outputs[0].group->Equals(Value("x")));
  EXPECT_EQ(CountOf(result.outputs[0]), 1);
  EXPECT_TRUE(result.outputs[1].group->Equals(Value("y")));
  EXPECT_EQ(CountOf(result.outputs[1]), 1);
  EXPECT_TRUE(result.outputs[2].group->Equals(Value("y")));
  EXPECT_EQ(CountOf(result.outputs[2]), 2);
}

TEST(ChangeDetectorTest, InitialZeroIsTheBaselineNotAChange) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  auto inner = CreateAseqEngine(cq);
  ChangeDetectingEngine engine(std::move(*inner));
  std::vector<Event> events =
      StreamBuilder(&schema).Add("Z", 1000).Add("Z", 2000).Build();
  RunResult result = RunPerEvent(events, &engine);
  EXPECT_TRUE(result.outputs.empty());
}

}  // namespace
}  // namespace aseq
