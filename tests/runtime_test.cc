#include <gtest/gtest.h>

#include "aseq/aseq_engine.h"
#include "engine/runtime.h"
#include "exec/serial_executor.h"
#include "stream/stream_source.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::MustCompile;
using testing_util::StreamBuilder;

TEST(RuntimeTest, AssignSeqNumsAreStrictlyIncreasing) {
  Schema schema;
  std::vector<Event> events =
      StreamBuilder(&schema).Add("A", 5).Add("B", 5).Add("A", 6).Build();
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq(), i);
  }
}

TEST(RuntimeTest, RunDrivesSourceAndCollects) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events;
  events.emplace_back(schema.RegisterEventType("A"), 1);
  events.emplace_back(schema.RegisterEventType("B"), 2);
  VectorSource source(events);
  RunResult result = exec::RunSerial(RunOptions(), &source, engine->get());
  EXPECT_EQ(result.events, 2u);
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].value.AsInt64(), 1);
  EXPECT_GE(result.elapsed_seconds, 0.0);
}

TEST(RuntimeTest, CollectOutputsOffStillProcesses) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events =
      StreamBuilder(&schema).Add("A", 1).Add("B", 2).Build();
  RunOptions options;
  options.collect_outputs = false;
  RunResult result = exec::RunSerial(options, events, engine->get());
  EXPECT_TRUE(result.outputs.empty());
  EXPECT_EQ(result.events, 2u);
  EXPECT_EQ((*engine)->stats().outputs, 1u);  // the engine still produced it
}

TEST(RuntimeTest, MillisPerSlideMath) {
  RunResult result;
  result.events = 2000;
  result.elapsed_seconds = 1.0;
  EXPECT_DOUBLE_EQ(result.MillisPerSlide(), 0.5);
  RunResult empty;
  EXPECT_DOUBLE_EQ(empty.MillisPerSlide(), 0.0);
}

TEST(RuntimeTest, OutputToString) {
  Output output;
  output.ts = 42;
  output.value = Value(int64_t{7});
  EXPECT_EQ(output.ToString(), "@42 7");
  output.group = Value("x");
  EXPECT_EQ(output.ToString(), "@42 [x] 7");
}

TEST(RuntimeTest, RunEventsOverridesPreassignedSeqs) {
  // The serial core stamps sequence numbers on copies of the caller's
  // events, so callers can replay the same vector twice, from any offset.
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 10s");
  std::vector<Event> events =
      StreamBuilder(&schema).Add("A", 1).Add("B", 2).Build();
  for (uint64_t start : {uint64_t{0}, uint64_t{10}}) {
    auto engine = CreateAseqEngine(cq);
    RunOptions options;
    options.start_offset = start;
    RunResult result = exec::RunSerial(options, events, engine->get());
    ASSERT_EQ(result.outputs.size(), 1u);
    EXPECT_EQ(result.outputs[0].value.AsInt64(), 1);
    EXPECT_EQ(result.outputs[0].seq, start + 1);
    EXPECT_EQ(events[1].seq(), 1u);
  }
}

}  // namespace
}  // namespace aseq
