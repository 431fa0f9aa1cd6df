// Long-run stress and determinism tests: 100k-event streams through every
// engine family, checking invariants the short tests cannot see —
// bit-exact determinism per seed, object accounting that returns to the
// live-state level, monotone work counters, and bounded state under
// windowed execution.

#include <gtest/gtest.h>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "engine/runtime.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/composite_engine.h"
#include "multi/pretree_engine.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "stream/workload.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::RunPerEvent;

std::vector<Event> BigStream(Schema* schema) {
  StockStreamOptions options;
  options.seed = 424242;
  options.num_events = 100000;
  options.max_gap_ms = 4;
  std::vector<Event> events = GenerateStockStream(options, schema);
  AssignSeqNums(&events);
  return events;
}

TEST(StressTest, HundredThousandEventsThroughSem) {
  Schema schema;
  std::vector<Event> events = BigStream(&schema);
  Analyzer analyzer(&schema);
  auto cq = analyzer.AnalyzeText(
      "PATTERN SEQ(DELL, IPIX, AMAT, QQQ) AGG COUNT WITHIN 2s");
  ASSERT_TRUE(cq.ok());
  auto engine = CreateAseqEngine(*cq);
  RunResult result = RunPerEvent(events, engine->get());
  EXPECT_EQ(result.events, 100000u);
  EXPECT_GT(result.outputs.size(), 1000u);
  // Peak state stays bounded by the live-start count, far below the
  // event count (the paper's memory claim).
  EXPECT_LT(engine->get()->stats().objects.peak(), 1000);
  EXPECT_GT(engine->get()->stats().work_units, 100000u);
}

TEST(StressTest, DeterministicAcrossRuns) {
  for (const char* text :
       {"PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s",
        "PATTERN SEQ(DELL, !QQQ, AMAT) AGG SUM(AMAT.volume) WITHIN 1s",
        "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 1s"}) {
    std::vector<std::vector<Output>> runs;
    for (int round = 0; round < 2; ++round) {
      Schema schema;
      StockStreamOptions options;
      options.seed = 7;
      options.num_events = 30000;
      options.max_gap_ms = 5;
      std::vector<Event> events = GenerateStockStream(options, &schema);
      AssignSeqNums(&events);
      Analyzer analyzer(&schema);
      auto cq = analyzer.AnalyzeText(text);
      ASSERT_TRUE(cq.ok());
      auto engine = CreateAseqEngine(*cq);
      runs.push_back(RunPerEvent(events, engine->get()).outputs);
    }
    ASSERT_EQ(runs[0].size(), runs[1].size()) << text;
    for (size_t i = 0; i < runs[0].size(); ++i) {
      ASSERT_EQ(runs[0][i].ts, runs[1][i].ts) << text;
      ASSERT_TRUE(runs[0][i].value.Equals(runs[1][i].value)) << text;
    }
  }
}

TEST(StressTest, StackEngineStateReturnsToWindowLevel) {
  Schema schema;
  std::vector<Event> events = BigStream(&schema);
  Analyzer analyzer(&schema);
  auto cq = analyzer.AnalyzeText(
      "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 500");
  ASSERT_TRUE(cq.ok());
  StackEngine engine(*cq);
  RunPerEvent(events, &engine);
  // Current live objects are bounded by one window's worth of state,
  // orders of magnitude below the total processed volume.
  EXPECT_LT(engine.stats().objects.current(),
            engine.stats().objects.peak() + 1);
  EXPECT_LT(engine.stats().objects.current(), 20000);
  EXPECT_GT(engine.stats().events_processed, 0u);
}

TEST(StressTest, MultiEnginesSurviveLongRunsAndAgree) {
  SharedWorkload workload = MakeSubstringSharedWorkload(4, 1, 2, 0, 1500);
  Schema schema;
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> queries;
  for (const Query& q : workload.queries) {
    queries.push_back(std::move(analyzer.Analyze(q)).value());
  }
  StreamConfig config = MakeWorkloadStreamConfig(workload, 5, 60000, 0, 6);
  StreamGenerator gen(config, &schema);
  std::vector<Event> events = gen.Generate();
  AssignSeqNums(&events);

  auto ns = CompositeEngine::CreateNonShare(queries);
  auto pt = PreTreeEngine::Create(queries);
  ASSERT_TRUE(pt.ok()) << pt.status().ToString();
  auto cc = ChopConnectEngine::Create(queries, PlanChopConnect(queries));
  ASSERT_TRUE(cc.ok()) << cc.status().ToString();

  MultiRunResult ns_run = RunPerEvent(events, ns->get());
  MultiRunResult pt_run = RunPerEvent(events, pt->get());
  MultiRunResult cc_run = RunPerEvent(events, cc->get());
  ASSERT_EQ(ns_run.outputs.size(), pt_run.outputs.size());
  ASSERT_EQ(ns_run.outputs.size(), cc_run.outputs.size());
  EXPECT_GT(ns_run.outputs.size(), 1000u);
  uint64_t checked = 0;
  for (size_t i = 0; i < ns_run.outputs.size(); ++i) {
    ASSERT_EQ(ns_run.outputs[i].query_index, pt_run.outputs[i].query_index);
    ASSERT_TRUE(ns_run.outputs[i].output.value.Equals(
        pt_run.outputs[i].output.value))
        << "pretree diverged at output " << i;
    ASSERT_TRUE(ns_run.outputs[i].output.value.Equals(
        cc_run.outputs[i].output.value))
        << "chop-connect diverged at output " << i;
    ++checked;
  }
  EXPECT_EQ(checked, ns_run.outputs.size());
}

TEST(StressTest, HpcManyPartitions) {
  Schema schema;
  StockStreamOptions options;
  options.seed = 11;
  options.num_events = 50000;
  options.max_gap_ms = 4;
  options.num_traders = 2000;  // many distinct partition keys
  std::vector<Event> events = GenerateStockStream(options, &schema);
  AssignSeqNums(&events);
  Analyzer analyzer(&schema);
  auto cq = analyzer.AnalyzeText(
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.traderId = IPIX.traderId "
      "AGG COUNT WITHIN 2s");
  ASSERT_TRUE(cq.ok());
  auto engine = CreateAseqEngine(*cq);
  RunResult result = RunPerEvent(events, engine->get());
  EXPECT_EQ(result.events, 50000u);
  // Expired partitions must be reclaimed, not accumulate forever.
  HpcEngine* hpc = static_cast<HpcEngine*>(engine->get());
  (void)engine->get()->Poll(events.back().ts() + 10000);
  EXPECT_EQ(hpc->num_partitions(), 0u);
}

}  // namespace
}  // namespace aseq
