#include <gtest/gtest.h>

#include <map>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "engine/runtime.h"
#include "multi/composite_engine.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::MustCompile;
using testing_util::RunPerEvent;

using OutputKey = std::tuple<size_t, SeqNum, std::string>;

std::map<OutputKey, std::string> ToMap(const std::vector<MultiOutput>& outputs) {
  std::map<OutputKey, std::string> m;
  for (const MultiOutput& mo : outputs) {
    std::string group =
        mo.output.group.has_value() ? mo.output.group->ToString() : "";
    m[{mo.query_index, mo.output.seq, group}] = mo.output.value.ToString();
  }
  return m;
}

TEST(HybridEngineTest, RoutesMixedWorkloadAndMatchesReferences) {
  Schema schema;
  StockStreamOptions options;
  options.seed = 77;
  options.num_events = 4000;
  options.max_gap_ms = 8;
  options.num_traders = 5;
  std::vector<Event> events = GenerateStockStream(options, &schema);
  AssignSeqNums(&events);

  // A deliberately mixed workload touching every routing path.
  std::vector<const char*> texts = {
      // Two COUNT queries sharing the DELL start -> PreTree.
      "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s",
      "PATTERN SEQ(DELL, IPIX, QQQ) AGG COUNT WITHIN 1s",
      // Two queries sharing (MSFT, CSCO) mid-pattern, distinct starts -> CC.
      "PATTERN SEQ(INTC, MSFT, CSCO) AGG COUNT WITHIN 1s",
      "PATTERN SEQ(ORCL, MSFT, CSCO) AGG COUNT WITHIN 1s",
      // Negation -> per-query A-Seq(SEM).
      "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT WITHIN 1s",
      // GROUP BY -> per-query A-Seq(HPC).
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 1s",
      // SUM -> per-query A-Seq.
      "PATTERN SEQ(DELL, IPIX) AGG SUM(IPIX.volume) WITHIN 1s",
      // Join predicate -> stack fallback.
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price AGG COUNT "
      "WITHIN 1s",
  };
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> queries;
  for (const char* text : texts) {
    auto cq = analyzer.AnalyzeText(text);
    ASSERT_TRUE(cq.ok()) << text << ": " << cq.status().ToString();
    queries.push_back(std::move(cq).value());
  }

  auto hybrid = CompositeEngine::CreateHybrid(queries);
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  const auto& routing = (*hybrid)->routing();
  ASSERT_EQ(routing.size(), 8u);
  EXPECT_NE(routing[0].find("PreTree"), std::string::npos) << routing[0];
  EXPECT_NE(routing[1].find("PreTree"), std::string::npos);
  EXPECT_NE(routing[2].find("ChopConnect"), std::string::npos) << routing[2];
  EXPECT_NE(routing[3].find("ChopConnect"), std::string::npos);
  EXPECT_EQ(routing[4], "A-Seq(SEM)");
  EXPECT_EQ(routing[5], "A-Seq(HPC)");
  EXPECT_EQ(routing[6], "A-Seq(SEM)");
  EXPECT_NE(routing[7].find("StackBased"), std::string::npos) << routing[7];

  MultiRunResult run = RunPerEvent(events, hybrid->get());
  auto got = ToMap(run.outputs);

  // Reference: the canonical single-query engine per query.
  std::map<OutputKey, std::string> ref;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    std::unique_ptr<QueryEngine> engine;
    if (queries[qi].has_join_predicates()) {
      engine = std::make_unique<StackEngine>(queries[qi]);
    } else {
      engine = CreateAseqEngine(queries[qi]).MoveValue();
    }
    for (const Output& output :
         RunPerEvent(events, engine.get()).outputs) {
      std::string group =
          output.group.has_value() ? output.group->ToString() : "";
      ref[{qi, output.seq, group}] = output.value.ToString();
    }
  }
  ASSERT_EQ(ref.size(), got.size());
  size_t checked = 0;
  for (const auto& [key, value] : ref) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end()) << "missing output for query "
                             << std::get<0>(key);
    ASSERT_EQ(value, it->second) << "query " << std::get<0>(key) << " seq "
                                 << std::get<1>(key);
    ++checked;
  }
  EXPECT_GT(checked, 100u);  // the workload produced substantial output
}

TEST(HybridEngineTest, SingleQueryWorkload) {
  Schema schema;
  std::vector<CompiledQuery> queries = {
      MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s")};
  auto hybrid = CompositeEngine::CreateHybrid(queries);
  ASSERT_TRUE(hybrid.ok());
  EXPECT_EQ((*hybrid)->routing()[0], "A-Seq(SEM)");
}

TEST(HybridEngineTest, UnboundedWindowsStayPerQuery) {
  Schema schema;
  std::vector<CompiledQuery> queries = {
      MustCompile(&schema, "PATTERN SEQ(A, B)"),
      MustCompile(&schema, "PATTERN SEQ(A, C)")};
  auto hybrid = CompositeEngine::CreateHybrid(queries);
  ASSERT_TRUE(hybrid.ok());
  // Sharing engines require windows; both route to DPC.
  EXPECT_EQ((*hybrid)->routing()[0], "A-Seq(DPC)");
  EXPECT_EQ((*hybrid)->routing()[1], "A-Seq(DPC)");
}

TEST(HybridEngineTest, MixedWindowsFormSeparateGroups) {
  Schema schema;
  std::vector<CompiledQuery> queries = {
      MustCompile(&schema, "PATTERN SEQ(A, B, C) WITHIN 1s"),
      MustCompile(&schema, "PATTERN SEQ(A, B, D) WITHIN 1s"),
      MustCompile(&schema, "PATTERN SEQ(A, B, E) WITHIN 2s"),
  };
  auto hybrid = CompositeEngine::CreateHybrid(queries);
  ASSERT_TRUE(hybrid.ok());
  const auto& routing = (*hybrid)->routing();
  EXPECT_NE(routing[0].find("win=1000"), std::string::npos);
  EXPECT_NE(routing[1].find("win=1000"), std::string::npos);
  // The 2s query has no same-window sibling: per-query engine.
  EXPECT_EQ(routing[2], "A-Seq(SEM)");
}

TEST(HybridEngineTest, EmptyWorkloadRejected) {
  EXPECT_FALSE(CompositeEngine::CreateHybrid({}).ok());
}

}  // namespace
}  // namespace aseq
