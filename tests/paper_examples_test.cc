// The paper's worked examples, encoded end-to-end with hand-derived
// expected values. (Example 1 lives in stack_engine_test, Example 3 in
// aseq_engine_test, Example 4 in aseq_engine_test/prefix_counter_test;
// here: Example 2/Fig. 4 at engine level, Example 5/Fig. 8, Example 6+7/
// Fig. 9, and the Fig. 10 snapshot scenario with full hand arithmetic.)

#include <gtest/gtest.h>

#include "aseq/aseq_engine.h"
#include "baseline/naive_enumerator.h"
#include "engine/runtime.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/pretree_engine.h"
#include "query/analyzer.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::CountOf;
using testing_util::MustCompile;
using testing_util::RunPerEvent;
using testing_util::StreamBuilder;

// Example 2 / Fig. 4 — DPC over pattern (A, B, C, D), unbounded window.
// The arrival sequence a b c d b a a builds the figure's column
// (A=3, AB=2, ABC=1, ABCD=1); the next d then reports 1 + 1 = 2.
TEST(PaperExamplesTest, Example2Fig4AtEngineLevel) {
  Schema schema;
  CompiledQuery cq = MustCompile(&schema, "PATTERN SEQ(A, B, C, D)");
  auto engine = CreateAseqEngine(cq);
  std::vector<Event> events = StreamBuilder(&schema)
                                  .Add("A", 1)
                                  .Add("B", 2)
                                  .Add("C", 3)
                                  .Add("D", 4)  // -> 1
                                  .Add("B", 5)
                                  .Add("A", 6)
                                  .Add("A", 7)
                                  .Add("D", 8)  // -> 1 + ABC(1) = 2
                                  .Build();
  std::vector<Output> outputs = RunPerEvent(events, engine->get()).outputs;
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 1);
  EXPECT_EQ(CountOf(outputs[1]), 2);
}

// Example 5 / Fig. 8 — the HPC structure: SEQ(A, B, C, D) with the
// equivalence test on `id`; three id values create three partitions, each
// with its own per-start prefix counters.
TEST(PaperExamplesTest, Example5Fig8HashedPrefixCounters) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema,
      "PATTERN SEQ(A, B, C, D) WHERE A.id = B.id = C.id = D.id WITHIN 7s");
  auto engine = CreateAseqEngine(cq);
  HpcEngine* hpc = static_cast<HpcEngine*>(engine->get());

  StreamBuilder b(&schema);
  // Three partitions; a complete sequence only in id=1.
  b.Add("A", 1000, {{"id", Value(1)}})
      .Add("A", 1100, {{"id", Value(3)}})
      .Add("A", 1200, {{"id", Value(2)}})
      .Add("B", 2000, {{"id", Value(1)}})
      .Add("B", 2100, {{"id", Value(3)}})
      .Add("C", 3000, {{"id", Value(1)}})
      .Add("D", 4000, {{"id", Value(1)}})   // id=1 completes: 1
      .Add("D", 4100, {{"id", Value(2)}});  // id=2 has only (A): 0
  std::vector<Output> outputs =
      RunPerEvent(b.Build(), engine->get()).outputs;
  EXPECT_EQ(hpc->num_partitions(), 3u);
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(CountOf(outputs[0]), 1);  // ungrouped: total across partitions
  EXPECT_EQ(CountOf(outputs[1]), 1);
}

// Example 6 + 7 / Fig. 9 — Q1/Q2 prefix sharing: the count of the shared
// (VK, BK) prefix is pipelined into both queries; hand-checked outputs.
TEST(PaperExamplesTest, Example7Fig9PreTreePipelinesSharedPrefix) {
  Schema schema;
  Analyzer analyzer(&schema);
  auto make = [&](std::vector<std::string> names) {
    Query q;
    q.pattern = Pattern::FromNames(names);
    q.agg = AggregateSpec::Count();
    q.window_ms = 60000;
    return std::move(analyzer.Analyze(q)).value();
  };
  std::vector<CompiledQuery> queries = {
      make({"VK", "BK", "VC", "BC"}),  // Q1
      make({"VK", "BK", "VF"}),        // Q2
  };
  auto engine = PreTreeEngine::Create(queries);
  ASSERT_TRUE(engine.ok());
  // Shared node BK + branches (VC, BC) and (VF): 4 trie nodes.
  EXPECT_EQ((*engine)->num_trie_nodes(), 4u);

  StreamBuilder b(&schema);
  b.Add("VK", 1000)   // vk1
      .Add("BK", 2000)   // (VK,BK) = 1
      .Add("VK", 3000)   // vk2
      .Add("VF", 4000)   // Q2 trigger: (VK,BK,VF) = 1 (vk1 path only)
      .Add("VC", 5000)
      .Add("BK", 6000)   // (VK,BK) += (VK)... per-instance trees
      .Add("VF", 7000)   // Q2: (vk1,bk1,vf2), (vk1,bk2,vf2), (vk2,bk2,vf2) new
      .Add("BC", 8000);  // Q1 trigger: needs VC after BK: vc1 after bk1 only
  std::vector<MultiOutput> outputs =
      RunPerEvent(b.Build(), engine->get()).outputs;
  // Outputs: VF@4000 (Q2), VF@7000 (Q2), BC@8000 (Q1).
  ASSERT_EQ(outputs.size(), 3u);
  EXPECT_EQ(outputs[0].query_index, 1u);
  EXPECT_EQ(outputs[0].output.value.AsInt64(), 1);  // (vk1,bk1,vf1)
  EXPECT_EQ(outputs[1].query_index, 1u);
  // All (VK,BK) pairs before vf2: (vk1,bk1), (vk1,bk2), (vk2,bk2) plus the
  // old match = 1 + 3 = 4.
  EXPECT_EQ(outputs[1].output.value.AsInt64(), 4);
  EXPECT_EQ(outputs[2].query_index, 0u);
  // Q1 = (VK,BK,VC,BC): vc1@5000 extends pairs formed before it —
  // (vk1,bk1) only — then bc1 completes: 1.
  EXPECT_EQ(outputs[2].output.value.AsInt64(), 1);
}

// Fig. 10 — Chop-Connect snapshot maintenance for sub1 = (A,B,C),
// sub2 = (D,E), window 10s, with every number derived by hand (and
// cross-checked against the brute-force enumerator).
TEST(PaperExamplesTest, Fig10SnapshotMaintenanceHandChecked) {
  Schema schema;
  Analyzer analyzer(&schema);
  Query q;
  q.pattern = Pattern::FromNames({"A", "B", "C", "D", "E"});
  q.agg = AggregateSpec::Count();
  q.window_ms = 10000;
  CompiledQuery compiled = std::move(analyzer.Analyze(q)).value();

  ChopPlan plan;
  plan.segments.push_back({*schema.FindEventType("A"),
                           *schema.FindEventType("B"),
                           *schema.FindEventType("C")});
  plan.segments.push_back(
      {*schema.FindEventType("D"), *schema.FindEventType("E")});
  plan.query_segments.push_back({0, 1});
  auto engine = ChopConnectEngine::Create({compiled}, plan);
  ASSERT_TRUE(engine.ok());

  StreamBuilder b(&schema);
  b.Add("A", 1000)    // a1, exp 11000
      .Add("B", 2000)
      .Add("C", 3000)   // sub1 per a1: 1
      .Add("D", 4000)   // d1 snapshot: {a1: 1}
      .Add("A", 5000)   // a2, exp 15000
      .Add("B", 6000)   // a1: (A,B)=2; a2: (A,B)=1
      .Add("C", 7000)   // a1: (A,B,C)=1+2=3; a2: (A,B,C)=1
      .Add("D", 8000)   // d2 snapshot: {a1: 3, a2: 1}
      .Add("E", 9000)   // trigger: d1*1 + d2*(3+1) = 5
      .Add("E", 12000); // a1 expired: d1: 2*0; d2: 2*(a2: 1) = 2
  std::vector<Event> events = b.Build();
  std::vector<MultiOutput> outputs =
      RunPerEvent(events, engine->get()).outputs;
  ASSERT_EQ(outputs.size(), 2u);
  EXPECT_EQ(outputs[0].output.value.AsInt64(), 5);
  EXPECT_EQ(outputs[1].output.value.AsInt64(), 2);

  // Cross-check both trigger points against the brute-force enumerator.
  NaiveEnumerator oracle(compiled);
  EXPECT_EQ(oracle.CountMatches(events, 8, 9000), 5u);
  EXPECT_EQ(oracle.CountMatches(events, 9, 12000), 2u);
}

// Sec. 5 — the SUM example: "assume for all sequence matches of pattern
// (A, B, C, D), we want the SUM value on event type C_weight".
TEST(PaperExamplesTest, Section5SumOverCarrierAttribute) {
  Schema schema;
  CompiledQuery cq = MustCompile(
      &schema, "PATTERN SEQ(A, B, C, D) AGG SUM(C.weight) WITHIN 60s");
  auto engine = CreateAseqEngine(cq);
  StreamBuilder b(&schema);
  b.Add("A", 1000)
      .Add("B", 2000)
      .Add("C", 3000, {{"weight", Value(10.0)}})
      .Add("C", 4000, {{"weight", Value(5.0)}})
      .Add("D", 5000);
  // Matches: (a,b,c1,d) weight 10 and (a,b,c2,d) weight 5 -> SUM 15.
  std::vector<Output> outputs =
      RunPerEvent(b.Build(), engine->get()).outputs;
  ASSERT_EQ(outputs.size(), 1u);
  EXPECT_DOUBLE_EQ(outputs[0].value.AsDouble(), 15.0);
}

}  // namespace
}  // namespace aseq
