// Multi-query sharing (Sec. 4): the paper's Example 6 workload (type names
// spelled out to match the clickstream generator) —
//
//   Q1 = SEQ(ViewKindle, BuyKindle, ViewCase, BuyCase)
//   Q2 = SEQ(ViewKindle, BuyKindle, ViewKindleFire)
//   Q3 = SEQ(ViewKindle, BuyKindle, ViewCase, BuyCase, ViewEBook, BuyEBook)
//   Q4 = SEQ(ViewKindle, BuyKindle, ViewCase, BuyCase, ViewLight, BuyLight)
//   Q5 = SEQ(ViewIPad, ViewKindleFire, ViewKindle, BuyKindle)
//
// Q1..Q4 share prefixes (PreTree, Sec. 4.1); Q5 shares (ViewKindle,
// BuyKindle) at its tail, which needs Chop-Connect (Sec. 4.2). The example
// runs the workload three ways — unshared A-Seq, PreTree on Q1..Q4,
// Chop-Connect on all five — verifies the answers agree, and reports the
// per-slide cost.

#include <cstdio>
#include <map>

#include "exec/serial_executor.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/composite_engine.h"
#include "multi/pretree_engine.h"
#include "query/analyzer.h"
#include "stream/clickstream.h"

using namespace aseq;

namespace {

Query MakeQuery(std::vector<std::string> names) {
  Query q;
  q.pattern = Pattern::FromNames(names);
  q.agg = AggregateSpec::Count();
  q.window_ms = 60 * 1000;
  return q;
}

using OutputMap = std::map<std::pair<size_t, SeqNum>, int64_t>;

OutputMap ToMap(const std::vector<MultiOutput>& outputs) {
  OutputMap m;
  for (const MultiOutput& mo : outputs) {
    m[{mo.query_index, mo.output.seq}] = mo.output.value.AsInt64();
  }
  return m;
}

}  // namespace

int main() {
  Schema schema;
  ClickstreamOptions options;
  options.seed = 5;
  options.num_events = 60000;
  options.max_gap_ms = 40;
  std::vector<Event> events = GenerateClickstream(options, &schema);
  AssignSeqNums(&events);

  std::vector<Query> queries = {
      MakeQuery({"ViewKindle", "BuyKindle", "ViewCase", "BuyCase"}),
      MakeQuery({"ViewKindle", "BuyKindle", "ViewKindleFire"}),
      MakeQuery({"ViewKindle", "BuyKindle", "ViewCase", "BuyCase", "ViewEBook", "BuyEBook"}),
      MakeQuery({"ViewKindle", "BuyKindle", "ViewCase", "BuyCase", "ViewLight", "BuyLight"}),
      MakeQuery({"ViewIPad", "ViewKindleFire", "ViewKindle", "BuyKindle"}),
  };
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> compiled;
  for (const Query& q : queries) {
    auto cq = analyzer.Analyze(q);
    if (!cq.ok()) {
      std::fprintf(stderr, "%s\n", cq.status().ToString().c_str());
      return 1;
    }
    compiled.push_back(std::move(cq).value());
  }

  // 1. Unshared: one A-Seq engine per query.
  auto nonshared = CompositeEngine::CreateNonShare(compiled);
  MultiRunResult ns = exec::RunSerial(RunOptions(), events, nonshared->get());

  // 2. Prefix sharing on Q1..Q4 (they all start with VKindle).
  std::vector<CompiledQuery> prefix_group(compiled.begin(),
                                          compiled.begin() + 4);
  auto pretree = PreTreeEngine::Create(prefix_group);
  if (!pretree.ok()) {
    std::fprintf(stderr, "%s\n", pretree.status().ToString().c_str());
    return 1;
  }
  MultiRunResult pt = exec::RunSerial(RunOptions(), events, pretree->get());

  // 3. Chop-Connect over all five queries (the greedy planner picks the
  //    most-shared substring).
  ChopPlan plan = PlanChopConnect(compiled);
  std::printf("Chop-Connect plan:\n  %s\n\n", plan.ToString(schema).c_str());
  auto cc = ChopConnectEngine::Create(compiled, plan);
  if (!cc.ok()) {
    std::fprintf(stderr, "%s\n", cc.status().ToString().c_str());
    return 1;
  }
  MultiRunResult cr = exec::RunSerial(RunOptions(), events, cc->get());

  // Verify agreement.
  OutputMap ns_map = ToMap(ns.outputs);
  OutputMap pt_map = ToMap(pt.outputs);
  OutputMap cc_map = ToMap(cr.outputs);
  size_t mismatches = 0;
  for (const auto& [key, value] : pt_map) {
    if (ns_map.count(key) == 0 || ns_map[key] != value) ++mismatches;
  }
  for (const auto& [key, value] : cc_map) {
    if (ns_map.count(key) == 0 || ns_map[key] != value) ++mismatches;
  }
  std::printf("%-28s %12s %14s\n", "strategy", "ms/slide", "outputs");
  std::printf("%-28s %12.5f %14zu\n", "NonShare (5 queries)",
              ns.MillisPerSlide(), ns.outputs.size());
  std::printf("%-28s %12.5f %14zu\n", "PreTree   (Q1..Q4)",
              pt.MillisPerSlide(), pt.outputs.size());
  std::printf("%-28s %12.5f %14zu\n", "ChopConnect (5 queries)",
              cr.MillisPerSlide(), cr.outputs.size());
  std::printf("\nmismatches vs unshared execution: %zu\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}
