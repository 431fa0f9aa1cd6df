// Randomized property tests for the multi-query engines: for arbitrary
// workload shapes (random query counts, shared-prefix / shared-substring
// geometry, random chop plans), PreTree, Chop-Connect, and ECube must
// produce exactly the per-query outputs of independent single-query A-Seq.

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "aseq/aseq_engine.h"
#include "baseline/ecube_engine.h"
#include "common/rng.h"
#include "engine/runtime.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/pretree_engine.h"
#include "query/analyzer.h"
#include "stream/workload.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::RunPerEvent;

using OutputMap = std::map<std::pair<size_t, SeqNum>, int64_t>;

OutputMap Reference(const std::vector<CompiledQuery>& queries,
                    const std::vector<Event>& events) {
  OutputMap ref;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto engine = CreateAseqEngine(queries[qi]);
    EXPECT_TRUE(engine.ok());
    for (const Output& output :
         RunPerEvent(events, engine->get()).outputs) {
      ref[{qi, output.seq}] = output.value.AsInt64();
    }
  }
  return ref;
}

OutputMap ToMap(const std::vector<MultiOutput>& outputs) {
  OutputMap m;
  for (const MultiOutput& mo : outputs) {
    m[{mo.query_index, mo.output.seq}] = mo.output.value.AsInt64();
  }
  return m;
}

void ExpectEqualMaps(const OutputMap& ref, const OutputMap& got,
                     const std::string& context) {
  ASSERT_EQ(ref.size(), got.size()) << context;
  for (const auto& [key, value] : ref) {
    auto it = got.find(key);
    ASSERT_NE(it, got.end())
        << context << " missing q" << key.first << "@" << key.second;
    ASSERT_EQ(value, it->second)
        << context << " q" << key.first << "@" << key.second;
  }
}

/// Chops a query's positive types into random contiguous segments.
std::vector<std::vector<EventTypeId>> RandomChop(
    const std::vector<EventTypeId>& types, Rng* rng) {
  std::vector<std::vector<EventTypeId>> segments;
  size_t i = 0;
  while (i < types.size()) {
    size_t len = 1 + rng->NextUInt(types.size() - i);
    segments.emplace_back(types.begin() + i, types.begin() + i + len);
    i += len;
  }
  return segments;
}

class MultiPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MultiPropertyTest, PreTreeOnRandomPrefixWorkload) {
  Rng rng(GetParam());
  size_t num_queries = 2 + rng.NextUInt(4);
  size_t total = 3 + rng.NextUInt(3);
  size_t prefix = 1 + rng.NextUInt(total - 1);
  SharedWorkload workload = MakePrefixSharedWorkload(
      num_queries, prefix, total, 500 + rng.NextInt(0, 1500));
  Schema schema;
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> queries;
  for (const Query& q : workload.queries) {
    queries.push_back(std::move(analyzer.Analyze(q)).value());
  }
  StreamConfig config =
      MakeWorkloadStreamConfig(workload, GetParam() * 31 + 7, 400, 0, 40);
  StreamGenerator gen(config, &schema);
  std::vector<Event> events = gen.Generate();
  AssignSeqNums(&events);

  auto engine = PreTreeEngine::Create(queries);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExpectEqualMaps(Reference(queries, events),
                  ToMap(RunPerEvent(events, engine->get()).outputs),
                  "pretree seed=" + std::to_string(GetParam()));
}

TEST_P(MultiPropertyTest, ChopConnectOnRandomPlans) {
  Rng rng(GetParam() * 977 + 3);
  size_t num_queries = 2 + rng.NextUInt(3);
  size_t prefix = rng.NextUInt(3);
  size_t shared = 1 + rng.NextUInt(3);
  size_t tail = rng.NextUInt(3);
  if (prefix + tail == 0) tail = 1;
  SharedWorkload workload = MakeSubstringSharedWorkload(
      num_queries, prefix, shared, tail, 800 + rng.NextInt(0, 1200));
  Schema schema;
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> queries;
  for (const Query& q : workload.queries) {
    queries.push_back(std::move(analyzer.Analyze(q)).value());
  }
  StreamConfig config =
      MakeWorkloadStreamConfig(workload, GetParam() * 13 + 1, 350, 0, 40);
  StreamGenerator gen(config, &schema);
  std::vector<Event> events = gen.Generate();
  AssignSeqNums(&events);
  OutputMap ref = Reference(queries, events);

  // The greedy planner's plan...
  {
    auto engine = ChopConnectEngine::Create(queries, PlanChopConnect(queries));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ExpectEqualMaps(
        ref, ToMap(RunPerEvent(events, engine->get()).outputs),
        "cc-greedy seed=" + std::to_string(GetParam()));
  }
  // ...and a fully random chop of every query (stress multi-connect).
  {
    ChopPlan plan;
    for (const CompiledQuery& q : queries) {
      std::vector<size_t> segs;
      for (auto& types : RandomChop(q.positive_types(), &rng)) {
        size_t id = plan.segments.size();
        for (size_t s = 0; s < plan.segments.size(); ++s) {
          if (plan.segments[s] == types) {
            id = s;
            break;
          }
        }
        if (id == plan.segments.size()) plan.segments.push_back(types);
        segs.push_back(id);
      }
      plan.query_segments.push_back(std::move(segs));
    }
    auto engine = ChopConnectEngine::Create(queries, plan);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ExpectEqualMaps(
        ref, ToMap(RunPerEvent(events, engine->get()).outputs),
        "cc-random seed=" + std::to_string(GetParam()));
  }
}

TEST_P(MultiPropertyTest, EcubeOnRandomSubstringWorkload) {
  Rng rng(GetParam() * 51 + 29);
  size_t num_queries = 2 + rng.NextUInt(3);
  size_t prefix = rng.NextUInt(3);
  size_t shared = 1 + rng.NextUInt(2);
  size_t tail = rng.NextUInt(2);
  SharedWorkload workload = MakeSubstringSharedWorkload(
      num_queries, prefix, shared, tail, 600 + rng.NextInt(0, 1000));
  Schema schema;
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> queries;
  for (const Query& q : workload.queries) {
    queries.push_back(std::move(analyzer.Analyze(q)).value());
  }
  StreamConfig config =
      MakeWorkloadStreamConfig(workload, GetParam() * 7 + 77, 300, 0, 40);
  StreamGenerator gen(config, &schema);
  std::vector<Event> events = gen.Generate();
  AssignSeqNums(&events);

  std::vector<EventTypeId> shared_types;
  for (const std::string& name : workload.shared_types) {
    shared_types.push_back(*schema.FindEventType(name));
  }
  auto engine = EcubeEngine::Create(queries, shared_types);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ExpectEqualMaps(Reference(queries, events),
                  ToMap(RunPerEvent(events, engine->get()).outputs),
                  "ecube seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiPropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace aseq
