#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/ecube_engine.h"
#include "ckpt/ckpt.h"
#include "ckpt/snapshot.h"
#include "common/rng.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/composite_engine.h"
#include "multi/pretree_engine.h"
#include "query/analyzer.h"
#include "stream/workload.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::CountOf;
using testing_util::ExpectMultiOutputsEqual;
using testing_util::ExpectStatsEqual;
using testing_util::MustCompile;
using testing_util::RunPerEvent;
using testing_util::StreamBuilder;

std::vector<CompiledQuery> Compile(Schema* schema,
                                   const std::vector<Query>& queries) {
  Analyzer analyzer(schema);
  std::vector<CompiledQuery> out;
  for (const Query& q : queries) {
    auto result = analyzer.Analyze(q);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    out.push_back(std::move(result).value());
  }
  return out;
}

/// Random stream over the workload's type universe.
std::vector<Event> WorkloadStream(const SharedWorkload& workload,
                                  Schema* schema, uint64_t seed, size_t n,
                                  int64_t max_gap = 50) {
  StreamConfig config = MakeWorkloadStreamConfig(workload, seed, n, 0, max_gap);
  StreamGenerator gen(config, schema);
  std::vector<Event> events = gen.Generate();
  AssignSeqNums(&events);
  return events;
}

/// Reference: per-query single A-Seq outputs, keyed (query, seq).
std::map<std::pair<size_t, SeqNum>, int64_t> ReferenceOutputs(
    const std::vector<CompiledQuery>& queries,
    const std::vector<Event>& events) {
  std::map<std::pair<size_t, SeqNum>, int64_t> ref;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    auto engine = CreateAseqEngine(queries[qi]);
    EXPECT_TRUE(engine.ok());
    RunResult result = RunPerEvent(events, engine->get());
    for (const Output& output : result.outputs) {
      ref[{qi, output.seq}] = output.value.AsInt64();
    }
  }
  return ref;
}

void ExpectMatchesReference(
    const std::map<std::pair<size_t, SeqNum>, int64_t>& ref,
    const std::vector<MultiOutput>& outputs, const std::string& context) {
  std::map<std::pair<size_t, SeqNum>, int64_t> got;
  for (const MultiOutput& mo : outputs) {
    got[{mo.query_index, mo.output.seq}] = mo.output.value.AsInt64();
  }
  EXPECT_EQ(ref.size(), got.size()) << context;
  for (const auto& [key, value] : ref) {
    auto it = got.find(key);
    if (it == got.end()) {
      ADD_FAILURE() << context << ": missing output for query "
                    << key.first << " at seq " << key.second;
      continue;
    }
    EXPECT_EQ(value, it->second)
        << context << ": query " << key.first << " seq " << key.second;
  }
}

// --------------------------------------------------------------------------
// NonShare and SASE: CompositeEngine's per-query plans
// --------------------------------------------------------------------------

TEST(NonSharedEngineTest, MatchesSingleQueryEngines) {
  Schema schema;
  SharedWorkload workload = MakePrefixSharedWorkload(3, 2, 4, 2000);
  std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
  std::vector<Event> events = WorkloadStream(workload, &schema, 11, 400);
  auto ref = ReferenceOutputs(queries, events);

  auto engine = CompositeEngine::CreateNonShare(queries);
  ASSERT_TRUE(engine.ok());
  MultiRunResult result = RunPerEvent(events, engine->get());
  ExpectMatchesReference(ref, result.outputs, "nonshared-aseq");

  auto stack = CompositeEngine::CreateSase(queries);
  MultiRunResult result2 = RunPerEvent(events, stack.get());
  ExpectMatchesReference(ref, result2.outputs, "nonshared-stack");
}

// --------------------------------------------------------------------------
// PreTreeEngine (Sec. 4.1)
// --------------------------------------------------------------------------

TEST(PreTreeEngineTest, PaperFigure9WorkloadShapes) {
  // Q1..Q4 of Example 6/7 share prefixes at several depths.
  Schema schema;
  std::vector<Query> queries;
  auto add = [&](std::vector<std::string> names) {
    Query q;
    q.pattern = Pattern::FromNames(names);
    q.agg = AggregateSpec::Count();
    q.window_ms = 5000;
    queries.push_back(q);
  };
  add({"VKindle", "BKindle", "VCase", "BCase"});
  add({"VKindle", "BKindle", "VKindleFire"});
  add({"VKindle", "BKindle", "VCase", "BCase", "VeBook", "BeBook"});
  add({"VKindle", "BKindle", "VCase", "BCase", "VLight", "BLight"});
  std::vector<CompiledQuery> compiled = Compile(&schema, queries);

  auto engine = PreTreeEngine::Create(compiled);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // The trie shares: 1 (BKindle) + 2 (VCase, BCase) below the start, then
  // branches: VKindleFire, (VeBook, BeBook), (VLight, BLight).
  EXPECT_EQ((*engine)->num_trie_nodes(), 3u + 1u + 2u + 2u);

  // Feed a stream covering all the types and compare with per-query A-Seq.
  SharedWorkload workload;
  workload.queries = queries;
  for (const char* t : {"VKindle", "BKindle", "VCase", "BCase", "VKindleFire",
                        "VeBook", "BeBook", "VLight", "BLight"}) {
    workload.all_types.push_back(t);
  }
  std::vector<Event> events = WorkloadStream(workload, &schema, 5, 500);
  auto ref = ReferenceOutputs(compiled, events);
  MultiRunResult result = RunPerEvent(events, engine->get());
  ExpectMatchesReference(ref, result.outputs, "pretree-fig9");
}

TEST(PreTreeEngineTest, RandomizedPrefixWorkloads) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Schema schema;
    SharedWorkload workload =
        MakePrefixSharedWorkload(4, 3, 5, 1500);
    std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
    std::vector<Event> events = WorkloadStream(workload, &schema, seed, 300);
    auto ref = ReferenceOutputs(queries, events);
    auto engine = PreTreeEngine::Create(queries);
    ASSERT_TRUE(engine.ok());
    MultiRunResult result = RunPerEvent(events, engine->get());
    ExpectMatchesReference(ref, result.outputs,
                           "pretree seed=" + std::to_string(seed));
  }
}

TEST(PreTreeEngineTest, MultipleStartTypes) {
  Schema schema;
  std::vector<Query> queries;
  for (auto names : std::vector<std::vector<std::string>>{
           {"A", "B", "C"}, {"A", "B", "D"}, {"E", "B", "C"}}) {
    Query q;
    q.pattern = Pattern::FromNames(names);
    q.agg = AggregateSpec::Count();
    q.window_ms = 1000;
    queries.push_back(q);
  }
  std::vector<CompiledQuery> compiled = Compile(&schema, queries);
  auto engine = PreTreeEngine::Create(compiled);
  ASSERT_TRUE(engine.ok());

  SharedWorkload workload;
  workload.queries = queries;
  workload.all_types = {"A", "B", "C", "D", "E"};
  std::vector<Event> events = WorkloadStream(workload, &schema, 9, 300, 30);
  auto ref = ReferenceOutputs(compiled, events);
  MultiRunResult result = RunPerEvent(events, engine->get());
  ExpectMatchesReference(ref, result.outputs, "pretree-multistart");
}

TEST(PreTreeEngineTest, RejectsUnsupportedQueries) {
  Schema schema;
  std::vector<CompiledQuery> with_neg;
  with_neg.push_back(MustCompile(&schema, "PATTERN SEQ(A, !X, B) WITHIN 1s"));
  EXPECT_FALSE(PreTreeEngine::Create(with_neg).ok());

  std::vector<CompiledQuery> no_window;
  no_window.push_back(MustCompile(&schema, "PATTERN SEQ(A, B)"));
  EXPECT_FALSE(PreTreeEngine::Create(no_window).ok());

  std::vector<CompiledQuery> mixed_windows;
  mixed_windows.push_back(MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s"));
  mixed_windows.push_back(MustCompile(&schema, "PATTERN SEQ(A, C) WITHIN 2s"));
  EXPECT_FALSE(PreTreeEngine::Create(mixed_windows).ok());
}

// --------------------------------------------------------------------------
// Chop plans
// --------------------------------------------------------------------------

TEST(ChopPlanTest, GreedyPlannerFindsSharedSubstring) {
  Schema schema;
  SharedWorkload workload = MakeSubstringSharedWorkload(3, 2, 3, 1, 1000);
  std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
  ChopPlan plan = PlanChopConnect(queries);
  // Each query: [private prefix][shared][private tail] -> 3 segments; the
  // shared segment appears once.
  ASSERT_EQ(plan.query_segments.size(), 3u);
  for (const auto& segs : plan.query_segments) {
    EXPECT_EQ(segs.size(), 3u);
  }
  EXPECT_EQ(plan.segments.size(), 1u + 3u * 2u);  // shared + 6 private
  EXPECT_FALSE(plan.ToString(schema).empty());
}

TEST(ChopPlanTest, TrivialPlanOneSegmentPerQuery) {
  Schema schema;
  SharedWorkload workload = MakePrefixSharedWorkload(2, 2, 4, 1000);
  std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
  ChopPlan plan = TrivialPlan(queries);
  ASSERT_EQ(plan.query_segments.size(), 2u);
  EXPECT_EQ(plan.query_segments[0].size(), 1u);
  EXPECT_EQ(plan.segments.size(), 2u);
}

TEST(ChopPlanTest, NoSharingFallsBackToTrivial) {
  Schema schema;
  std::vector<CompiledQuery> queries;
  queries.push_back(MustCompile(&schema, "PATTERN SEQ(A, B) WITHIN 1s"));
  queries.push_back(MustCompile(&schema, "PATTERN SEQ(C, D) WITHIN 1s"));
  ChopPlan plan = PlanChopConnect(queries);
  EXPECT_EQ(plan.query_segments[0].size(), 1u);
  EXPECT_EQ(plan.query_segments[1].size(), 1u);
}

// --------------------------------------------------------------------------
// ChopConnectEngine (Sec. 4.2)
// --------------------------------------------------------------------------

void RunChopConnectCase(const SharedWorkload& workload, uint64_t seed,
                        size_t n, const std::string& context) {
  Schema schema;
  std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
  std::vector<Event> events = WorkloadStream(workload, &schema, seed, n);
  auto ref = ReferenceOutputs(queries, events);
  ChopPlan plan = PlanChopConnect(queries);
  auto engine = ChopConnectEngine::Create(queries, plan);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  MultiRunResult result = RunPerEvent(events, engine->get());
  ExpectMatchesReference(ref, result.outputs, context);
}

TEST(ChopConnectEngineTest, TailSharedWorkload) {
  // Shared substring at the tail (prefix private): Q5-style sharing.
  RunChopConnectCase(MakeSubstringSharedWorkload(3, 2, 2, 0, 1500), 21, 350,
                     "cc-tail");
}

TEST(ChopConnectEngineTest, MiddleSharedWorkload) {
  RunChopConnectCase(MakeSubstringSharedWorkload(3, 1, 2, 1, 1500), 22, 350,
                     "cc-middle");
}

TEST(ChopConnectEngineTest, HeadSharedWorkload) {
  RunChopConnectCase(MakeSubstringSharedWorkload(3, 0, 2, 2, 1500), 23, 350,
                     "cc-head");
}

TEST(ChopConnectEngineTest, MultiConnectThreeSegments) {
  // prefix(2) + shared(2) + tail(2): three segments chain per query,
  // exercising the multi-connect snapshot recursion (Fig. 11).
  RunChopConnectCase(MakeSubstringSharedWorkload(3, 2, 2, 2, 2500), 24, 400,
                     "cc-multiconnect");
}

TEST(ChopConnectEngineTest, RandomSeedsSweep) {
  for (uint64_t seed : {31u, 32u, 33u, 34u}) {
    RunChopConnectCase(MakeSubstringSharedWorkload(2, 1, 3, 1, 1800), seed,
                       300, "cc-sweep seed=" + std::to_string(seed));
  }
}

TEST(ChopConnectEngineTest, TrivialPlanEqualsNonShared) {
  Schema schema;
  SharedWorkload workload = MakeSubstringSharedWorkload(2, 1, 2, 1, 1200);
  std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
  std::vector<Event> events = WorkloadStream(workload, &schema, 41, 250);
  auto ref = ReferenceOutputs(queries, events);
  auto engine = ChopConnectEngine::Create(queries, TrivialPlan(queries));
  ASSERT_TRUE(engine.ok());
  MultiRunResult result = RunPerEvent(events, engine->get());
  ExpectMatchesReference(ref, result.outputs, "cc-trivial");
}

TEST(ChopConnectEngineTest, SnapshotExpiryExcludesDeadTags) {
  // The Fig. 10 scenario: sub1 = (A, B, C), sub2 = (D, E). A snapshot row
  // whose full-sequence START expires between the CNET (D) arrival and the
  // TRIG (E) arrival must not contribute.
  Schema schema;
  Analyzer analyzer(&schema);
  Query q;
  q.pattern = Pattern::FromNames({"A", "B", "C", "D", "E"});
  q.agg = AggregateSpec::Count();
  q.window_ms = 10000;
  std::vector<CompiledQuery> queries = {std::move(analyzer.Analyze(q)).value()};

  ChopPlan plan;
  plan.segments.push_back({*schema.FindEventType("A"),
                           *schema.FindEventType("B"),
                           *schema.FindEventType("C")});
  plan.segments.push_back(
      {*schema.FindEventType("D"), *schema.FindEventType("E")});
  plan.query_segments.push_back({0, 1});
  auto engine = ChopConnectEngine::Create(queries, plan);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->num_segments(), 2u);

  StreamBuilder b(&schema);
  b.Add("A", 0)       // a1, expires at 10000
      .Add("A", 2000)  // a2, expires at 12000
      .Add("B", 3000)
      .Add("C", 4000)   // sub1 counts: a1 -> 1, a2 -> 1
      .Add("D", 5000)   // CNET: snapshot {a1: 1, a2: 1}
      .Add("E", 10000); // TRIG: a1 expired exactly now -> only a2 counts
  MultiRunResult result =
      RunPerEvent(b.Build(), engine->get());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].output.value.AsInt64(), 1);

  // Sanity: one ms earlier both rows are live (fresh engine, E at 9999).
  auto engine2 = ChopConnectEngine::Create(queries, plan);
  StreamBuilder b2(&schema);
  b2.Add("A", 0)
      .Add("A", 2000)
      .Add("B", 3000)
      .Add("C", 4000)
      .Add("D", 5000)
      .Add("E", 9999);
  MultiRunResult result2 =
      RunPerEvent(b2.Build(), engine2->get());
  ASSERT_EQ(result2.outputs.size(), 1u);
  EXPECT_EQ(result2.outputs[0].output.value.AsInt64(), 2);
}

TEST(ChopConnectEngineTest, SnapshotTakenBeforeCnetArrivalCounts) {
  // Lemma 7: only sub1 matches constructed *before* the CNET instance
  // arrives connect to it — a C arriving after D must not count for that D.
  Schema schema;
  Analyzer analyzer(&schema);
  Query q;
  q.pattern = Pattern::FromNames({"A", "B", "C", "D", "E"});
  q.agg = AggregateSpec::Count();
  q.window_ms = 10000;
  std::vector<CompiledQuery> queries = {std::move(analyzer.Analyze(q)).value()};
  ChopPlan plan;
  plan.segments.push_back({*schema.FindEventType("A"),
                           *schema.FindEventType("B"),
                           *schema.FindEventType("C")});
  plan.segments.push_back(
      {*schema.FindEventType("D"), *schema.FindEventType("E")});
  plan.query_segments.push_back({0, 1});
  auto engine = ChopConnectEngine::Create(queries, plan);

  StreamBuilder b(&schema);
  b.Add("A", 0)
      .Add("B", 100)
      .Add("D", 200)   // CNET before any sub1 match exists
      .Add("C", 300)   // sub1 completes only now
      .Add("E", 400);  // (a,b,c,d,e) is NOT a valid sequence (c after d)
  MultiRunResult result = RunPerEvent(b.Build(), engine->get());
  ASSERT_EQ(result.outputs.size(), 1u);
  EXPECT_EQ(result.outputs[0].output.value.AsInt64(), 0);
}

TEST(ChopConnectEngineTest, RejectsBadPlans) {
  Schema schema;
  SharedWorkload workload = MakeSubstringSharedWorkload(2, 1, 2, 1, 1200);
  std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
  ChopPlan bad;  // empty
  EXPECT_FALSE(ChopConnectEngine::Create(queries, bad).ok());
  ChopPlan wrong = TrivialPlan(queries);
  wrong.query_segments[0] = {1};  // wrong segment for query 0
  EXPECT_FALSE(ChopConnectEngine::Create(queries, wrong).ok());
}

// --------------------------------------------------------------------------
// ChopConnectEngine in the benchmark's shape: k = 20 queries, private
// prefix 2, shared substring 3, private tail 2, one 2 s window, 0-2 ms gaps
// (perfbench's substr20_cc). Every private-tail START runs the Fig. 11
// multi-connect over the shared segment's snapshots.
// --------------------------------------------------------------------------

constexpr size_t kSubstrEvents = 20000;

/// The substr20 workload, optionally GROUP BY a small-domain attribute `g`.
struct SubstrCase {
  Schema schema;
  SharedWorkload workload;
  std::vector<CompiledQuery> queries;
  std::vector<Event> events;
};

std::unique_ptr<SubstrCase> MakeSubstrCase(size_t k, bool grouped,
                                           uint64_t seed) {
  auto c = std::make_unique<SubstrCase>();
  c->workload = MakeSubstringSharedWorkload(k, 2, 3, 2, 2000);
  if (grouped) {
    for (Query& q : c->workload.queries) {
      q.group_by = GroupBy{"g", kInvalidAttr};
    }
  }
  StreamConfig config =
      MakeWorkloadStreamConfig(c->workload, seed, kSubstrEvents, 0, 2);
  if (grouped) config.attrs.push_back(AttrSpec::IntUniform("g", 0, 2));
  StreamGenerator gen(config, &c->schema);
  c->events = gen.Generate();
  AssignSeqNums(&c->events);
  c->queries = Compile(&c->schema, c->workload.queries);
  return c;
}

std::unique_ptr<MultiQueryEngine> MustCreateChop(
    const std::vector<CompiledQuery>& queries, const ChopPlan& plan) {
  auto engine = ChopConnectEngine::Create(queries, plan);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

std::unique_ptr<MultiQueryEngine> MustCreateNonShare(
    const std::vector<CompiledQuery>& queries) {
  auto engine = CompositeEngine::CreateNonShare(queries);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return engine.ok() ? std::move(engine).value() : nullptr;
}

/// Expects a nonzero count among `outputs`, so a comparison is not vacuous.
void ExpectSomeMatch(const std::vector<MultiOutput>& outputs,
                     const std::string& context) {
  size_t nonzero = 0;
  for (const MultiOutput& mo : outputs) {
    if (mo.output.value.AsInt64() != 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 0u) << context << ": vacuous workload";
}

TEST(ChopConnectSubstrTest, MatchesNonSharePerEventAndPoll) {
  auto c = MakeSubstrCase(20, /*grouped=*/false, 2);
  ChopPlan plan = PlanChopConnect(c->queries);
  ASSERT_EQ(plan.segments.size(), 41u);  // 20 prefixes, 1 shared, 20 tails
  for (const auto& segs : plan.query_segments) ASSERT_EQ(segs.size(), 3u);
  auto cc = MustCreateChop(c->queries, plan);
  auto nonshare = MustCreateNonShare(c->queries);
  ASSERT_TRUE(cc && nonshare);

  MultiRunResult ref = RunPerEvent(c->events, nonshare.get());
  MultiRunResult got = RunPerEvent(c->events, cc.get());
  ExpectSomeMatch(ref.outputs, "substr20");
  ExpectMultiOutputsEqual(ref.outputs, got.outputs, "substr20 per-event");

  // Poll at the last arrival, then half a window later, as rows expire.
  const Timestamp last = c->events.back().ts();
  for (Timestamp now : {last, last + 1000, last + 1999}) {
    ExpectMultiOutputsEqual(nonshare->Poll(now), cc->Poll(now),
                            "substr20 poll@" + std::to_string(now));
  }
}

TEST(ChopConnectSubstrTest, CheckpointRestoreMidStream) {
  auto c = MakeSubstrCase(20, /*grouped=*/false, 3);
  ChopPlan plan = PlanChopConnect(c->queries);
  auto live = MustCreateChop(c->queries, plan);
  auto revived = MustCreateChop(c->queries, plan);
  ASSERT_TRUE(live && revived);
  const size_t half = c->events.size() / 2;
  std::vector<Event> head(c->events.begin(),
                          c->events.begin() + static_cast<ptrdiff_t>(half));
  std::vector<Event> tail(c->events.begin() + static_cast<ptrdiff_t>(half),
                          c->events.end());
  RunPerEvent(head, live.get());

  ckpt::Writer writer;
  ASSERT_TRUE(live->Checkpoint(&writer).ok());
  ckpt::Reader reader(writer.buffer());
  Status restored = revived->Restore(&reader);
  ASSERT_TRUE(restored.ok()) << restored.ToString();
  // The restored state re-serializes to the same bytes.
  ckpt::Writer again;
  ASSERT_TRUE(revived->Checkpoint(&again).ok());
  EXPECT_EQ(writer.buffer(), again.buffer());

  MultiRunResult ref = RunPerEvent(tail, live.get());
  MultiRunResult got = RunPerEvent(tail, revived.get());
  ExpectSomeMatch(ref.outputs, "substr20 resumed");
  ExpectMultiOutputsEqual(ref.outputs, got.outputs, "substr20 resumed");
  ExpectStatsEqual(live->stats(), revived->stats(), "substr20 resumed");
}

/// Rewrites an ungrouped Chop-Connect payload (format as written by
/// ChopConnectEngine::Checkpoint) so that every snapshot table carries one
/// zero count beyond each end its tags allow: below its first tag (a tag
/// that had expired when the table was made) and past its last (a START
/// with no match yet). Restore admits such tables, though the engine trims
/// the tables it makes to their nonzero ends. Counts the cells added.
std::string PadTablesWithZeroCounts(const std::string& payload,
                                    const ChopPlan& plan, size_t* added) {
  // Hook shapes as the engine registers them: query order, junction order.
  const size_t n_segs = plan.segments.size();
  std::vector<std::vector<bool>> suffix(n_segs);
  std::vector<std::vector<size_t>> first_seg(n_segs);
  for (const std::vector<size_t>& segs : plan.query_segments) {
    for (size_t j = 1; j < segs.size(); ++j) {
      suffix[segs[j]].push_back(j + 1 == segs.size());
      first_seg[segs[j]].push_back(segs[0]);
    }
  }
  struct Table {
    uint64_t first = 0;
    std::vector<uint64_t> cells;
  };
  struct Seg {
    uint64_t next_id = 0;
    std::vector<int64_t> exps;
    std::vector<uint64_t> counts;
    std::vector<std::vector<Table>> hooks;
  };
  ckpt::Reader r(payload);
  EngineStats stats;
  int64_t next_expiry = 0;
  uint64_t n = 0;
  EXPECT_TRUE(ckpt::ReadStats(&r, &stats).ok());
  EXPECT_TRUE(r.ReadI64(&next_expiry, "").ok());
  EXPECT_TRUE(r.ReadU64(&n, "").ok());
  EXPECT_EQ(n, n_segs);
  std::vector<Seg> segs(n_segs);
  for (size_t s = 0; s < n_segs; ++s) {
    Seg& seg = segs[s];
    EXPECT_TRUE(r.ReadU64(&seg.next_id, "").ok());
    EXPECT_TRUE(r.ReadU64(&n, "").ok());
    seg.exps.resize(n);
    for (int64_t& exp : seg.exps) EXPECT_TRUE(r.ReadI64(&exp, "").ok());
    seg.counts.resize(n * plan.segments[s].size());
    for (uint64_t& count : seg.counts) EXPECT_TRUE(r.ReadU64(&count, "").ok());
    seg.hooks.assign(suffix[s].size(), std::vector<Table>(n));
    for (std::vector<Table>& tables : seg.hooks) {
      for (Table& table : tables) {
        uint64_t size = 0;
        EXPECT_TRUE(r.ReadU64(&table.first, "").ok());
        EXPECT_TRUE(r.ReadU64(&size, "").ok());
        table.cells.resize(size);
        for (uint64_t& cell : table.cells) {
          EXPECT_TRUE(r.ReadU64(&cell, "").ok());
        }
      }
    }
  }
  EXPECT_TRUE(r.ExpectEnd().ok());

  ckpt::Writer w;
  ckpt::WriteStats(&w, stats);
  w.WriteI64(next_expiry);
  w.WriteU64(n_segs);
  for (size_t s = 0; s < n_segs; ++s) {
    Seg& seg = segs[s];
    w.WriteU64(seg.next_id);
    w.WriteU64(seg.exps.size());
    for (int64_t exp : seg.exps) w.WriteI64(exp);
    for (uint64_t count : seg.counts) w.WriteU64(count);
    for (size_t h = 0; h < seg.hooks.size(); ++h) {
      const uint64_t next_id = segs[first_seg[s][h]].next_id;
      for (Table& table : seg.hooks[h]) {
        // A zero count: 0 past the end; at the front, a suffix table
        // repeats its first sum.
        if (table.first + table.cells.size() < next_id) {
          table.cells.push_back(0);
          ++*added;
        }
        if (table.first > 0) {
          const uint64_t front =
              suffix[s][h] && !table.cells.empty() ? table.cells.front() : 0;
          table.cells.insert(table.cells.begin(), front);
          --table.first;
          ++*added;
        }
        w.WriteU64(table.first);
        w.WriteU64(table.cells.size());
        for (uint64_t cell : table.cells) w.WriteU64(cell);
      }
    }
  }
  return w.buffer();
}

TEST(ChopConnectSubstrTest, ConnectOverTablesWithZeroCountEnds) {
  auto c = MakeSubstrCase(3, /*grouped=*/false, 5);
  ChopPlan plan = PlanChopConnect(c->queries);
  for (const auto& segs : plan.query_segments) ASSERT_EQ(segs.size(), 3u);
  auto live = MustCreateChop(c->queries, plan);
  auto padded = MustCreateChop(c->queries, plan);
  auto nonshare = MustCreateNonShare(c->queries);
  ASSERT_TRUE(live && padded && nonshare);
  const size_t half = c->events.size() / 2;
  std::vector<Event> head(c->events.begin(),
                          c->events.begin() + static_cast<ptrdiff_t>(half));
  std::vector<Event> tail(c->events.begin() + static_cast<ptrdiff_t>(half),
                          c->events.end());
  RunPerEvent(head, live.get());
  RunPerEvent(head, nonshare.get());

  ckpt::Writer writer;
  ASSERT_TRUE(live->Checkpoint(&writer).ok());
  size_t added = 0;
  const std::string bytes =
      PadTablesWithZeroCounts(writer.buffer(), plan, &added);
  ASSERT_FALSE(HasFailure());
  EXPECT_GT(added, 100u);
  ckpt::Reader reader(bytes);
  // Zero counts are no objects, so the live-object check still holds.
  Status restored = padded->Restore(&reader);
  ASSERT_TRUE(restored.ok()) << restored.ToString();

  // Every connect after the restore reads the padded count tables of the
  // shared segment; every trigger reads the padded suffix tables.
  MultiRunResult ref = RunPerEvent(tail, nonshare.get());
  MultiRunResult got = RunPerEvent(tail, padded.get());
  ExpectSomeMatch(ref.outputs, "zero-ended tables");
  ExpectMultiOutputsEqual(ref.outputs, got.outputs, "zero-ended tables");
  RunPerEvent(tail, live.get());
  EXPECT_EQ(live->stats().objects.current(), padded->stats().objects.current());
  const Timestamp last = c->events.back().ts();
  for (Timestamp now : {last, last + 1000}) {
    ExpectMultiOutputsEqual(nonshare->Poll(now), padded->Poll(now),
                            "zero-ended tables poll@" + std::to_string(now));
  }
}

TEST(ChopConnectSubstrTest, GroupedMatchesNonShareAndShards) {
  auto c = MakeSubstrCase(20, /*grouped=*/true, 4);
  ChopPlan plan = PlanChopConnect(c->queries);
  auto cc = MustCreateChop(c->queries, plan);
  auto nonshare = MustCreateNonShare(c->queries);
  ASSERT_TRUE(cc && nonshare);
  MultiRunResult ref = RunPerEvent(c->events, nonshare.get());
  MultiRunResult got = RunPerEvent(c->events, cc.get());
  ExpectSomeMatch(ref.outputs, "grouped substr20");
  ExpectMultiOutputsEqual(ref.outputs, got.outputs, "grouped substr20");

  exec::MultiEngineFactory factory =
      [&]() -> Result<std::unique_ptr<MultiQueryEngine>> {
    ASEQ_ASSIGN_OR_RETURN(auto e, ChopConnectEngine::Create(c->queries, plan));
    return std::unique_ptr<MultiQueryEngine>(std::move(e));
  };
  RunOptions serial_options;
  auto serial = exec::MakeMultiPolicy(c->queries, factory, serial_options);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  MultiRunResult serial_run = (*serial)->RunEvents(c->events);
  RunOptions options;
  options.num_shards = 2;
  std::string reason;
  auto sharded = exec::MakeMultiPolicy(c->queries, factory, options, &reason);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  ASSERT_EQ((*sharded)->num_shards(), 2u) << reason;
  MultiRunResult sharded_run = (*sharded)->RunEvents(c->events);
  ExpectMultiOutputsEqual(ref.outputs, serial_run.outputs,
                          "grouped substr20 serial policy");
  ExpectMultiOutputsEqual(ref.outputs, sharded_run.outputs,
                          "grouped substr20 --shards 2");
  ExpectStatsEqual((*serial)->stats(), (*sharded)->stats(),
                   "grouped substr20 --shards 2");
}

/// Chops every query of `queries` at random cut points into at least
/// `min_segments` segments; equal type runs share one plan segment.
ChopPlan RandomChop(const std::vector<CompiledQuery>& queries,
                    size_t min_segments, Rng* rng) {
  ChopPlan plan;
  for (const CompiledQuery& q : queries) {
    const std::vector<EventTypeId>& types = q.positive_types();
    std::vector<bool> cut(types.size(), false);  // cut before position i
    size_t n_cuts = 0;
    while (n_cuts + 1 < min_segments) {
      const size_t at = 1 + rng->NextUInt(types.size() - 1);
      if (!cut[at]) {
        cut[at] = true;
        ++n_cuts;
      }
    }
    for (size_t at = 1; at < types.size(); ++at) {
      if (rng->NextUInt(3) == 0) cut[at] = true;
    }
    std::vector<size_t> segs;
    std::vector<EventTypeId> run;
    for (size_t i = 0; i <= types.size(); ++i) {
      if (i > 0 && (i == types.size() || cut[i])) {
        auto it = std::find(plan.segments.begin(), plan.segments.end(), run);
        segs.push_back(static_cast<size_t>(it - plan.segments.begin()));
        if (it == plan.segments.end()) plan.segments.push_back(run);
        run.clear();
      }
      if (i < types.size()) run.push_back(types[i]);
    }
    plan.query_segments.push_back(std::move(segs));
  }
  return plan;
}

TEST(ChopConnectSubstrTest, RandomChopIntoFourOrMoreSegments) {
  auto c = MakeSubstrCase(6, /*grouped=*/false, 5);
  auto nonshare = MustCreateNonShare(c->queries);
  ASSERT_TRUE(nonshare);
  MultiRunResult ref = RunPerEvent(c->events, nonshare.get());
  ExpectSomeMatch(ref.outputs, "random chop");
  Rng rng(17);
  for (int trial = 0; trial < 4; ++trial) {
    ChopPlan plan = RandomChop(c->queries, 4, &rng);
    const std::string context = "random chop #" + std::to_string(trial) +
                                ": " + plan.ToString(c->schema);
    for (const auto& segs : plan.query_segments) {
      ASSERT_GE(segs.size(), 4u) << context;
    }
    auto cc = MustCreateChop(c->queries, plan);
    ASSERT_TRUE(cc) << context;
    MultiRunResult got = RunPerEvent(c->events, cc.get());
    ExpectMultiOutputsEqual(ref.outputs, got.outputs, context);
  }
}

TEST(ChopConnectSubstrTest, RestoreAcrossTiedExpiries) {
  // Ungrouped, three segments per query: P_i | S1 S2 | T_i. Each round
  // starts the three prefix segments at one timestamp and the three tail
  // segments at another, and the 28 ms window is four rounds, so the tied
  // entries expire together, exactly as the next round's ties arrive. A
  // checkpoint at every offset, restored into a fresh engine, must resume
  // as the uninterrupted run does.
  Schema schema;
  std::vector<CompiledQuery> queries;
  for (const char* i : {"0", "1", "2"}) {
    queries.push_back(MustCompile(
        &schema, std::string("PATTERN SEQ(P") + i + ", S1, S2, T" + i +
                     ") AGG COUNT WITHIN 28ms"));
  }
  ChopPlan plan = PlanChopConnect(queries);
  ASSERT_EQ(plan.segments.size(), 7u);
  StreamBuilder b(&schema);
  for (Timestamp t = 0; t < 140; t += 7) {
    b.Add("P0", t).Add("P1", t).Add("P2", t);
    b.Add("S1", t + 1).Add("S2", t + 2);
    b.Add("T0", t + 3).Add("T1", t + 3).Add("T2", t + 3);
  }
  const std::vector<Event> events = b.Build();
  for (size_t at = 0; at <= events.size(); ++at) {
    const std::string context = "restore at offset " + std::to_string(at);
    auto live = MustCreateChop(queries, plan);
    auto revived = MustCreateChop(queries, plan);
    ASSERT_TRUE(live && revived);
    const auto cut = events.begin() + static_cast<ptrdiff_t>(at);
    RunPerEvent(std::vector<Event>(events.begin(), cut), live.get());
    ckpt::Writer writer;
    ASSERT_TRUE(live->Checkpoint(&writer).ok());
    ckpt::Reader reader(writer.buffer());
    Status restored = revived->Restore(&reader);
    ASSERT_TRUE(restored.ok()) << context << ": " << restored.ToString();

    const std::vector<Event> tail(cut, events.end());
    MultiRunResult ref = RunPerEvent(tail, live.get());
    MultiRunResult got = RunPerEvent(tail, revived.get());
    if (at == 0) ExpectSomeMatch(ref.outputs, context);
    ExpectMultiOutputsEqual(ref.outputs, got.outputs, context);
    ExpectStatsEqual(live->stats(), revived->stats(), context);
    ckpt::Writer live_end;
    ckpt::Writer revived_end;
    ASSERT_TRUE(live->Checkpoint(&live_end).ok());
    ASSERT_TRUE(revived->Checkpoint(&revived_end).ok());
    EXPECT_EQ(live_end.buffer(), revived_end.buffer()) << context;
  }
}

TEST(ChopConnectSubstrTest, CountersArePinned) {
  // The counters a Chop-Connect run reports after a fixed 3000-event
  // substr20 stream, ungrouped and GROUP BY. work_units counts the
  // engine's connects, updates and reads cell by cell, so a kernel rework
  // that keeps them is doing the same work.
  struct Pin {
    const char* name;
    bool grouped;
    uint64_t outputs;
    uint64_t work_units;
    int64_t objects_current;
    int64_t objects_peak;
  };
  const Pin pins[] = {
      {"cc", false, 697, 144463, 20398, 20407},
      {"cc grouped", true, 701, 26001, 5560, 5698},
  };
  for (const Pin& pin : pins) {
    Schema schema;
    SharedWorkload workload = MakeSubstringSharedWorkload(20, 2, 3, 2, 2000);
    if (pin.grouped) {
      for (Query& q : workload.queries) q.group_by = GroupBy{"g", kInvalidAttr};
    }
    StreamConfig config = MakeWorkloadStreamConfig(workload, 11, 3000, 0, 2);
    if (pin.grouped) config.attrs.push_back(AttrSpec::IntUniform("g", 0, 2));
    StreamGenerator gen(config, &schema);
    std::vector<Event> events = gen.Generate();
    AssignSeqNums(&events);
    std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
    auto cc = MustCreateChop(queries, PlanChopConnect(queries));
    ASSERT_TRUE(cc) << pin.name;
    RunPerEvent(events, cc.get());
    const EngineStats& stats = cc->stats();
    EXPECT_EQ(stats.outputs, pin.outputs) << pin.name;
    EXPECT_EQ(stats.work_units, pin.work_units) << pin.name;
    EXPECT_EQ(stats.objects.current(), pin.objects_current) << pin.name;
    EXPECT_EQ(stats.objects.peak(), pin.objects_peak) << pin.name;
  }
}

// --------------------------------------------------------------------------
// PreTree and Chop-Connect: one workload shape, one snapshot format
// --------------------------------------------------------------------------

/// An engine's verdict on a workload: OK (empty `message`), or the status
/// code and message text, the text of query `query` appended when >= 0.
struct Verdict {
  StatusCode code = StatusCode::kOk;
  std::string message;
  int query = -1;
};

void ExpectVerdict(const Status& status, const Verdict& want,
                   const std::vector<CompiledQuery>& queries,
                   const std::string& context) {
  if (want.message.empty()) {
    EXPECT_TRUE(status.ok()) << context << ": " << status.ToString();
    return;
  }
  const std::string text =
      want.message +
      (want.query >= 0 ? queries[static_cast<size_t>(want.query)].ToString()
                       : "");
  EXPECT_EQ(status.code(), want.code) << context << ": " << status.ToString();
  EXPECT_EQ(status.message(), text) << context;
}

TEST(SharedCountShapeTest, EnginesAndHybridAgreeOnEachShape) {
  constexpr StatusCode kUnsup = StatusCode::kUnsupported;
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;
  const std::string kPreCount =
      "PreTree sharing supports COUNT over positive-only patterns: ";
  const std::string kCcCount =
      "Chop-Connect supports COUNT over positive-only patterns: ";
  const std::string kPrePart =
      "PreTree sharing supports partitioning only as GROUP BY one attribute "
      "shared by every workload query: ";
  const std::string kCcPart =
      "Chop-Connect supports partitioning only as GROUP BY one attribute "
      "shared by every workload query: ";
  const Verdict kPreWindow{
      kInvalid, "PreTree workload queries must share one positive window"};
  const Verdict kCcWindow{
      kInvalid, "Chop-Connect workload queries must share one positive window"};
  struct Shape {
    const char* name;
    std::vector<std::string> queries;
    Verdict pretree;
    Verdict cc;
  };
  const std::vector<Shape> shapes = {
      {"plain",
       {"PATTERN SEQ(A, B, C) WITHIN 1s", "PATTERN SEQ(A, B, D) WITHIN 1s"},
       {},
       {}},
      {"group by",
       {"PATTERN SEQ(A, B, C) GROUP BY g WITHIN 1s",
        "PATTERN SEQ(A, B, D) GROUP BY g WITHIN 1s"},
       {},
       {}},
      {"negation",
       {"PATTERN SEQ(A, !X, C) WITHIN 1s", "PATTERN SEQ(A, B, D) WITHIN 1s"},
       {kUnsup, kPreCount, 0},
       {kUnsup, kCcCount, 0}},
      {"no window",
       {"PATTERN SEQ(A, B, C)", "PATTERN SEQ(A, B, D)"},
       kPreWindow,
       kCcWindow},
      {"mixed windows",
       {"PATTERN SEQ(A, B, C) WITHIN 1s", "PATTERN SEQ(A, B, D) WITHIN 2s"},
       kPreWindow,
       kCcWindow},
      {"sum",
       {"PATTERN SEQ(A, B, C) AGG SUM(C.v) WITHIN 1s",
        "PATTERN SEQ(A, B, D) WITHIN 1s"},
       {kUnsup, kPreCount, 0},
       {kUnsup, kCcCount, 0}},
      {"where",
       {"PATTERN SEQ(A, B, C) WITHIN 1s",
        "PATTERN SEQ(A, B, D) WHERE A.x > 5 WITHIN 1s"},
       {kUnsup, "PreTree sharing does not support WHERE: ", 1},
       {kUnsup, "Chop-Connect does not support WHERE: ", 1}},
      {"join",
       {"PATTERN SEQ(A, B, C) WHERE A.x < B.x WITHIN 1s",
        "PATTERN SEQ(A, B, D) WITHIN 1s"},
       {kUnsup, kPreCount, 0},
       {kUnsup, kCcCount, 0}},
      {"equivalence only",
       {"PATTERN SEQ(A, B, C) WHERE A.x = B.x = C.x WITHIN 1s",
        "PATTERN SEQ(A, B, D) WHERE A.x = B.x = D.x WITHIN 1s"},
       {kUnsup, kPrePart, 0},
       {kUnsup, kCcPart, 0}},
      {"two-part key",
       {"PATTERN SEQ(A, B, C) WHERE A.x = B.x = C.x GROUP BY g WITHIN 1s",
        "PATTERN SEQ(A, B, D) GROUP BY g WITHIN 1s"},
       {kUnsup, kPrePart, 0},
       {kUnsup, kCcPart, 0}},
      {"duplicate types",
       {"PATTERN SEQ(A, B, A) WITHIN 1s", "PATTERN SEQ(A, B, D) WITHIN 1s"},
       {},
       {kUnsup, "Chop-Connect requires distinct event types per pattern: ",
        0}},
      {"mixed grouping",
       {"PATTERN SEQ(A, B, C) GROUP BY g WITHIN 1s",
        "PATTERN SEQ(A, B, D) WITHIN 1s"},
       {kUnsup, "PreTree workloads must be uniformly grouped or ungrouped: ",
        1},
       {kUnsup,
        "Chop-Connect workloads must be uniformly grouped or ungrouped: ", 1}},
  };
  for (const Shape& shape : shapes) {
    Schema schema;
    std::vector<CompiledQuery> queries;
    for (const std::string& text : shape.queries) {
      queries.push_back(MustCompile(&schema, text));
    }
    ASSERT_FALSE(HasFailure()) << shape.name;
    const Status pretree = PreTreeEngine::Create(queries).status();
    const Status cc =
        ChopConnectEngine::Create(queries, TrivialPlan(queries)).status();
    ExpectVerdict(pretree, shape.pretree, queries,
                  std::string(shape.name) + " pretree");
    ExpectVerdict(cc, shape.cc, queries, std::string(shape.name) + " cc");

    // Both queries share a START type, so Hybrid shares them exactly when
    // the shape is one both sharing engines run.
    auto hybrid = CompositeEngine::CreateHybrid(queries);
    ASSERT_TRUE(hybrid.ok()) << shape.name << ": "
                             << hybrid.status().ToString();
    const bool shareable = pretree.ok() && cc.ok();
    for (const std::string& route : (*hybrid)->routing()) {
      const bool shared = route.rfind("PreTree(", 0) == 0 ||
                          route.rfind("ChopConnect(", 0) == 0;
      EXPECT_EQ(shared, shareable) << shape.name << ": routed to " << route;
    }
  }
}

/// FNV-1a of the payload `engine` checkpoints after `events`.
uint64_t SnapshotHash(MultiQueryEngine* engine,
                      const std::vector<Event>& events) {
  RunPerEvent(events, engine);
  ckpt::Writer writer;
  EXPECT_TRUE(engine->Checkpoint(&writer).ok());
  return ckpt::Fnv1a64(writer.buffer());
}

TEST(SharedCountShapeTest, SnapshotBytesArePinned) {
  // Format v4 payloads of both sharing engines, ungrouped and GROUP BY,
  // after a fixed generated stream that leaves live state behind. A
  // changed hash means a changed snapshot format.
  struct Pin {
    const char* name;
    bool cc;
    bool grouped;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"pretree", false, false, 0xa89e104583f2faacull},
      {"pretree grouped", false, true, 0xe693cc518304b90full},
      {"cc", true, false, 0x20d2403eb44d61a6ull},
      {"cc grouped", true, true, 0x08286f941a15ebd0ull},
  };
  for (const Pin& pin : pins) {
    Schema schema;
    // PreTree: one shared prefix; Chop-Connect: a shared middle substring.
    SharedWorkload workload =
        MakeSubstringSharedWorkload(4, pin.cc ? 2 : 0, 3, 2, 2000);
    if (pin.grouped) {
      for (Query& q : workload.queries) q.group_by = GroupBy{"g", kInvalidAttr};
    }
    StreamConfig config = MakeWorkloadStreamConfig(workload, 7, 3000, 0, 2);
    if (pin.grouped) config.attrs.push_back(AttrSpec::IntUniform("g", 0, 3));
    StreamGenerator gen(config, &schema);
    std::vector<Event> events = gen.Generate();
    AssignSeqNums(&events);
    std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
    std::unique_ptr<MultiQueryEngine> engine;
    if (pin.cc) {
      engine = MustCreateChop(queries, PlanChopConnect(queries));
    } else {
      auto pretree = PreTreeEngine::Create(queries);
      ASSERT_TRUE(pretree.ok()) << pretree.status().ToString();
      engine = std::move(pretree).value();
    }
    ASSERT_TRUE(engine) << pin.name;
    EXPECT_EQ(SnapshotHash(engine.get(), events), pin.hash) << pin.name;
  }
}

// --------------------------------------------------------------------------
// EcubeEngine
// --------------------------------------------------------------------------

void RunEcubeCase(const SharedWorkload& workload, uint64_t seed, size_t n,
                  const std::string& context) {
  Schema schema;
  std::vector<CompiledQuery> queries = Compile(&schema, workload.queries);
  std::vector<Event> events = WorkloadStream(workload, &schema, seed, n);
  auto ref = ReferenceOutputs(queries, events);
  std::vector<EventTypeId> shared;
  for (const std::string& name : workload.shared_types) {
    shared.push_back(*schema.FindEventType(name));
  }
  auto engine = EcubeEngine::Create(queries, shared);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  MultiRunResult result = RunPerEvent(events, engine->get());
  ExpectMatchesReference(ref, result.outputs, context);
}

TEST(EcubeEngineTest, TailSharedWorkload) {
  RunEcubeCase(MakeSubstringSharedWorkload(3, 2, 2, 0, 1500), 51, 300,
               "ecube-tail");
}

TEST(EcubeEngineTest, MiddleSharedWorkload) {
  RunEcubeCase(MakeSubstringSharedWorkload(3, 1, 2, 1, 1500), 52, 300,
               "ecube-middle");
}

TEST(EcubeEngineTest, HeadSharedWorkload) {
  RunEcubeCase(MakeSubstringSharedWorkload(3, 0, 2, 2, 1500), 53, 300,
               "ecube-head");
}

TEST(EcubeEngineTest, SingleTypeShared) {
  RunEcubeCase(MakeSubstringSharedWorkload(2, 1, 1, 1, 1200), 54, 250,
               "ecube-single");
}

TEST(EcubeEngineTest, RejectsUnsupported) {
  Schema schema;
  std::vector<CompiledQuery> queries;
  queries.push_back(MustCompile(&schema, "PATTERN SEQ(A, !X, B) WITHIN 1s"));
  EventTypeId a = *schema.FindEventType("A");
  EXPECT_FALSE(EcubeEngine::Create(queries, {a}).ok());
  std::vector<CompiledQuery> no_sub;
  no_sub.push_back(MustCompile(&schema, "PATTERN SEQ(C, D) WITHIN 1s"));
  EXPECT_FALSE(EcubeEngine::Create(no_sub, {a}).ok());
}

}  // namespace
}  // namespace aseq
