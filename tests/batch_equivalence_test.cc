// Batched-vs-per-event equivalence: the contract of the batched execution
// core is that OnBatch produces *byte-identical* output sequences and
// identical engine stats (modulo the batch counters themselves) to the
// per-event reference path, for every engine and every batch size —
// including sizes that straddle window-expiry boundaries mid-batch.
//
// Every engine runs fresh per configuration: the per-event reference via
// testing_util::RunPerEvent, then one batched run per size in
// {1, 3, 7, 64, 1024} via exec::RunSerial. Any divergence in an output's
// (ts, seq, group, value) or in (events_processed, outputs, work_units,
// objects) is a bug in a batched override's hoisting logic.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/ecube_engine.h"
#include "baseline/stack_engine.h"
#include "common/rng.h"
#include "engine/change_detector.h"
#include "engine/reordering_engine.h"
#include "engine/runtime.h"
#include "exec/serial_executor.h"
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

using testing_util::ExpectMultiOutputsEqual;
using testing_util::ExpectOutputsEqual;
using testing_util::ExpectStatsEqual;
using testing_util::MakeStock;
using testing_util::MustCompile;
using testing_util::MustCreateAseq;
using testing_util::RunPerEvent;

const size_t kBatchSizes[] = {1, 3, 7, 64, 1024};

// ---------------------------------------------------------------------------
// The equivalence check
// ---------------------------------------------------------------------------

/// Runs `factory`-built engines over `events` per-event (reference) and
/// batched at every size, comparing outputs and stats.
void CheckSingle(const std::function<std::unique_ptr<QueryEngine>()>& factory,
                 const std::vector<Event>& events, const std::string& label) {
  auto ref_engine = factory();
  RunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";
  for (size_t batch_size : kBatchSizes) {
    const std::string context =
        label + " @batch=" + std::to_string(batch_size);
    auto engine = factory();
    RunOptions options;
    options.batch_size = batch_size;
    RunResult got = exec::RunSerial(options, events, engine.get());
    EXPECT_EQ(got.batch_size, batch_size) << context;
    ExpectOutputsEqual(ref.outputs, got.outputs, context);
    ExpectStatsEqual(ref_engine->stats(), engine->stats(), context);
  }
}

/// Multi-query counterpart of CheckSingle.
void CheckMulti(
    const std::function<std::unique_ptr<MultiQueryEngine>()>& factory,
    const std::vector<Event>& events, const std::string& label) {
  auto ref_engine = factory();
  MultiRunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";
  for (size_t batch_size : kBatchSizes) {
    const std::string context =
        label + " @batch=" + std::to_string(batch_size);
    auto engine = factory();
    RunOptions options;
    options.batch_size = batch_size;
    MultiRunResult got = exec::RunSerial(options, events, engine.get());
    ExpectMultiOutputsEqual(ref.outputs, got.outputs, context);
    ExpectStatsEqual(ref_engine->stats(), engine->stats(), context);
  }
}

// ---------------------------------------------------------------------------
// Single-query engines
// ---------------------------------------------------------------------------

TEST(BatchEquivalenceTest, AseqDpcUnbounded) {
  auto c = MakeStock(21, 1200);
  CompiledQuery cq =
      MustCompile(&c->schema, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT");
  CheckSingle([&] { return MustCreateAseq(cq); }, c->events, "aseq-dpc");
}

TEST(BatchEquivalenceTest, AseqSemWindowed) {
  auto c = MakeStock(22, 2500);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms");
  CheckSingle([&] { return MustCreateAseq(cq); }, c->events, "aseq-sem");
}

TEST(BatchEquivalenceTest, AseqSemNegation) {
  auto c = MakeStock(23, 2500);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT WITHIN 800ms");
  CheckSingle([&] { return MustCreateAseq(cq); }, c->events,
              "aseq-sem-negation");
}

TEST(BatchEquivalenceTest, AseqSemSumAggregate) {
  auto c = MakeStock(24, 2500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX, AMAT) AGG SUM(IPIX.volume) WITHIN 800ms");
  CheckSingle([&] { return MustCreateAseq(cq); }, c->events, "aseq-sem-sum");
}

TEST(BatchEquivalenceTest, HpcGroupBy) {
  auto c = MakeStock(25, 2500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  CheckSingle([&] { return MustCreateAseq(cq); }, c->events, "hpc-groupby");
}

TEST(BatchEquivalenceTest, HpcEquivalencePredicate) {
  auto c = MakeStock(26, 2500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX, AMAT) WHERE DELL.traderId = IPIX.traderId = "
      "AMAT.traderId AGG COUNT WITHIN 800ms");
  CheckSingle([&] { return MustCreateAseq(cq); }, c->events, "hpc-equiv");
}

TEST(BatchEquivalenceTest, HpcEquivalenceWithNegation) {
  auto c = MakeStock(27, 2500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, !QQQ, AMAT) WHERE DELL.traderId = QQQ.traderId = "
      "AMAT.traderId AGG COUNT WITHIN 800ms");
  CheckSingle([&] { return MustCreateAseq(cq); }, c->events,
              "hpc-equiv-negation");
}

TEST(BatchEquivalenceTest, StackEngineJoinPredicate) {
  auto c = MakeStock(28, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price AGG COUNT "
      "WITHIN 800ms");
  CheckSingle([&] { return std::make_unique<StackEngine>(cq); }, c->events,
              "stack-join");
}

TEST(BatchEquivalenceTest, StackEngineNegation) {
  auto c = MakeStock(29, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT WITHIN 800ms");
  CheckSingle([&] { return std::make_unique<StackEngine>(cq); }, c->events,
              "stack-negation");
}

TEST(BatchEquivalenceTest, ChangeDetectingEngine) {
  auto c = MakeStock(30, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 500ms");
  CheckSingle(
      [&] {
        return std::make_unique<ChangeDetectingEngine>(MustCreateAseq(cq));
      },
      c->events, "change-detector");
}

// ---------------------------------------------------------------------------
// Reordering adapters over out-of-order input
// ---------------------------------------------------------------------------

/// Displaces events by disjoint two-apart swaps: bounded disorder that a
/// 200ms K-slack absorbs without drops.
std::vector<Event> Shuffle(std::vector<Event> events, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i + 3 < events.size(); i += 3) {
    if (rng.NextBool(0.5)) std::swap(events[i], events[i + 2]);
  }
  AssignSeqNums(&events);
  return events;
}

TEST(BatchEquivalenceTest, ReorderingEngineOutOfOrder) {
  auto c = MakeStock(31, 1500);
  std::vector<Event> shuffled = Shuffle(c->events, 99);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms");

  auto factory = [&] {
    return std::make_unique<ReorderingEngine>(MustCreateAseq(cq),
                                              /*slack_ms=*/200);
  };
  // Inline CheckSingle so both paths can also drain via Finish() — the
  // outputs produced after end-of-stream must match too.
  auto ref_engine = factory();
  RunResult ref = RunPerEvent(shuffled, ref_engine.get());
  ref_engine->Finish(&ref.outputs);
  EXPECT_EQ(ref_engine->dropped_events(), 0u);
  ASSERT_GT(ref.outputs.size(), 0u);
  for (size_t batch_size : kBatchSizes) {
    const std::string context =
        "reordering @batch=" + std::to_string(batch_size);
    auto engine = factory();
    RunOptions options;
    options.batch_size = batch_size;
    RunResult got = exec::RunSerial(options, shuffled, engine.get());
    engine->Finish(&got.outputs);
    ExpectOutputsEqual(ref.outputs, got.outputs, context);
    ExpectStatsEqual(ref_engine->stats(), engine->stats(), context);
  }
}

TEST(BatchEquivalenceTest, ReorderingMultiEngineOutOfOrder) {
  Schema schema;
  SharedWorkload workload = MakePrefixSharedWorkload(3, 2, 4, 2000);
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> queries;
  for (const Query& q : workload.queries) {
    auto cq = analyzer.Analyze(q);
    ASSERT_TRUE(cq.ok()) << cq.status().ToString();
    queries.push_back(std::move(cq).value());
  }
  StreamConfig config = MakeWorkloadStreamConfig(workload, 32, 1200, 0, 50);
  StreamGenerator gen(config, &schema);
  std::vector<Event> events = Shuffle(gen.Generate(), 7);

  auto factory = [&]() -> std::unique_ptr<MultiQueryEngine> {
    auto inner = CompositeEngine::CreateNonShare(queries);
    EXPECT_TRUE(inner.ok()) << inner.status().ToString();
    return std::make_unique<ReorderingEngineT<MultiQueryEngine>>(
        std::move(inner).value(), /*slack_ms=*/300);
  };
  auto ref_engine = factory();
  MultiRunResult ref = RunPerEvent(events, ref_engine.get());
  static_cast<ReorderingEngineT<MultiQueryEngine>*>(ref_engine.get())
      ->Finish(&ref.outputs);
  ASSERT_GT(ref.outputs.size(), 0u);
  for (size_t batch_size : kBatchSizes) {
    const std::string context =
        "reordering-multi @batch=" + std::to_string(batch_size);
    auto engine = factory();
    RunOptions options;
    options.batch_size = batch_size;
    MultiRunResult got = exec::RunSerial(options, events, engine.get());
    static_cast<ReorderingEngineT<MultiQueryEngine>*>(engine.get())
        ->Finish(&got.outputs);
    ExpectMultiOutputsEqual(ref.outputs, got.outputs, context);
    ExpectStatsEqual(ref_engine->stats(), engine->stats(), context);
  }
}

// ---------------------------------------------------------------------------
// Multi-query engines
// ---------------------------------------------------------------------------

struct MultiCase {
  Schema schema;
  SharedWorkload workload;
  std::vector<CompiledQuery> queries;
  std::vector<Event> events;
};

std::unique_ptr<MultiCase> MakeMulti(SharedWorkload workload, uint64_t seed,
                                     size_t n) {
  auto c = std::make_unique<MultiCase>();
  c->workload = std::move(workload);
  Analyzer analyzer(&c->schema);
  for (const Query& q : c->workload.queries) {
    auto cq = analyzer.Analyze(q);
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    c->queries.push_back(std::move(cq).value());
  }
  StreamConfig config =
      MakeWorkloadStreamConfig(c->workload, seed, n, 0, 50);
  StreamGenerator gen(config, &c->schema);
  c->events = gen.Generate();
  AssignSeqNums(&c->events);
  return c;
}

TEST(BatchEquivalenceTest, PreTreeEngine) {
  auto c = MakeMulti(MakePrefixSharedWorkload(3, 2, 4, 2000), 41, 1500);
  CheckMulti(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = PreTreeEngine::Create(c->queries);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "pretree");
}

TEST(BatchEquivalenceTest, ChopConnectEngine) {
  auto c = MakeMulti(MakeSubstringSharedWorkload(3, 1, 2, 1, 1500), 42, 1500);
  ChopPlan plan = PlanChopConnect(c->queries);
  CheckMulti(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = ChopConnectEngine::Create(c->queries, plan);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "chop-connect");
}

TEST(BatchEquivalenceTest, EcubeEngine) {
  auto c = MakeMulti(MakeSubstringSharedWorkload(3, 1, 2, 1, 1500), 43, 1200);
  std::vector<EventTypeId> shared;
  for (const std::string& name : c->workload.shared_types) {
    shared.push_back(*c->schema.FindEventType(name));
  }
  CheckMulti(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = EcubeEngine::Create(c->queries, shared);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "ecube");
}

TEST(BatchEquivalenceTest, NonSharedEngine) {
  auto c = MakeMulti(MakePrefixSharedWorkload(3, 2, 4, 2000), 44, 1500);
  CheckMulti(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = CompositeEngine::CreateNonShare(c->queries);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "nonshared");
}

TEST(BatchEquivalenceTest, NonSharedStackEngine) {
  auto c = MakeMulti(MakePrefixSharedWorkload(2, 2, 3, 1000), 45, 1000);
  CheckMulti(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        return CompositeEngine::CreateSase(c->queries);
      },
      c->events, "nonshared-stack");
}

TEST(BatchEquivalenceTest, HybridEngine) {
  Schema schema;
  StockStreamOptions options;
  options.seed = 46;
  options.num_events = 2000;
  options.max_gap_ms = 8;
  options.num_traders = 5;
  std::vector<Event> events = GenerateStockStream(options, &schema);
  AssignSeqNums(&events);

  // Mixed workload exercising every routing path (PreTree, ChopConnect,
  // per-query A-Seq, stack fallback) inside one hybrid engine.
  std::vector<const char*> texts = {
      "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s",
      "PATTERN SEQ(DELL, IPIX, QQQ) AGG COUNT WITHIN 1s",
      "PATTERN SEQ(INTC, MSFT, CSCO) AGG COUNT WITHIN 1s",
      "PATTERN SEQ(ORCL, MSFT, CSCO) AGG COUNT WITHIN 1s",
      "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT WITHIN 1s",
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 1s",
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
  CheckMulti(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = CompositeEngine::CreateHybrid(queries);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      events, "hybrid");
}

// ---------------------------------------------------------------------------
// Batch accounting sanity: the counters the equivalence check ignores
// ---------------------------------------------------------------------------

TEST(BatchEquivalenceTest, BatchCountersRecorded) {
  auto c = MakeStock(47, 1000);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 800ms");
  auto engine = MustCreateAseq(cq);
  RunOptions options;
  options.collect_outputs = false;
  options.batch_size = 64;
  exec::RunSerial(options, c->events, engine.get());
  const EngineStats& stats = engine->stats();
  EXPECT_EQ(stats.batches_processed, (c->events.size() + 63) / 64);
  EXPECT_EQ(stats.max_batch_events, 64u);

  // The per-event reference path feeds batches of one.
  auto ref_engine = MustCreateAseq(cq);
  RunPerEvent(c->events, ref_engine.get());
  EXPECT_EQ(ref_engine->stats().batches_processed, c->events.size());
  EXPECT_EQ(ref_engine->stats().max_batch_events, 1u);
}

}  // namespace
}  // namespace aseq
