// Crash-recovery equivalence: for every engine, killing a run at an
// arbitrary stream offset, checkpointing, restoring into a freshly
// constructed engine, and replaying the trace tail must produce outputs
// and stats *byte-identical* to the uninterrupted run. The kill-offset
// matrix includes mid-batch offsets (not multiples of the batch size) and,
// for the reordering adapters, offsets where the K-slack buffer is
// non-empty — the snapshot must capture buffered events exactly.
//
// Checked per (engine, kill offset):
//   - combined outputs (prefix run + resumed tail) == uninterrupted outputs,
//     comparing (ts, seq, group, value) exactly — including float sums,
//     which forces the snapshot to reproduce hash-map iteration order;
//   - EngineStats match modulo the batch counters (a mid-batch kill
//     legitimately splits one batch into two).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/ecube_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/snapshot.h"
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
using testing_util::StockCase;

constexpr size_t kBatchSize = 64;

// ---------------------------------------------------------------------------
// The kill/restore cycle
// ---------------------------------------------------------------------------

/// Kill points: batch boundaries, mid-batch offsets, and the very first /
/// last event.
std::vector<size_t> KillOffsets(size_t n) {
  std::vector<size_t> offsets = {1, 37, kBatchSize, 100, 333, n / 2, n - 1};
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  offsets.erase(
      std::remove_if(offsets.begin(), offsets.end(),
                     [n](size_t k) { return k == 0 || k >= n; }),
      offsets.end());
  return offsets;
}

std::string SnapshotPath(const std::string& label, size_t kill) {
  return ::testing::TempDir() + "/recovery-" + label + "-" +
         std::to_string(kill) + ".aseqckpt";
}

RunOptions Options(uint64_t start_offset = 0) {
  RunOptions options;
  options.batch_size = kBatchSize;
  options.start_offset = start_offset;
  return options;
}

/// The full kill/checkpoint/destroy/restore/replay cycle for one engine
/// family. `finish` optionally drains end-of-stream state (reordering
/// adapters) and is applied identically to both runs.
void CheckRecovery(
    const std::function<std::unique_ptr<QueryEngine>()>& factory,
    const std::vector<Event>& events, const std::string& label,
    const std::function<void(QueryEngine*, std::vector<Output>*)>& finish =
        nullptr) {
  auto ref_engine = factory();
  RunResult ref = exec::RunSerial(Options(), events, ref_engine.get());
  if (finish) finish(ref_engine.get(), &ref.outputs);
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  for (size_t kill : KillOffsets(events.size())) {
    const std::string context = label + " @kill=" + std::to_string(kill);
    // Run the prefix, snapshot at the kill point, then destroy the engine —
    // the moral equivalent of SIGKILL after the last checkpoint.
    auto victim = factory();
    std::vector<Event> prefix(events.begin(),
                              events.begin() + static_cast<ptrdiff_t>(kill));
    RunResult pre = exec::RunSerial(Options(), prefix, victim.get());
    const std::string path = SnapshotPath(label, kill);
    Status saved = ckpt::SaveEngineSnapshot(path, *victim, kill);
    ASSERT_TRUE(saved.ok()) << context << ": " << saved.ToString();
    victim.reset();

    auto revived = factory();
    uint64_t offset = 0;
    Status restored = ckpt::RestoreEngineSnapshot(path, revived.get(), &offset);
    ASSERT_TRUE(restored.ok()) << context << ": " << restored.ToString();
    ASSERT_EQ(offset, kill) << context;

    std::vector<Event> tail(events.begin() + static_cast<ptrdiff_t>(kill),
                            events.end());
    RunResult post = exec::RunSerial(Options(offset), tail, revived.get());
    if (finish) finish(revived.get(), &post.outputs);

    std::vector<Output> combined = pre.outputs;
    combined.insert(combined.end(), post.outputs.begin(), post.outputs.end());
    ExpectOutputsEqual(ref.outputs, combined, context);
    ExpectStatsEqual(ref_engine->stats(), revived->stats(), context);
    std::remove(path.c_str());
  }
}

/// Multi-query counterpart of CheckRecovery.
void CheckMultiRecovery(
    const std::function<std::unique_ptr<MultiQueryEngine>()>& factory,
    const std::vector<Event>& events, const std::string& label,
    const std::function<void(MultiQueryEngine*, std::vector<MultiOutput>*)>&
        finish = nullptr) {
  auto ref_engine = factory();
  MultiRunResult ref = exec::RunSerial(Options(), events, ref_engine.get());
  if (finish) finish(ref_engine.get(), &ref.outputs);
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  for (size_t kill : KillOffsets(events.size())) {
    const std::string context = label + " @kill=" + std::to_string(kill);
    auto victim = factory();
    std::vector<Event> prefix(events.begin(),
                              events.begin() + static_cast<ptrdiff_t>(kill));
    MultiRunResult pre = exec::RunSerial(Options(), prefix, victim.get());
    const std::string path = SnapshotPath(label, kill);
    Status saved = ckpt::SaveEngineSnapshot(path, *victim, kill);
    ASSERT_TRUE(saved.ok()) << context << ": " << saved.ToString();
    victim.reset();

    auto revived = factory();
    uint64_t offset = 0;
    Status restored = ckpt::RestoreEngineSnapshot(path, revived.get(), &offset);
    ASSERT_TRUE(restored.ok()) << context << ": " << restored.ToString();
    ASSERT_EQ(offset, kill) << context;

    std::vector<Event> tail(events.begin() + static_cast<ptrdiff_t>(kill),
                            events.end());
    MultiRunResult post =
        exec::RunSerial(Options(offset), tail, revived.get());
    if (finish) finish(revived.get(), &post.outputs);

    std::vector<MultiOutput> combined = pre.outputs;
    combined.insert(combined.end(), post.outputs.begin(), post.outputs.end());
    ExpectMultiOutputsEqual(ref.outputs, combined, context);
    ExpectStatsEqual(ref_engine->stats(), revived->stats(), context);
    std::remove(path.c_str());
  }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct MultiCase {
  Schema schema;
  SharedWorkload workload;
  std::vector<CompiledQuery> queries;
  std::vector<Event> events;
};

/// `group_domain` > 0 adds an int attribute `g` uniform over
/// [0, group_domain) for GROUP BY workloads.
std::unique_ptr<MultiCase> MakeMulti(SharedWorkload workload, uint64_t seed,
                                     size_t n, int64_t max_gap = 50,
                                     int64_t group_domain = 0) {
  auto c = std::make_unique<MultiCase>();
  c->workload = std::move(workload);
  Analyzer analyzer(&c->schema);
  for (const Query& q : c->workload.queries) {
    auto cq = analyzer.Analyze(q);
    EXPECT_TRUE(cq.ok()) << cq.status().ToString();
    c->queries.push_back(std::move(cq).value());
  }
  StreamConfig config =
      MakeWorkloadStreamConfig(c->workload, seed, n, 0, max_gap);
  if (group_domain > 0) {
    config.attrs.push_back(AttrSpec::IntUniform("g", 0, group_domain - 1));
  }
  StreamGenerator gen(config, &c->schema);
  c->events = gen.Generate();
  AssignSeqNums(&c->events);
  return c;
}

// ---------------------------------------------------------------------------
// Single-query engines
// ---------------------------------------------------------------------------

TEST(RecoveryEquivalenceTest, AseqDpcUnbounded) {
  auto c = MakeStock(61, 900);
  CompiledQuery cq =
      MustCompile(&c->schema, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events, "aseq-dpc");
}

TEST(RecoveryEquivalenceTest, AseqSemWindowed) {
  auto c = MakeStock(62, 1200);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events, "aseq-sem");
}

TEST(RecoveryEquivalenceTest, AseqSemNegation) {
  auto c = MakeStock(63, 1200);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT WITHIN 800ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events,
                "aseq-sem-negation");
}

TEST(RecoveryEquivalenceTest, AseqSemSumAggregate) {
  auto c = MakeStock(64, 1200);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX, AMAT) AGG SUM(IPIX.volume) WITHIN 800ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events,
                "aseq-sem-sum");
}

TEST(RecoveryEquivalenceTest, HpcGroupByCount) {
  auto c = MakeStock(65, 1200);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events,
                "hpc-groupby");
}

// Float sums merged across grouped partitions are sensitive to hash-map
// iteration order; exact equality here proves the snapshot reproduces the
// restored map's node order, not just its contents.
TEST(RecoveryEquivalenceTest, HpcGroupBySumFloat) {
  auto c = MakeStock(66, 1200);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.price) "
      "WITHIN 800ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events,
                "hpc-groupby-sum");
}

// High-cardinality grouped workloads drive the flat partition store through
// its full lifecycle across the kill-offset matrix: FlatMap growth and
// tombstone churn, slab freelist reuse, interner growth, and (for COUNT)
// the verbatim-serialized expiry heap. A kill at any offset must land in
// the middle of that churn and still restore byte-identically.
TEST(RecoveryEquivalenceTest, HpcGroupByCountHighCardinality) {
  auto c = std::make_unique<StockCase>();
  StockStreamOptions options;
  options.seed = 68;
  options.num_events = 2000;
  options.max_gap_ms = 8;
  options.num_traders = 400;
  c->events = GenerateStockStream(options, &c->schema);
  AssignSeqNums(&c->events);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 200ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events,
                "hpc-groupby-hicard");
}

// Same cardinality pressure, but SUM makes the slab's slot order directly
// observable through the floating-point merge order of every trigger scan.
TEST(RecoveryEquivalenceTest, HpcGroupBySumHighCardinality) {
  auto c = std::make_unique<StockCase>();
  StockStreamOptions options;
  options.seed = 69;
  options.num_events = 2000;
  options.max_gap_ms = 8;
  options.num_traders = 400;
  c->events = GenerateStockStream(options, &c->schema);
  AssignSeqNums(&c->events);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.price) "
      "WITHIN 200ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events,
                "hpc-groupby-sum-hicard");
}

TEST(RecoveryEquivalenceTest, HpcEquivalencePredicate) {
  auto c = MakeStock(67, 1200);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX, AMAT) WHERE DELL.traderId = IPIX.traderId = "
      "AMAT.traderId AGG COUNT WITHIN 800ms");
  CheckRecovery([&] { return MustCreateAseq(cq); }, c->events, "hpc-equiv");
}

TEST(RecoveryEquivalenceTest, StackEngineJoinPredicate) {
  auto c = MakeStock(68, 900);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price AGG COUNT "
      "WITHIN 800ms");
  CheckRecovery([&] { return std::make_unique<StackEngine>(cq); }, c->events,
                "stack-join");
}

TEST(RecoveryEquivalenceTest, StackEngineNegation) {
  auto c = MakeStock(69, 900);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT WITHIN 800ms");
  CheckRecovery([&] { return std::make_unique<StackEngine>(cq); }, c->events,
                "stack-negation");
}

// SUM through the stack engine's lazy-match table: float accumulation in
// lazy_matches_ iteration order (the second map whose node order the
// snapshot must reproduce exactly).
TEST(RecoveryEquivalenceTest, StackEngineLazySum) {
  auto c = MakeStock(70, 900);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price "
      "AGG SUM(IPIX.price) WITHIN 800ms");
  CheckRecovery([&] { return std::make_unique<StackEngine>(cq); }, c->events,
                "stack-lazy-sum");
}

TEST(RecoveryEquivalenceTest, ChangeDetectingEngine) {
  auto c = MakeStock(71, 900);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 500ms");
  CheckRecovery(
      [&] {
        return std::make_unique<ChangeDetectingEngine>(MustCreateAseq(cq));
      },
      c->events, "change-detector");
}

// ---------------------------------------------------------------------------
// Reordering adapters: kills land while the K-slack buffer holds events
// ---------------------------------------------------------------------------

/// Displaces events by disjoint two-apart swaps: bounded disorder that a
/// 200ms K-slack absorbs without drops, keeping the buffer non-empty at
/// nearly every kill offset.
std::vector<Event> Shuffle(std::vector<Event> events, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i + 3 < events.size(); i += 3) {
    if (rng.NextBool(0.5)) std::swap(events[i], events[i + 2]);
  }
  AssignSeqNums(&events);
  return events;
}

TEST(RecoveryEquivalenceTest, ReorderingEngineMidSlack) {
  auto c = MakeStock(72, 900);
  std::vector<Event> shuffled = Shuffle(c->events, 17);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms");
  CheckRecovery(
      [&] {
        return std::make_unique<ReorderingEngine>(MustCreateAseq(cq),
                                                  /*slack_ms=*/200);
      },
      shuffled, "reordering",
      [](QueryEngine* engine, std::vector<Output>* out) {
        static_cast<ReorderingEngine*>(engine)->Finish(out);
      });
}

TEST(RecoveryEquivalenceTest, ReorderingMultiEngineMidSlack) {
  auto c = MakeMulti(MakePrefixSharedWorkload(3, 2, 4, 2000), 73, 1000);
  std::vector<Event> shuffled = Shuffle(c->events, 19);
  CheckMultiRecovery(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto inner = CompositeEngine::CreateNonShare(c->queries);
        EXPECT_TRUE(inner.ok()) << inner.status().ToString();
        return std::make_unique<ReorderingEngineT<MultiQueryEngine>>(
            std::move(inner).value(), /*slack_ms=*/300);
      },
      shuffled, "reordering-multi",
      [](MultiQueryEngine* engine, std::vector<MultiOutput>* out) {
        static_cast<ReorderingEngineT<MultiQueryEngine>*>(engine)->Finish(out);
      });
}

// ---------------------------------------------------------------------------
// Multi-query engines
// ---------------------------------------------------------------------------

TEST(RecoveryEquivalenceTest, PreTreeEngine) {
  auto c = MakeMulti(MakePrefixSharedWorkload(3, 2, 4, 2000), 74, 1000);
  CheckMultiRecovery(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = PreTreeEngine::Create(c->queries);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "pretree");
}

TEST(RecoveryEquivalenceTest, ChopConnectEngine) {
  auto c = MakeMulti(MakeSubstringSharedWorkload(3, 1, 2, 1, 1500), 75, 1000);
  ChopPlan plan = PlanChopConnect(c->queries);
  CheckMultiRecovery(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = ChopConnectEngine::Create(c->queries, plan);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "chop-connect");
}

TEST(RecoveryEquivalenceTest, ChopConnectGroupedThreeSegments) {
  // perfbench's substr20_cc shape (private prefix, shared substring,
  // private tail) with every query GROUP BY g: each snapshot carries, per
  // group partition, the shared segment's count tables and the tails'
  // suffix tables.
  SharedWorkload workload = MakeSubstringSharedWorkload(3, 2, 3, 2, 1500);
  for (Query& q : workload.queries) q.group_by = GroupBy{"g", kInvalidAttr};
  auto c = MakeMulti(std::move(workload), 80, 1200, /*max_gap=*/4,
                     /*group_domain=*/3);
  ChopPlan plan = PlanChopConnect(c->queries);
  for (const auto& segs : plan.query_segments) ASSERT_EQ(segs.size(), 3u);
  auto factory = [&]() -> std::unique_ptr<MultiQueryEngine> {
    auto engine = ChopConnectEngine::Create(c->queries, plan);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_TRUE((*engine)->shardable());
    return std::move(engine).value();
  };
  auto probe = factory();
  MultiRunResult ref = exec::RunSerial(Options(), c->events, probe.get());
  size_t nonzero = 0;
  for (const MultiOutput& mo : ref.outputs) {
    nonzero += mo.output.value.AsInt64() != 0 ? 1 : 0;
  }
  ASSERT_GT(nonzero, 0u) << "no three-segment match: vacuous workload";
  CheckMultiRecovery(factory, c->events, "chop-connect-grouped3");
}

TEST(RecoveryEquivalenceTest, EcubeEngine) {
  auto c = MakeMulti(MakeSubstringSharedWorkload(3, 1, 2, 1, 1500), 76, 900);
  std::vector<EventTypeId> shared;
  for (const std::string& name : c->workload.shared_types) {
    shared.push_back(*c->schema.FindEventType(name));
  }
  CheckMultiRecovery(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = EcubeEngine::Create(c->queries, shared);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "ecube");
}

TEST(RecoveryEquivalenceTest, NonSharedAseqEngine) {
  auto c = MakeMulti(MakePrefixSharedWorkload(3, 2, 4, 2000), 77, 1000);
  CheckMultiRecovery(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = CompositeEngine::CreateNonShare(c->queries);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      c->events, "nonshared");
}

TEST(RecoveryEquivalenceTest, NonSharedStackEngine) {
  auto c = MakeMulti(MakePrefixSharedWorkload(2, 2, 3, 1000), 78, 800);
  CheckMultiRecovery(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        return CompositeEngine::CreateSase(c->queries);
      },
      c->events, "nonshared-stack");
}

TEST(RecoveryEquivalenceTest, HybridEngine) {
  Schema schema;
  StockStreamOptions options;
  options.seed = 79;
  options.num_events = 1200;
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
  CheckMultiRecovery(
      [&]() -> std::unique_ptr<MultiQueryEngine> {
        auto engine = CompositeEngine::CreateHybrid(queries);
        EXPECT_TRUE(engine.ok()) << engine.status().ToString();
        return std::move(engine).value();
      },
      events, "hybrid");
}

// ---------------------------------------------------------------------------
// Restore rejects mismatched configurations
// ---------------------------------------------------------------------------

TEST(RecoveryEquivalenceTest, RestoreRejectsWrongEngine) {
  auto c = MakeStock(80, 400);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 800ms");
  auto aseq = MustCreateAseq(cq);
  exec::RunSerial(Options(), c->events, aseq.get());
  const std::string path = SnapshotPath("wrong-engine", 0);
  ASSERT_TRUE(ckpt::SaveEngineSnapshot(path, *aseq, c->events.size()).ok());

  StackEngine stack(cq);
  uint64_t offset = 0;
  Status restored = ckpt::RestoreEngineSnapshot(path, &stack, &offset);
  EXPECT_FALSE(restored.ok());
  EXPECT_EQ(restored.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(restored.message().find("A-Seq"), std::string::npos)
      << restored.ToString();
  std::remove(path.c_str());
}

TEST(RecoveryEquivalenceTest, RestoreRejectsWrongSlack) {
  auto c = MakeStock(81, 400);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 800ms");
  ReorderingEngine original(MustCreateAseq(cq), /*slack_ms=*/200);
  exec::RunSerial(Options(), c->events, &original);
  const std::string path = SnapshotPath("wrong-slack", 0);
  ASSERT_TRUE(
      ckpt::SaveEngineSnapshot(path, original, c->events.size()).ok());

  ReorderingEngine different(MustCreateAseq(cq), /*slack_ms=*/500);
  uint64_t offset = 0;
  Status restored = ckpt::RestoreEngineSnapshot(path, &different, &offset);
  EXPECT_FALSE(restored.ok());
  EXPECT_NE(restored.message().find("slack"), std::string::npos)
      << restored.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aseq
