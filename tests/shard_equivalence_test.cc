// Sharded-vs-serial equivalence: the partition-parallel executor
// (exec::ShardedExecutor) must produce outputs *byte-identical* to the
// serial per-event reference — same (ts, seq, group, value) in the same
// global order — and identical merged EngineStats (modulo the batch
// counters, exactly as the OnBatch contract), for every shardable query
// shape, every shard count, and every ingestion batch size.
//
// Also covered: the fallback matrix. Queries (or engines) that cannot
// shard safely must run serially with a stated reason — never produce a
// sharded-but-wrong answer.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/snapshot.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "exec/shard_lanes.h"
#include "exec/shard_router.h"
#include "exec/sharded_executor.h"
#include "fault/fault.h"
#include "multi/composite_engine.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::ExpectMultiOutputsEqual;
using testing_util::ExpectOutputsEqual;
using testing_util::ExpectStatsEqual;
using testing_util::MakeStock;
using testing_util::MustCreateAseq;
using testing_util::MustCompile;
using testing_util::RunPerEvent;

const size_t kShardCounts[] = {2, 3, 8};
const size_t kBatchSizes[] = {1, 64, 256};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

exec::EngineFactory AseqFactory(const CompiledQuery& cq) {
  return [&cq] { return CreateAseqEngine(cq); };
}

/// Serial per-event reference, then one sharded policy per (shards, batch)
/// combination; every run must match the reference byte-for-byte.
void CheckSharded(const CompiledQuery& cq, const std::vector<Event>& events,
                  const std::string& label) {
  auto ref_result = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_result.ok()) << label << ": " << ref_result.status().ToString();
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_result).value();
  RunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  for (size_t shards : kShardCounts) {
    for (size_t batch_size : kBatchSizes) {
      const std::string context = label + " @shards=" +
                                  std::to_string(shards) +
                                  " batch=" + std::to_string(batch_size);
      RunOptions options;
      options.num_shards = shards;
      options.batch_size = batch_size;
      std::string reason;
      auto policy = exec::MakePolicy(cq, AseqFactory(cq), options, &reason);
      ASSERT_TRUE(policy.ok()) << context << ": "
                               << policy.status().ToString();
      ASSERT_TRUE(reason.empty()) << context << ": unexpected fallback — "
                                  << reason;
      ASSERT_EQ((*policy)->num_shards(), shards) << context;
      RunResult got = (*policy)->RunEvents(events);
      EXPECT_EQ(got.num_shards, shards) << context;
      ExpectOutputsEqual(ref.outputs, got.outputs, context);
      ExpectStatsEqual(ref_engine->stats(), (*policy)->stats(), context);
    }
  }
}

// ---------------------------------------------------------------------------
// Shardable query shapes
// ---------------------------------------------------------------------------

TEST(ShardEquivalenceTest, GroupedCountWindowed) {
  auto c = MakeStock(121, 4000);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  CheckSharded(cq, c->events, "grouped-count-windowed");
}

TEST(ShardEquivalenceTest, GroupedCountUnbounded) {
  auto c = MakeStock(122, 2500);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT");
  CheckSharded(cq, c->events, "grouped-count-unbounded");
}

TEST(ShardEquivalenceTest, GroupedCountLongerPattern) {
  auto c = MakeStock(123, 4000);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT "
      "WITHIN 1s");
  CheckSharded(cq, c->events, "grouped-count-3step");
}

TEST(ShardEquivalenceTest, GroupedNegation) {
  auto c = MakeStock(124, 4000);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, !QQQ, AMAT) GROUP BY traderId AGG COUNT "
      "WITHIN 800ms");
  CheckSharded(cq, c->events, "grouped-negation");
}

TEST(ShardEquivalenceTest, GroupedSumSinglePart) {
  // SUM shards when the GROUP BY key is the only partition part: each
  // group's running sum lives on exactly one shard, so float accumulation
  // order is untouched.
  auto c = MakeStock(125, 4000);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
      "WITHIN 800ms");
  CheckSharded(cq, c->events, "grouped-sum");
}

TEST(ShardEquivalenceTest, GroupedAvgSinglePart) {
  auto c = MakeStock(126, 4000);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG AVG(IPIX.price) "
      "WITHIN 800ms");
  CheckSharded(cq, c->events, "grouped-avg");
}

TEST(ShardEquivalenceTest, GroupedMaxMultiPart) {
  // GROUP BY + an equivalence class makes a multi-part key; MAX is
  // order-insensitive, so the cross-partition merge still shards.
  auto c = MakeStock(127, 4000);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.volume = IPIX.volume "
      "GROUP BY traderId AGG MAX(IPIX.price) WITHIN 800ms");
  CheckSharded(cq, c->events, "grouped-max-multipart");
}

TEST(ShardEquivalenceTest, ManyGroupsFewShards) {
  auto c = MakeStock(128, 6000, /*traders=*/40);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 600ms");
  CheckSharded(cq, c->events, "many-groups");
}

TEST(ShardEquivalenceTest, MoreShardsThanGroups) {
  // Shard counts above the group cardinality leave some shards idle; the
  // merge must still be exact.
  auto c = MakeStock(129, 2500, /*traders=*/2);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  CheckSharded(cq, c->events, "more-shards-than-groups");
}

// ---------------------------------------------------------------------------
// Fallback matrix — requesting shards must never change the answer; it
// either shards exactly or runs serially with a reason.
// ---------------------------------------------------------------------------

/// Requests `shards` shards and expects a serial fallback whose reason
/// contains `reason_substr`; the run must still match the reference.
void CheckFallback(const CompiledQuery& cq, const exec::EngineFactory& factory,
                   const std::vector<Event>& events,
                   const std::string& reason_substr,
                   const std::string& label) {
  auto ref_result = factory();
  ASSERT_TRUE(ref_result.ok()) << label;
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_result).value();
  RunResult ref = RunPerEvent(events, ref_engine.get());

  RunOptions options;
  options.num_shards = 4;
  std::string reason;
  auto policy = exec::MakePolicy(cq, factory, options, &reason);
  ASSERT_TRUE(policy.ok()) << label << ": " << policy.status().ToString();
  EXPECT_EQ((*policy)->num_shards(), 1u) << label;
  EXPECT_NE(reason.find(reason_substr), std::string::npos)
      << label << ": reason was '" << reason << "', expected it to mention '"
      << reason_substr << "'";
  RunResult got = (*policy)->RunEvents(events);
  EXPECT_EQ(got.num_shards, 1u) << label;
  ExpectOutputsEqual(ref.outputs, got.outputs, label);
}

TEST(ShardFallbackTest, UngroupedQuery) {
  auto c = MakeStock(131, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX) AGG COUNT WITHIN 800ms");
  CheckFallback(cq, AseqFactory(cq), c->events, "no GROUP BY", "ungrouped");
}

TEST(ShardFallbackTest, EquivalenceOnlyPartitioning) {
  // Partitioned, but per-partition results are summed into one global
  // answer — merging them would need every partition on one shard.
  auto c = MakeStock(132, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.traderId = IPIX.traderId "
      "AGG COUNT WITHIN 800ms");
  CheckFallback(cq, AseqFactory(cq), c->events, "equivalence only",
                "equivalence-only");
}

TEST(ShardFallbackTest, SumAcrossMultiPartKey) {
  // SUM over a multi-part key merges a group's partitions in hash-map
  // iteration order; splitting them across shards would reorder float
  // accumulation. Must fall back.
  auto c = MakeStock(133, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.volume = IPIX.volume "
      "GROUP BY traderId AGG SUM(IPIX.price) WITHIN 800ms");
  CheckFallback(cq, AseqFactory(cq), c->events, "order", "sum-multipart");
}

TEST(ShardFallbackTest, JoinPredicates) {
  auto c = MakeStock(134, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price "
      "GROUP BY traderId AGG COUNT WITHIN 800ms");
  CheckFallback(
      cq, [&cq] { return Result<std::unique_ptr<QueryEngine>>(
                      std::make_unique<StackEngine>(cq)); },
      c->events, "join predicate", "join-predicates");
}

TEST(ShardFallbackTest, UnshardableEngine) {
  // The query shards, but the stack baseline has no partitioned state.
  auto c = MakeStock(135, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  CheckFallback(
      cq, [&cq] { return Result<std::unique_ptr<QueryEngine>>(
                      std::make_unique<StackEngine>(cq)); },
      c->events, "does not support sharding", "stack-engine");
}

// ---------------------------------------------------------------------------
// Multi-query workloads: the sharding engines on the same executor
// ---------------------------------------------------------------------------
//
// The multi-query sharded executor (exec::MultiShardedExecutor behind
// exec::MakeMultiPolicy) must match the serial sharing engine bit-exact:
// the same query-tagged outputs in the same global order, and identical
// merged EngineStats including the live-object peak, for every sharing
// strategy, shard count, and ingestion batch size.

std::vector<CompiledQuery> MustCompileAll(
    Schema* schema, const std::vector<std::string>& texts) {
  std::vector<CompiledQuery> queries;
  queries.reserve(texts.size());
  for (const std::string& text : texts) {
    queries.push_back(MustCompile(schema, text));
  }
  return queries;
}

/// One factory per sharing strategy (MakeStrategyFactory), closing over
/// the workload by reference (the workload outlives every policy built
/// from it).
exec::MultiEngineFactory MultiFactory(
    const std::string& strategy, const std::vector<CompiledQuery>& queries) {
  auto factory = MakeStrategyFactory(strategy, queries);
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  return std::move(factory).value();
}

/// Sharded-vs-serial check for one workload and one sharing strategy:
/// a per-event serial run pins the canonical output sequence; for every
/// batch size a serial *policy* run (same OnBatch slicing as the shards
/// use) pins the stats reference; every shard count must reproduce both.
void CheckMultiSharded(const std::vector<CompiledQuery>& queries,
                       const std::vector<Event>& events,
                       const std::string& strategy, const std::string& label) {
  exec::MultiEngineFactory factory = MultiFactory(strategy, queries);

  auto ref_engine_or = factory();
  ASSERT_TRUE(ref_engine_or.ok())
      << label << ": " << ref_engine_or.status().ToString();
  std::unique_ptr<MultiQueryEngine> ref_engine =
      std::move(ref_engine_or).value();
  MultiRunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  for (size_t batch : kBatchSizes) {
    RunOptions serial_options;
    serial_options.num_shards = 1;
    serial_options.batch_size = batch;
    auto serial = exec::MakeMultiPolicy(queries, factory, serial_options);
    ASSERT_TRUE(serial.ok()) << label << ": " << serial.status().ToString();
    MultiRunResult serial_run = (*serial)->RunEvents(events);
    ExpectMultiOutputsEqual(ref.outputs, serial_run.outputs,
                            label + " serial batch=" + std::to_string(batch));

    for (size_t shards : kShardCounts) {
      const std::string context = label + " shards=" + std::to_string(shards) +
                                  " batch=" + std::to_string(batch);
      RunOptions options;
      options.num_shards = shards;
      options.batch_size = batch;
      std::string reason;
      auto policy = exec::MakeMultiPolicy(queries, factory, options, &reason);
      ASSERT_TRUE(policy.ok()) << context << ": " << policy.status().ToString();
      ASSERT_TRUE(reason.empty()) << context << ": fell back: " << reason;
      ASSERT_EQ((*policy)->num_shards(), shards) << context;

      MultiRunResult got = (*policy)->RunEvents(events);
      ExpectMultiOutputsEqual(ref.outputs, got.outputs, context);
      ExpectStatsEqual((*serial)->stats(), (*policy)->stats(), context);
    }
  }
}

const char* const kSharingStrategies[] = {"cc", "pretree", "hybrid",
                                          "nonshare"};

/// Draws a random workload every sharing engine accepts: 2–4 distinct
/// positive COUNT patterns over one shared window, all GROUP BY traderId
/// (Chop-Connect and PreTree reject anything wider, per the paper's
/// multi-query scope).
std::vector<std::string> RandomSharedWorkload(std::mt19937* rng) {
  // Chop-Connect requires distinct event types per pattern, so the pool
  // stays repeat-free — every strategy then accepts every draw.
  static const char* const kPatterns[] = {
      "SEQ(DELL, IPIX)",       "SEQ(DELL, QQQ, IPIX)",
      "SEQ(IPIX, DELL)",       "SEQ(DELL, IPIX, AMAT)",
      "SEQ(AMAT, DELL)",       "SEQ(IPIX, AMAT)",
      "SEQ(AMAT, IPIX, DELL)", "SEQ(DELL, AMAT)",
  };
  static const int kWindows[] = {600, 800, 1000};
  std::vector<size_t> picks(std::size(kPatterns));
  for (size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  std::shuffle(picks.begin(), picks.end(), *rng);
  const size_t n = 2 + (*rng)() % 3;
  const int window = kWindows[(*rng)() % std::size(kWindows)];
  std::vector<std::string> texts;
  for (size_t i = 0; i < n; ++i) {
    texts.push_back("PATTERN " + std::string(kPatterns[picks[i]]) +
                    " GROUP BY traderId AGG COUNT WITHIN " +
                    std::to_string(window) + "ms");
  }
  return texts;
}

/// The randomized matrix: the same drawn workloads run through every
/// sharing strategy, so a drift in any one engine's sharded path shows up
/// against the same canonical streams.
void CheckMultiRandomized(const std::string& strategy) {
  std::mt19937 rng(20260807);
  for (int trial = 0; trial < 3; ++trial) {
    std::vector<std::string> texts = RandomSharedWorkload(&rng);
    auto c = MakeStock(500 + static_cast<uint64_t>(trial), 2000);
    std::vector<CompiledQuery> queries = MustCompileAll(&c->schema, texts);
    CheckMultiSharded(queries, c->events, strategy,
                      strategy + "-trial" + std::to_string(trial));
  }
}

TEST(MultiShardEquivalenceTest, RandomizedChopConnect) {
  CheckMultiRandomized("cc");
}

TEST(MultiShardEquivalenceTest, RandomizedPreTree) {
  CheckMultiRandomized("pretree");
}

TEST(MultiShardEquivalenceTest, RandomizedHybrid) {
  CheckMultiRandomized("hybrid");
}

TEST(MultiShardEquivalenceTest, RandomizedNonShare) {
  CheckMultiRandomized("nonshare");
}

TEST(MultiShardEquivalenceTest, PrefixHeavyWorkload) {
  // Maximal prefix overlap: every query is a prefix of the longest one,
  // the shape PreTree's trie and Chop-Connect's segment sharing both
  // collapse hardest.
  auto c = MakeStock(510, 2500);
  std::vector<CompiledQuery> queries = MustCompileAll(
      &c->schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT "
       "WITHIN 800ms",
       "PATTERN SEQ(DELL, IPIX, AMAT, QQQ) GROUP BY traderId AGG COUNT "
       "WITHIN 800ms"});
  for (const char* strategy : kSharingStrategies) {
    CheckMultiSharded(queries, c->events, strategy,
                      std::string("prefix-heavy-") + strategy);
  }
}

TEST(MultiShardEquivalenceTest, NegationWorkloadHybridAndNonShare) {
  // Negation is outside Chop-Connect/PreTree scope; the hybrid routes
  // such queries to per-query engines and must still shard the whole mix.
  auto c = MakeStock(511, 2500);
  std::vector<CompiledQuery> queries = MustCompileAll(
      &c->schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "PATTERN SEQ(DELL, !QQQ, AMAT) GROUP BY traderId AGG COUNT "
       "WITHIN 800ms",
       "PATTERN SEQ(IPIX, DELL) GROUP BY traderId AGG COUNT WITHIN 600ms"});
  CheckMultiSharded(queries, c->events, "hybrid", "negation-hybrid");
  CheckMultiSharded(queries, c->events, "nonshare", "negation-nonshare");
}

TEST(MultiShardEquivalenceTest, SingleQueryWorkload) {
  // The one-query degenerate case must behave exactly like the
  // single-query sharded path.
  auto c = MakeStock(512, 2000);
  std::vector<CompiledQuery> queries = MustCompileAll(
      &c->schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms"});
  for (const char* strategy : kSharingStrategies) {
    CheckMultiSharded(queries, c->events, strategy,
                      std::string("single-") + strategy);
  }
}

// ---------------------------------------------------------------------------
// Multi-query fallback matrix
// ---------------------------------------------------------------------------

/// Expects MakeMultiPolicy to refuse sharding (falling back to a serial
/// policy) with `reason_substr` in the stated reason — and the serial
/// answer to still match the per-event reference.
void CheckMultiFallback(const std::vector<CompiledQuery>& queries,
                        const exec::MultiEngineFactory& factory,
                        const std::vector<Event>& events,
                        const std::string& reason_substr,
                        const std::string& label) {
  RunOptions options;
  options.num_shards = 4;
  std::string reason;
  auto policy = exec::MakeMultiPolicy(queries, factory, options, &reason);
  ASSERT_TRUE(policy.ok()) << label << ": " << policy.status().ToString();
  EXPECT_EQ((*policy)->num_shards(), 1u) << label;
  EXPECT_NE(reason.find(reason_substr), std::string::npos)
      << label << ": reason was '" << reason << "'";

  auto ref_engine_or = factory();
  ASSERT_TRUE(ref_engine_or.ok()) << label;
  std::unique_ptr<MultiQueryEngine> ref_engine =
      std::move(ref_engine_or).value();
  MultiRunResult ref = RunPerEvent(events, ref_engine.get());
  MultiRunResult got = (*policy)->RunEvents(events);
  ExpectMultiOutputsEqual(ref.outputs, got.outputs, label);
}

TEST(MultiShardFallbackTest, UngroupedQueryInWorkload) {
  auto c = MakeStock(520, 1500);
  std::vector<CompiledQuery> queries = MustCompileAll(
      &c->schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "PATTERN SEQ(IPIX, DELL) AGG COUNT WITHIN 800ms"});
  CheckMultiFallback(queries, MultiFactory("nonshare", queries), c->events,
                     "query 1", "ungrouped-query");
}

TEST(MultiShardFallbackTest, DifferentGroupAttributes) {
  // Each query shards alone, but one event cannot land on both queries'
  // owner shards at once — the workload must run serially.
  auto c = MakeStock(521, 1500);
  std::vector<CompiledQuery> queries = MustCompileAll(
      &c->schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "PATTERN SEQ(IPIX, DELL) GROUP BY volume AGG COUNT WITHIN 800ms"});
  CheckMultiFallback(queries, MultiFactory("nonshare", queries), c->events,
                     "different attributes", "group-attr-mismatch");
}

TEST(MultiShardFallbackTest, UnshardableEngine) {
  // The workload shards, but the stack-based sub-engines have no
  // partitioned state to split.
  auto c = MakeStock(522, 1500);
  std::vector<CompiledQuery> queries = MustCompileAll(
      &c->schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "PATTERN SEQ(IPIX, DELL) GROUP BY traderId AGG COUNT WITHIN 800ms"});
  exec::MultiEngineFactory factory =
      [&queries]() -> Result<std::unique_ptr<MultiQueryEngine>> {
    return std::unique_ptr<MultiQueryEngine>(
        CompositeEngine::CreateSase(queries));
  };
  CheckMultiFallback(queries, factory, c->events, "does not support sharding",
                     "stack-workload");
}

TEST(ShardFallbackTest, PlanShardingReportsShardable) {
  // A single query is a workload of one.
  Schema schema;
  const std::vector<CompiledQuery> one = MustCompileAll(
      &schema, {"PATTERN SEQ(A, B) GROUP BY ip AGG COUNT WITHIN 10s"});
  const std::vector<CompiledQuery> two = MustCompileAll(
      &schema,
      {"PATTERN SEQ(A, B) GROUP BY ip AGG COUNT WITHIN 10s",
       "PATTERN SEQ(B, A) GROUP BY ip AGG COUNT WITHIN 10s"});
  for (const std::vector<CompiledQuery>* queries : {&one, &two}) {
    exec::ShardPlan plan = exec::PlanSharding(*queries);
    EXPECT_TRUE(plan.shardable) << queries->size() << ": " << plan.reason;
    EXPECT_TRUE(plan.reason.empty()) << queries->size();
  }
}

// ---------------------------------------------------------------------------
// Run(StreamSource*) over a recycling source
// ---------------------------------------------------------------------------
//
// A streaming source (TraceFileSource) lends every batch from one buffer it
// overwrites on the next refill. VectorSource never does, so the tests
// above cannot show that no router, replay log or merge step keeps a
// pointer into a borrowed batch. These runs can: the source poisons the
// previous batch before each refill.

/// Lends batches of `*events` from one reused buffer, poisoning the
/// previous batch (type, timestamp, seq and every attribute value) before
/// it refills the buffer.
class PoisoningSource : public StreamSource {
 public:
  explicit PoisoningSource(const std::vector<Event>* events)
      : events_(events) {}

  std::span<Event> BorrowBatch(size_t max) override {
    for (Event& e : batch_) Poison(&e);
    ++poisoned_batches_;
    const size_t n = std::min(max, events_->size() - pos_);
    if (batch_.size() < n) batch_.resize(n);
    std::copy_n(events_->begin() + static_cast<ptrdiff_t>(pos_), n,
                batch_.begin());
    pos_ += n;
    return {batch_.data(), n};
  }

  void Reset() override { pos_ = 0; }

  size_t poisoned_batches() const { return poisoned_batches_; }

 private:
  static void Poison(Event* e) {
    std::vector<AttrId> attrs;
    for (const auto& kv : e->attrs()) attrs.push_back(kv.first);
    for (AttrId a : attrs) e->SetAttr(a, Value(int64_t{-424242}));
    e->set_type(kInvalidEventType - 1);
    e->set_ts(-1);
    e->set_seq(~SeqNum{0});
  }

  const std::vector<Event>* events_;
  std::vector<Event> batch_;
  size_t pos_ = 0;
  size_t poisoned_batches_ = 0;
};

/// Skips the first `offset` events the way the CLI does for a restored
/// run: by borrowing (and so recycling) batches.
void SkipEvents(StreamSource* source, uint64_t offset) {
  uint64_t skipped = 0;
  while (skipped < offset) {
    const size_t n =
        source->BorrowBatch(std::min<uint64_t>(offset - skipped, 100)).size();
    ASSERT_GT(n, 0u) << "source ended before offset " << offset;
    skipped += n;
  }
}

constexpr const char* kRecyclingQuery =
    "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT WITHIN 800ms";

TEST(RecyclingSourceTest, SerialAndShardedRunsMatchRunEvents) {
  auto c = MakeStock(131, 4000);
  CompiledQuery cq = MustCompile(&c->schema, kRecyclingQuery);
  auto ref_engine = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_engine.ok());
  RunResult ref = RunPerEvent(c->events, ref_engine->get());
  ASSERT_GT(ref.outputs.size(), 0u);

  for (size_t shards : {1, 2, 4}) {
    for (size_t batch_size : {1, 64}) {
      const std::string context = "recycling shards=" +
                                  std::to_string(shards) +
                                  " batch=" + std::to_string(batch_size);
      RunOptions options;
      options.num_shards = shards;
      options.batch_size = batch_size;
      std::string reason;
      auto policy = exec::MakePolicy(cq, AseqFactory(cq), options, &reason);
      ASSERT_TRUE(policy.ok()) << context;
      ASSERT_TRUE(reason.empty()) << context << ": " << reason;
      PoisoningSource source(&c->events);
      RunResult got = (*policy)->Run(&source);
      EXPECT_GT(source.poisoned_batches(), 1u) << context;
      EXPECT_EQ(got.events, c->events.size()) << context;
      ExpectOutputsEqual(ref.outputs, got.outputs, context);
      ExpectStatsEqual((*ref_engine)->stats(), (*policy)->stats(), context);
    }
  }
}

/// Collects what an output sink is handed.
struct CollectingSink : OutputSink {
  void TakeOutputs(std::span<const Output> outputs) override {
    taken.insert(taken.end(), outputs.begin(), outputs.end());
  }
  std::vector<Output> taken;
};

TEST(RecyclingSourceTest, OutputSinkReceivesTheOutputSequence) {
  // With RunOptions::output_sink set, the outputs go to the sink, in the
  // same global order, instead of into the result.
  auto c = MakeStock(135, 3000);
  CompiledQuery cq = MustCompile(&c->schema, kRecyclingQuery);
  auto ref_engine = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_engine.ok());
  RunResult ref = RunPerEvent(c->events, ref_engine->get());
  for (size_t shards : {1, 2}) {
    const std::string context = "sink shards=" + std::to_string(shards);
    CollectingSink sink;
    RunOptions options;
    options.num_shards = shards;
    options.batch_size = 64;
    options.output_sink = &sink;
    auto policy = exec::MakePolicy(cq, AseqFactory(cq), options);
    ASSERT_TRUE(policy.ok()) << context;
    PoisoningSource source(&c->events);
    RunResult got = (*policy)->Run(&source);
    EXPECT_TRUE(got.outputs.empty()) << context;
    ExpectOutputsEqual(ref.outputs, sink.taken, context);
  }
}

TEST(RecyclingSourceTest, SupervisedCrashReplayMatchesRunEvents) {
  // The supervisor replays a restarted shard's slice from its replay log;
  // the log must own copies, since the batches they came from are poisoned
  // by the time the replay runs.
  auto c = MakeStock(132, 4000);
  CompiledQuery cq = MustCompile(&c->schema, kRecyclingQuery);
  auto ref_engine = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_engine.ok());
  RunResult ref = RunPerEvent(c->events, ref_engine->get());

  for (size_t shards : {2, 4}) {
    const std::string context = "supervised shards=" + std::to_string(shards);
    RunOptions options;
    options.num_shards = shards;
    options.batch_size = 64;
    options.supervise = true;
    options.recovery_every = 512;
    auto policy = exec::MakePolicy(cq, AseqFactory(cq), options);
    ASSERT_TRUE(policy.ok()) << context;
    ASSERT_TRUE(fault::Injector::Global().Arm("worker.op@1:500:crash", 9).ok());
    PoisoningSource source(&c->events);
    RunResult got = (*policy)->Run(&source);
    fault::Injector::Global().Disarm();
    ASSERT_TRUE(got.fault_status.ok()) << context << ": "
                                       << got.fault_status.ToString();
    EXPECT_GT((*policy)->stats().fault_restarts, 0u) << context;
    ExpectOutputsEqual(ref.outputs, got.outputs, context);
    ExpectStatsEqual((*ref_engine)->stats(), (*policy)->stats(), context);
  }
}

TEST(RecyclingSourceTest, RestoreAtMidStreamOffsetMatchesRunEvents) {
  auto c = MakeStock(133, 4000);
  CompiledQuery cq = MustCompile(&c->schema, kRecyclingQuery);
  auto ref_engine = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_engine.ok());
  RunResult ref = RunPerEvent(c->events, ref_engine->get());

  for (size_t shards : {1, 2, 4}) {
    const std::string context = "restore shards=" + std::to_string(shards);
    const std::string dir = ::testing::TempDir() + "/recycling-restore-" +
                            std::to_string(shards);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    RunOptions options;
    options.num_shards = shards;
    options.batch_size = 64;
    options.checkpoint_every = 1500;
    options.checkpoint_dir = dir;
    auto full = exec::MakePolicy(cq, AseqFactory(cq), options);
    ASSERT_TRUE(full.ok()) << context;
    PoisoningSource full_source(&c->events);
    RunResult full_run = (*full)->Run(&full_source);
    ASSERT_TRUE(full_run.checkpoint_status.ok()) << context;
    ASSERT_GT(full_run.checkpoints_written, 0u) << context;

    // The first snapshot lies mid-stream (1536 of 4000 events).
    RunOptions tail_options;
    tail_options.num_shards = shards;
    tail_options.batch_size = 64;
    auto resumed = exec::MakePolicy(cq, AseqFactory(cq), tail_options);
    ASSERT_TRUE(resumed.ok()) << context;
    uint64_t offset = 0;
    Status restored = (*resumed)->Restore(
        ckpt::SnapshotPathForOffset(dir, 1536), &offset);
    ASSERT_TRUE(restored.ok()) << context << ": " << restored.ToString();
    ASSERT_EQ(offset, 1536u) << context;
    PoisoningSource tail_source(&c->events);
    SkipEvents(&tail_source, offset);
    RunResult tail_run = (*resumed)->Run(&tail_source);
    EXPECT_EQ(tail_run.events, c->events.size() - offset) << context;

    std::vector<Output> combined;
    for (const Output& o : ref.outputs) {
      if (o.seq < offset) combined.push_back(o);
    }
    ASSERT_GT(combined.size(), 0u) << context;
    ASSERT_GT(tail_run.outputs.size(), 0u) << context;
    combined.insert(combined.end(), tail_run.outputs.begin(),
                    tail_run.outputs.end());
    ExpectOutputsEqual(ref.outputs, combined, context);
    ExpectStatsEqual((*ref_engine)->stats(), (*resumed)->stats(), context);
  }
}

TEST(RecyclingSourceTest, ShardedWorkloadMatchesRunEvents) {
  auto c = MakeStock(134, 3000);
  std::vector<CompiledQuery> queries = MustCompileAll(
      &c->schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
       "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT "
       "WITHIN 800ms"});
  exec::MultiEngineFactory factory = MultiFactory("cc", queries);
  auto ref_engine = factory();
  ASSERT_TRUE(ref_engine.ok());
  MultiRunResult ref = RunPerEvent(c->events, ref_engine->get());
  ASSERT_GT(ref.outputs.size(), 0u);
  for (size_t shards : {1, 2, 4}) {
    const std::string context = "workload shards=" + std::to_string(shards);
    RunOptions options;
    options.num_shards = shards;
    options.batch_size = 64;
    std::string reason;
    auto policy = exec::MakeMultiPolicy(queries, factory, options, &reason);
    ASSERT_TRUE(policy.ok()) << context;
    ASSERT_TRUE(reason.empty()) << context << ": " << reason;
    PoisoningSource source(&c->events);
    MultiRunResult got = (*policy)->Run(&source);
    ExpectMultiOutputsEqual(ref.outputs, got.outputs, context);
    ExpectStatsEqual((*ref_engine)->stats(), (*policy)->stats(), context);
  }
}

// ---------------------------------------------------------------------------
// Shared batches and index ops
// ---------------------------------------------------------------------------
//
// The coordinator copies each event some query names once into a recycled
// shared batch and ships each lane 32-bit op words indexing it; an event of
// a type no query names is never shipped, and the coordinator charges it
// to the merged stats itself. The engines must see exactly the serial
// OnEvent calls for the events they get: same outputs, same stats —
// admission counters and batch counters included — on a trace where most
// events are of unused types and some events of used types fail a local
// predicate or lack the GROUP BY key.

using exec::SharedBatch;
using exec::SharedBatchPool;

/// `n` events over 4 used ticker types and 8 unused ones (~70% unused).
/// One in ten events lacks traderId; one in four carries a heap-allocated
/// string note, so attribute lists differ in length and storage.
std::vector<Event> SparseTrace(Schema* schema, uint64_t seed, size_t n) {
  std::vector<EventTypeId> used;
  for (const char* t : {"DELL", "IPIX", "AMAT", "QQQ"}) {
    used.push_back(schema->RegisterEventType(t));
  }
  std::vector<EventTypeId> unused;
  for (int i = 0; i < 8; ++i) {
    unused.push_back(schema->RegisterEventType("U" + std::to_string(i)));
  }
  const AttrId trader = schema->RegisterAttribute("traderId");
  const AttrId price = schema->RegisterAttribute("price");
  const AttrId volume = schema->RegisterAttribute("volume");
  const AttrId note = schema->RegisterAttribute("note");
  std::mt19937_64 rng(seed);
  std::vector<Event> events;
  events.reserve(n);
  Timestamp ts = 0;
  for (size_t i = 0; i < n; ++i) {
    ts += static_cast<Timestamp>(rng() % 6);
    const EventTypeId type =
        rng() % 10 < 3 ? used[rng() % used.size()] : unused[rng() % 8];
    Event e(type, ts);
    if (rng() % 10 != 0) e.SetAttr(trader, Value(int64_t(rng() % 6)));
    e.SetAttr(price, Value(static_cast<double>(rng() % 100)));
    e.SetAttr(volume, Value(int64_t(rng() % 1000)));
    if (rng() % 4 == 0) {
      e.SetAttr(note, Value(std::string(40, static_cast<char>('a' + i % 26))));
    }
    events.push_back(std::move(e));
  }
  AssignSeqNums(&events);
  return events;
}

/// ExpectStatsEqual plus the batch counters, which are checkpointed and
/// which a sharded run reproduces against the per-event reference (workers
/// feed batches of one; the coordinator charges an unshipped event as one).
void ExpectBatchStatsEqual(const EngineStats& ref, const EngineStats& got,
                           const std::string& context) {
  ExpectStatsEqual(ref, got, context);
  EXPECT_EQ(ref.batches_processed, got.batches_processed) << context;
  EXPECT_EQ(ref.max_batch_events, got.max_batch_events) << context;
}

/// ExpectBatchStatsEqual plus the admission counters: each event is
/// admitted on its owner shard only. They are not checkpointed, so only an
/// uninterrupted run reproduces them.
void ExpectAllStatsEqual(const EngineStats& ref, const EngineStats& got,
                         const std::string& context) {
  ExpectBatchStatsEqual(ref, got, context);
  EXPECT_EQ(ref.adm_admitted, got.adm_admitted) << context;
  EXPECT_EQ(ref.adm_rejected_local, got.adm_rejected_local) << context;
  EXPECT_EQ(ref.adm_missing_attr, got.adm_missing_attr) << context;
  EXPECT_EQ(ref.adm_generic_cmps, got.adm_generic_cmps) << context;
}

/// What the spy engines were fed, summed over every shard.
struct SpyCounts {
  std::atomic<uint64_t> fed{0};
  std::atomic<uint64_t> wrong{0};
};

/// An HPC engine that checks every event it is fed against the source
/// trace before running it: only events of a type the query names reach a
/// shard, each carrying exactly its source attributes.
class SpyEngine : public HpcEngine {
 public:
  SpyEngine(const CompiledQuery& cq, const std::vector<Event>* source,
            SpyCounts* counts)
      : HpcEngine(cq), source_(source), counts_(counts) {
    for (const auto& [type, roles] : cq.roles()) {
      if (!roles.empty()) named_.push_back(type);
    }
  }

  void OnBatch(std::span<const Event> batch,
               std::vector<Output>* out) override {
    for (const Event& e : batch) {
      const Event& src = (*source_)[e.seq()];
      const bool named =
          std::find(named_.begin(), named_.end(), e.type()) != named_.end();
      const bool ok = named && e.type() == src.type() && e.ts() == src.ts() &&
                      e.attrs() == src.attrs();
      if (!ok) counts_->wrong.fetch_add(1);
      counts_->fed.fetch_add(1);
    }
    HpcEngine::OnBatch(batch, out);
  }

  /// Events of `events` whose type `cq` names.
  static uint64_t NamedCount(const CompiledQuery& cq,
                             const std::vector<Event>& events) {
    uint64_t named = 0;
    for (const Event& e : events) {
      const auto it = cq.roles().find(e.type());
      if (it != cq.roles().end() && !it->second.empty()) ++named;
    }
    return named;
  }

 private:
  const std::vector<Event>* source_;
  SpyCounts* counts_;
  std::vector<EventTypeId> named_;
};

exec::EngineFactory SpyFactory(const CompiledQuery& cq,
                               const std::vector<Event>* events,
                               SpyCounts* counts) {
  return [&cq, events, counts]() -> Result<std::unique_ptr<QueryEngine>> {
    return std::unique_ptr<QueryEngine>(
        std::make_unique<SpyEngine>(cq, events, counts));
  };
}

/// The pool of a sharded single-query policy.
const SharedBatchPool& PoolOf(exec::ExecutionPolicy* policy) {
  auto* sharded = dynamic_cast<exec::ShardedExecutor*>(policy);
  EXPECT_NE(sharded, nullptr);
  return sharded->batch_pool();
}

/// Every batch the run acquired came back exactly once: a batch returned
/// twice would show as an extra return and an idle count above created.
void ExpectPoolHome(const SharedBatchPool& pool, const std::string& context) {
  const SharedBatchPool::Counts counts = pool.counts();
  EXPECT_GT(counts.acquires, 0u) << context;
  EXPECT_EQ(counts.acquires, counts.returns) << context;
  EXPECT_EQ(counts.idle, counts.created) << context;
}

constexpr const char* kSparseQuery =
    "PATTERN SEQ(DELL, IPIX, AMAT) WHERE DELL.price > 30 GROUP BY traderId "
    "AGG COUNT WITHIN 400ms";

TEST(SharedBatchTest, RecycledSlotsHoldExactCopies) {
  Schema schema;
  const std::vector<Event> events = SparseTrace(&schema, 7, 64);
  SharedBatchPool pool;
  SharedBatch* batch = pool.Acquire();
  // A first use fills the slots with every event.
  for (const Event& e : events) batch->Append(e);
  const std::vector<size_t> queries = {0, 2};
  batch->AddTrigger(5, queries);
  SharedBatchPool::Release(batch);
  // The recycled batch starts empty; a slot that held a longer event holds
  // only the new one's attributes.
  SharedBatch* again = pool.Acquire();
  ASSERT_EQ(again, batch);
  EXPECT_EQ(again->size(), 0u);
  for (size_t i = 0; i < events.size(); ++i) {
    const Event& e = events[events.size() - 1 - i];
    const uint32_t index = again->Append(e);
    EXPECT_EQ(index, i);
    EXPECT_EQ(again->event(index).type(), e.type());
    EXPECT_EQ(again->event(index).ts(), e.ts());
    EXPECT_EQ(again->event(index).seq(), e.seq());
    EXPECT_EQ(again->event(index).attrs(), e.attrs()) << e.seq();
  }
  // One trigger table entry per trigger, whatever the number of markers;
  // its op word carries the marker flag.
  const uint32_t marker = again->AddTrigger(3, queries);
  EXPECT_EQ(marker, exec::kMarkerOp | 0u) << "the old trigger table is gone";
  const SharedBatch::Trigger& trigger = again->trigger(marker & ~exec::kMarkerOp);
  EXPECT_EQ(trigger.event, 3u);
  EXPECT_EQ(std::vector<size_t>(again->queries(trigger).begin(),
                                again->queries(trigger).end()),
            queries);
  SharedBatchPool::Release(again);
  EXPECT_EQ(pool.counts().created, 1u);
  EXPECT_EQ(pool.counts().acquires, pool.counts().returns);
}

TEST(IndexOpTest, GroupedPredicateQueryMatchesSerial) {
  Schema schema;
  const std::vector<Event> events = SparseTrace(&schema, 31, 6000);
  CompiledQuery cq = MustCompile(&schema, kSparseQuery);
  auto ref_engine = MustCreateAseq(cq);
  RunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u);
  ASSERT_GT(ref_engine->stats().adm_rejected_local, 0u);
  ASSERT_GT(ref_engine->stats().adm_missing_attr, 0u);
  const uint64_t named = SpyEngine::NamedCount(cq, events);
  ASSERT_LT(named * 2, events.size()) << "most events must be unused types";

  for (size_t shards : {2, 4}) {
    for (size_t batch_size : {1, 64, 256}) {
      const std::string context = "sparse shards=" + std::to_string(shards) +
                                  " batch=" + std::to_string(batch_size);
      SpyCounts counts;
      RunOptions options;
      options.num_shards = shards;
      options.batch_size = batch_size;
      std::string reason;
      auto policy = exec::MakePolicy(cq, SpyFactory(cq, &events, &counts),
                                     options, &reason);
      ASSERT_TRUE(policy.ok()) << context;
      ASSERT_TRUE(reason.empty()) << context << ": " << reason;
      PoisoningSource source(&events);
      RunResult got = (*policy)->Run(&source);
      ExpectOutputsEqual(ref.outputs, got.outputs, context);
      ExpectAllStatsEqual(ref_engine->stats(), (*policy)->stats(), context);
      EXPECT_EQ(counts.wrong.load(), 0u) << context;
      EXPECT_EQ(counts.fed.load(), named) << context;
      EXPECT_EQ(got.coordinator.unshipped_events, events.size() - named)
          << context;
      ExpectPoolHome(PoolOf(policy->get()), context);
    }
  }
}

TEST(IndexOpTest, RestoreMidRunMatchesSerial) {
  // The unshipped-event count lives in the snapshot's merged stats: a
  // resumed run must charge the events no shard saw before the snapshot.
  Schema schema;
  const std::vector<Event> events = SparseTrace(&schema, 34, 6000);
  CompiledQuery cq = MustCompile(&schema, kSparseQuery);
  auto ref_engine = MustCreateAseq(cq);
  RunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u);

  for (size_t shards : {2, 4}) {
    const std::string context = "sparse restore shards=" +
                                std::to_string(shards);
    const std::string dir = ::testing::TempDir() + "/sparse-restore-" +
                            std::to_string(shards);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    SpyCounts counts;
    RunOptions options;
    options.num_shards = shards;
    options.batch_size = 64;
    options.checkpoint_every = 2500;
    options.checkpoint_dir = dir;
    auto full = exec::MakePolicy(cq, SpyFactory(cq, &events, &counts),
                                 options);
    ASSERT_TRUE(full.ok()) << context;
    PoisoningSource full_source(&events);
    RunResult full_run = (*full)->Run(&full_source);
    ASSERT_TRUE(full_run.checkpoint_status.ok()) << context;
    ExpectAllStatsEqual(ref_engine->stats(), (*full)->stats(), context);

    RunOptions tail_options;
    tail_options.num_shards = shards;
    tail_options.batch_size = 64;
    auto resumed = exec::MakePolicy(cq, SpyFactory(cq, &events, &counts),
                                    tail_options);
    ASSERT_TRUE(resumed.ok()) << context;
    uint64_t offset = 0;
    Status restored = (*resumed)->Restore(
        ckpt::SnapshotPathForOffset(dir, 2560), &offset);
    ASSERT_TRUE(restored.ok()) << context << ": " << restored.ToString();
    ASSERT_EQ(offset, 2560u) << context;
    PoisoningSource tail_source(&events);
    SkipEvents(&tail_source, offset);
    RunResult tail_run = (*resumed)->Run(&tail_source);

    std::vector<Output> combined;
    for (const Output& o : ref.outputs) {
      if (o.seq < offset) combined.push_back(o);
    }
    combined.insert(combined.end(), tail_run.outputs.begin(),
                    tail_run.outputs.end());
    ExpectOutputsEqual(ref.outputs, combined, context);
    ExpectBatchStatsEqual(ref_engine->stats(), (*resumed)->stats(), context);
    EXPECT_EQ(counts.wrong.load(), 0u) << context;
    ExpectPoolHome(PoolOf(resumed->get()), context);
  }
}

TEST(IndexOpTest, SupervisedReplayMatchesSerial) {
  // A crashed shard is rebuilt and fed its replay log: the pinned shared
  // batches plus the lane's op words since the recovery point.
  Schema schema;
  const std::vector<Event> events = SparseTrace(&schema, 32, 6000);
  CompiledQuery cq = MustCompile(&schema, kSparseQuery);
  auto ref_engine = MustCreateAseq(cq);
  RunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u);
  const uint64_t named = SpyEngine::NamedCount(cq, events);

  for (size_t shards : {2, 4}) {
    const std::string context = "sparse supervised shards=" +
                                std::to_string(shards);
    SpyCounts counts;
    RunOptions options;
    options.num_shards = shards;
    options.batch_size = 64;
    options.supervise = true;
    options.recovery_every = 1024;
    auto policy = exec::MakePolicy(cq, SpyFactory(cq, &events, &counts),
                                   options);
    ASSERT_TRUE(policy.ok()) << context;
    ASSERT_TRUE(fault::Injector::Global().Arm("worker.op@1:250:crash", 9).ok());
    PoisoningSource source(&events);
    RunResult got = (*policy)->Run(&source);
    fault::Injector::Global().Disarm();
    ASSERT_TRUE(got.fault_status.ok()) << context << ": "
                                       << got.fault_status.ToString();
    EXPECT_GT((*policy)->stats().fault_restarts, 0u) << context;
    EXPECT_GT((*policy)->stats().fault_replayed_events, 0u) << context;
    ExpectOutputsEqual(ref.outputs, got.outputs, context);
    ExpectBatchStatsEqual(ref_engine->stats(), (*policy)->stats(), context);
    EXPECT_EQ(counts.wrong.load(), 0u) << context;
    // Replayed events are fed twice.
    EXPECT_GT(counts.fed.load(), named) << context;
    ExpectPoolHome(PoolOf(policy->get()), context);
  }
}

/// Lends `*events` in batches of 64 and records, as it lends each batch,
/// how many outputs a sink had received by then. Before lending batch
/// `pause_at` it waits (bounded) until `*fed` reaches `fed_goal`.
class WatchedSource : public StreamSource {
 public:
  WatchedSource(const std::vector<Event>* events, const size_t* taken,
                const std::atomic<uint64_t>* fed, size_t pause_at,
                uint64_t fed_goal)
      : events_(events),
        taken_(taken),
        fed_(fed),
        pause_at_(pause_at),
        fed_goal_(fed_goal) {}

  std::span<Event> BorrowBatch(size_t max) override {
    if (taken_at_borrow_.size() == pause_at_) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(20);
      while (fed_->load() < fed_goal_ &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    taken_at_borrow_.push_back(*taken_);
    const size_t n = std::min(max, events_->size() - pos_);
    batch_.assign(events_->begin() + static_cast<ptrdiff_t>(pos_),
                  events_->begin() + static_cast<ptrdiff_t>(pos_ + n));
    pos_ += n;
    return {batch_.data(), n};
  }
  void Reset() override { pos_ = 0; }

  const std::vector<size_t>& taken_at_borrow() const {
    return taken_at_borrow_;
  }

 private:
  const std::vector<Event>* events_;
  const size_t* taken_;
  const std::atomic<uint64_t>* fed_;
  size_t pause_at_;
  uint64_t fed_goal_;
  std::vector<Event> batch_;
  size_t pos_ = 0;
  std::vector<size_t> taken_at_borrow_;
};

struct CountingSink : OutputSink {
  void TakeOutputs(std::span<const Output> outputs) override {
    taken.insert(taken.end(), outputs.begin(), outputs.end());
    count = taken.size();
  }
  std::vector<Output> taken;
  size_t count = 0;
};

/// An HPC engine that counts the events it was fed, over every shard.
class FedCountingEngine : public HpcEngine {
 public:
  FedCountingEngine(const CompiledQuery& cq, std::atomic<uint64_t>* fed)
      : HpcEngine(cq), fed_(fed) {}
  void OnBatch(std::span<const Event> batch,
               std::vector<Output>* out) override {
    HpcEngine::OnBatch(batch, out);
    fed_->fetch_add(batch.size());
  }

 private:
  std::atomic<uint64_t>* fed_;
};

TEST(SharedBatchPoolTest, IdleLaneNeitherHoldsBatchesNorStallsTheMerge) {
  // Unbounded query (no purge markers) and one GROUP BY key for the first
  // 3000 events: shard 1 gets no ops for ~47 batches. Outputs must still
  // stream to the sink while the run goes on, and every batch come home.
  Schema schema;
  const EventTypeId a = schema.RegisterEventType("A");
  const EventTypeId b = schema.RegisterEventType("B");
  const EventTypeId unused = schema.RegisterEventType("U");
  const AttrId key = schema.RegisterAttribute("k");
  std::mt19937_64 rng(41);
  std::vector<Event> events;
  for (size_t i = 0; i < 4000; ++i) {
    const uint64_t r = rng() % 4;
    Event e(r == 0 ? a : r == 1 ? b : unused, static_cast<Timestamp>(i));
    e.SetAttr(key, Value(int64_t(i < 3000 ? 0 : rng() % 4)));
    events.push_back(std::move(e));
  }
  AssignSeqNums(&events);
  CompiledQuery cq =
      MustCompile(&schema, "PATTERN SEQ(A, B) GROUP BY k AGG COUNT");
  auto ref_engine = MustCreateAseq(cq);
  RunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u);
  // Batch 40 is lent once shard 0 ran every event of batches 0-39 (all of
  // key 0, so all on shard 0), while shard 1 has had nothing to do.
  constexpr size_t kPauseAt = 40;
  uint64_t fed_goal = 0;
  for (size_t i = 0; i < kPauseAt * 64; ++i) {
    if (events[i].type() != unused) ++fed_goal;
  }

  std::atomic<uint64_t> fed{0};
  CountingSink sink;
  RunOptions options;
  options.num_shards = 2;
  options.batch_size = 64;
  options.output_sink = &sink;
  std::string reason;
  auto policy = exec::MakePolicy(
      cq,
      [&]() -> Result<std::unique_ptr<QueryEngine>> {
        return std::unique_ptr<QueryEngine>(
            std::make_unique<FedCountingEngine>(cq, &fed));
      },
      options, &reason);
  ASSERT_TRUE(policy.ok());
  ASSERT_TRUE(reason.empty()) << reason;
  WatchedSource source(&events, &sink.count, &fed, kPauseAt, fed_goal);
  RunResult got = (*policy)->Run(&source);
  ExpectOutputsEqual(ref.outputs, sink.taken, "idle lane");
  ExpectAllStatsEqual(ref_engine->stats(), (*policy)->stats(), "idle lane");
  ExpectPoolHome(PoolOf(policy->get()), "idle lane");
  ASSERT_GE(fed.load(), fed_goal);
  // Publishing batch 40 collects shard 0's drained items, and the merge
  // below the watermark reaches the sink before batch 41 is lent: the idle
  // shard 1 holds nothing back.
  ASSERT_GT(source.taken_at_borrow().size(), kPauseAt + 1);
  EXPECT_EQ(source.taken_at_borrow()[0], 0u);
  EXPECT_GT(source.taken_at_borrow()[kPauseAt + 1], 0u)
      << "outputs waited for the idle lane";
}

TEST(SharedBatchPoolTest, SupervisedRestartsReturnEveryPinnedBatch) {
  // Crashes on both lanes, a short recovery interval: restarts replay
  // pinned batches, recovery points unpin them, and every batch comes home
  // exactly once.
  auto c = MakeStock(136, 5000);
  CompiledQuery cq = MustCompile(&c->schema, kRecyclingQuery);
  auto ref_engine = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_engine.ok());
  RunResult ref = RunPerEvent(c->events, ref_engine->get());
  for (const char* spec :
       {"worker.op@0:400:crash", "worker.op@1:300:crash,worker.op@0:900:crash"}) {
    const std::string context = std::string("pool ") + spec;
    RunOptions options;
    options.num_shards = 2;
    options.batch_size = 32;
    options.supervise = true;
    options.recovery_every = 700;
    auto policy = exec::MakePolicy(cq, AseqFactory(cq), options);
    ASSERT_TRUE(policy.ok()) << context;
    ASSERT_TRUE(fault::Injector::Global().Arm(spec, 9).ok()) << context;
    PoisoningSource source(&c->events);
    RunResult got = (*policy)->Run(&source);
    fault::Injector::Global().Disarm();
    ASSERT_TRUE(got.fault_status.ok()) << context << ": "
                                       << got.fault_status.ToString();
    EXPECT_GT((*policy)->stats().fault_restarts, 0u) << context;
    EXPECT_GT((*policy)->stats().fault_replayed_events, 0u) << context;
    ExpectOutputsEqual(ref.outputs, got.outputs, context);
    ExpectBatchStatsEqual((*ref_engine)->stats(), (*policy)->stats(), context);
    ExpectPoolHome(PoolOf(policy->get()), context);
  }
}

TEST(IndexOpTest, SparseWorkloadMatchesSerialUnderEveryStrategy) {
  Schema schema;
  const std::vector<Event> events = SparseTrace(&schema, 33, 5000);
  // Chop-Connect and PreTree accept no local predicates; they run the same
  // shape without them (unused types and keyless events stay).
  const std::vector<CompiledQuery> plain = MustCompileAll(
      &schema,
      {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 300ms",
       "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT "
       "WITHIN 300ms"});
  const std::vector<CompiledQuery> filtered = MustCompileAll(
      &schema,
      {"PATTERN SEQ(DELL, IPIX) WHERE DELL.price > 30 GROUP BY traderId AGG "
       "COUNT WITHIN 300ms",
       "PATTERN SEQ(DELL, !QQQ, AMAT) WHERE AMAT.volume < 800 GROUP BY "
       "traderId AGG COUNT WITHIN 300ms"});
  for (const char* strategy : kSharingStrategies) {
    const std::string name = strategy;
    const std::vector<CompiledQuery>& queries =
        name == "cc" || name == "pretree" ? plain : filtered;
    exec::MultiEngineFactory factory = MultiFactory(name, queries);
    auto ref_engine = factory();
    ASSERT_TRUE(ref_engine.ok()) << name << ": "
                                 << ref_engine.status().ToString();
    MultiRunResult ref = RunPerEvent(events, ref_engine->get());
    ASSERT_GT(ref.outputs.size(), 0u) << name;
    if (&queries == &filtered) {
      ASSERT_GT((*ref_engine)->stats().adm_rejected_local, 0u) << name;
      ASSERT_GT((*ref_engine)->stats().adm_missing_attr, 0u) << name;
    }
    for (size_t shards : {2, 3}) {
      const std::string context =
          "sparse workload " + name + " shards=" + std::to_string(shards);
      RunOptions options;
      options.num_shards = shards;
      options.batch_size = 64;
      std::string reason;
      auto policy = exec::MakeMultiPolicy(queries, factory, options, &reason);
      ASSERT_TRUE(policy.ok()) << context;
      ASSERT_TRUE(reason.empty()) << context << ": " << reason;
      PoisoningSource source(&events);
      MultiRunResult got = (*policy)->Run(&source);
      ExpectMultiOutputsEqual(ref.outputs, got.outputs, context);
      ExpectAllStatsEqual((*ref_engine)->stats(), (*policy)->stats(), context);
    }
  }
}

}  // namespace
}  // namespace aseq
