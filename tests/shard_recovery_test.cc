// Sharded crash recovery: a sharded run that checkpoints periodically,
// dies, and is restored into a *freshly built* sharded policy must replay
// the trace tail to outputs and merged stats byte-identical to both the
// uninterrupted serial run and the uninterrupted sharded run. The
// multi-shard snapshot container must also reject mismatched shard counts
// and non-sharded snapshots up front.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "ckpt/snapshot.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "fault/fault.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/composite_engine.h"
#include "multi/pretree_engine.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::ExpectMultiOutputsEqual;
using testing_util::ExpectOutputsEqual;
using testing_util::ExpectStatsEqual;
using testing_util::MakeStock;
using testing_util::MustCompile;
using testing_util::RunPerEvent;

constexpr size_t kShards = 3;
constexpr size_t kBatchSize = 64;
constexpr size_t kCheckpointEvery = 500;

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::unique_ptr<exec::ExecutionPolicy> MustMakeSharded(
    const CompiledQuery& cq, const RunOptions& options) {
  std::string reason;
  auto policy = exec::MakePolicy(
      cq, [&cq] { return CreateAseqEngine(cq); }, options, &reason);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_TRUE(reason.empty()) << reason;
  EXPECT_EQ((*policy)->num_shards(), options.num_shards);
  return std::move(policy).value();
}

/// The full kill/restore matrix over one query: run sharded with periodic
/// checkpoints, then for every snapshot written, restore a fresh sharded
/// policy from it, replay the tail, and require (prefix + tail) outputs
/// and final merged stats to equal the uninterrupted serial reference.
/// `fault_spec`, if set, is armed for the checkpointing run only (the
/// backlogged-queue variant injects slow workers with it).
void CheckShardedRecovery(const std::string& query_text,
                          const std::string& label,
                          const std::string& fault_spec = "") {
  auto c = MakeStock(321, 3000);
  CompiledQuery cq = MustCompile(&c->schema, query_text);

  // Serial uninterrupted reference.
  auto ref_engine_or = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_engine_or.ok());
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_engine_or).value();
  RunResult ref = RunPerEvent(c->events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  // Sharded run with periodic checkpoints.
  const std::string dir = FreshDir("shard-recovery-" + label);
  RunOptions options;
  options.num_shards = kShards;
  options.batch_size = kBatchSize;
  options.checkpoint_every = kCheckpointEvery;
  options.checkpoint_dir = dir;
  auto full = MustMakeSharded(cq, options);
  if (!fault_spec.empty()) {
    ASSERT_TRUE(fault::Injector::Global().Arm(fault_spec, 5).ok())
        << fault_spec;
  }
  RunResult full_run = full->RunEvents(c->events);
  fault::Injector::Global().Disarm();
  ASSERT_TRUE(full_run.checkpoint_status.ok())
      << full_run.checkpoint_status.ToString();
  ASSERT_GT(full_run.checkpoints_written, 2u) << label;
  ExpectOutputsEqual(ref.outputs, full_run.outputs, label + " full-sharded");

  std::vector<std::string> snapshots;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    snapshots.push_back(entry.path().string());
  }
  std::sort(snapshots.begin(), snapshots.end());
  ASSERT_EQ(snapshots.size(), full_run.checkpoints_written) << label;

  for (const std::string& snapshot : snapshots) {
    const std::string context = label + " restore@" + snapshot;
    RunOptions tail_options;
    tail_options.num_shards = kShards;
    tail_options.batch_size = kBatchSize;
    auto resumed = MustMakeSharded(cq, tail_options);
    uint64_t offset = 0;
    Status restored = resumed->Restore(snapshot, &offset);
    ASSERT_TRUE(restored.ok()) << context << ": " << restored.ToString();
    ASSERT_LE(offset, c->events.size()) << context;

    std::vector<Event> tail(c->events.begin() + static_cast<ptrdiff_t>(offset),
                            c->events.end());
    RunResult tail_run = resumed->RunEvents(tail);

    // Prefix outputs (everything with seq < offset) + tail outputs must be
    // exactly the uninterrupted output sequence.
    std::vector<Output> combined;
    for (const Output& o : ref.outputs) {
      if (o.seq < offset) combined.push_back(o);
    }
    const size_t prefix_count = combined.size();
    combined.insert(combined.end(), tail_run.outputs.begin(),
                    tail_run.outputs.end());
    // The final snapshot may land exactly at end-of-stream — its tail is
    // legitimately empty; mid-stream snapshots must produce tail outputs.
    if (offset < c->events.size()) {
      EXPECT_GT(tail_run.outputs.size(), 0u) << context;
    }
    EXPECT_GT(prefix_count, 0u) << context;
    ExpectOutputsEqual(ref.outputs, combined, context);
    ExpectStatsEqual(ref_engine->stats(), resumed->stats(), context);
  }
}

TEST(ShardRecoveryTest, GroupedCount) {
  CheckShardedRecovery(
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
      "count");
}

TEST(ShardRecoveryTest, GroupedSum) {
  CheckShardedRecovery(
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
      "WITHIN 800ms",
      "sum");
}

TEST(ShardRecoveryTest, GroupedNegation) {
  CheckShardedRecovery(
      "PATTERN SEQ(DELL, !QQQ, AMAT) GROUP BY traderId AGG COUNT "
      "WITHIN 800ms",
      "negation");
}

TEST(ShardRecoveryTest, CheckpointWithBackloggedQueues) {
  // Injected slow workers keep the per-shard queues non-empty when the
  // checkpoint barrier is requested: the barrier must drain every queue
  // before capture, so the snapshots stay consistent and the whole
  // restore matrix still replays bit-exact.
  CheckShardedRecovery(
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
      "backlog", "worker.op@0:1:slow:2000,worker.op@1:1:slow:2000");
}

// ---------------------------------------------------------------------------
// Multi-query workloads: the kill/restore matrix over sharding engines
// ---------------------------------------------------------------------------

/// One factory per sharing strategy over a workload every strategy
/// accepts (positive-only COUNT, shared window, shared GROUP BY).
exec::MultiEngineFactory MultiFactory(
    const std::string& strategy, const std::vector<CompiledQuery>& queries) {
  if (strategy == "cc") {
    return [&queries]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      ASEQ_ASSIGN_OR_RETURN(
          auto e, ChopConnectEngine::Create(queries, PlanChopConnect(queries)));
      return std::unique_ptr<MultiQueryEngine>(std::move(e));
    };
  }
  if (strategy == "pretree") {
    return [&queries]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      ASEQ_ASSIGN_OR_RETURN(auto e, PreTreeEngine::Create(queries));
      return std::unique_ptr<MultiQueryEngine>(std::move(e));
    };
  }
  if (strategy == "hybrid") {
    return [&queries]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      ASEQ_ASSIGN_OR_RETURN(auto e, CompositeEngine::CreateHybrid(queries));
      return std::unique_ptr<MultiQueryEngine>(std::move(e));
    };
  }
  EXPECT_EQ(strategy, "nonshare") << "unknown strategy";
  return [&queries]() -> Result<std::unique_ptr<MultiQueryEngine>> {
    ASEQ_ASSIGN_OR_RETURN(auto e, CompositeEngine::CreateNonShare(queries));
    return std::unique_ptr<MultiQueryEngine>(std::move(e));
  };
}

std::unique_ptr<exec::MultiExecutionPolicy> MustMakeMultiSharded(
    const std::vector<CompiledQuery>& queries,
    const exec::MultiEngineFactory& factory, const RunOptions& options) {
  std::string reason;
  auto policy = exec::MakeMultiPolicy(queries, factory, options, &reason);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_TRUE(reason.empty()) << reason;
  EXPECT_EQ((*policy)->num_shards(), options.num_shards);
  return std::move(policy).value();
}

/// CheckShardedRecovery over a whole workload: run the sharded sharing
/// engine with periodic checkpoints, then restore a freshly built sharded
/// policy from every snapshot written and require (prefix + tail) outputs
/// and final merged stats to equal the uninterrupted serial reference.
void CheckMultiShardedRecovery(const std::string& strategy,
                               const std::string& label) {
  auto c = MakeStock(421, 3000);
  std::vector<CompiledQuery> queries;
  for (const char* text :
       {"PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
        "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT "
        "WITHIN 800ms",
        "PATTERN SEQ(IPIX, DELL) GROUP BY traderId AGG COUNT WITHIN 800ms"}) {
    queries.push_back(MustCompile(&c->schema, text));
  }
  exec::MultiEngineFactory factory = MultiFactory(strategy, queries);

  // Serial uninterrupted reference.
  auto ref_engine_or = factory();
  ASSERT_TRUE(ref_engine_or.ok())
      << label << ": " << ref_engine_or.status().ToString();
  std::unique_ptr<MultiQueryEngine> ref_engine =
      std::move(ref_engine_or).value();
  MultiRunResult ref = RunPerEvent(c->events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  // Sharded run with periodic checkpoints.
  const std::string dir = FreshDir("multi-shard-recovery-" + label);
  RunOptions options;
  options.num_shards = kShards;
  options.batch_size = kBatchSize;
  options.checkpoint_every = kCheckpointEvery;
  options.checkpoint_dir = dir;
  auto full = MustMakeMultiSharded(queries, factory, options);
  MultiRunResult full_run = full->RunEvents(c->events);
  ASSERT_TRUE(full_run.checkpoint_status.ok())
      << full_run.checkpoint_status.ToString();
  ASSERT_GT(full_run.checkpoints_written, 2u) << label;
  ExpectMultiOutputsEqual(ref.outputs, full_run.outputs,
                          label + " full-sharded");

  std::vector<std::string> snapshots;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    snapshots.push_back(entry.path().string());
  }
  std::sort(snapshots.begin(), snapshots.end());
  ASSERT_EQ(snapshots.size(), full_run.checkpoints_written) << label;

  for (const std::string& snapshot : snapshots) {
    const std::string context = label + " restore@" + snapshot;
    RunOptions tail_options;
    tail_options.num_shards = kShards;
    tail_options.batch_size = kBatchSize;
    auto resumed = MustMakeMultiSharded(queries, factory, tail_options);
    uint64_t offset = 0;
    Status restored = resumed->Restore(snapshot, &offset);
    ASSERT_TRUE(restored.ok()) << context << ": " << restored.ToString();
    ASSERT_LE(offset, c->events.size()) << context;

    std::vector<Event> tail(c->events.begin() + static_cast<ptrdiff_t>(offset),
                            c->events.end());
    MultiRunResult tail_run = resumed->RunEvents(tail);

    std::vector<MultiOutput> combined;
    for (const MultiOutput& o : ref.outputs) {
      if (o.output.seq < offset) combined.push_back(o);
    }
    const size_t prefix_count = combined.size();
    combined.insert(combined.end(), tail_run.outputs.begin(),
                    tail_run.outputs.end());
    if (offset < c->events.size()) {
      EXPECT_GT(tail_run.outputs.size(), 0u) << context;
    }
    EXPECT_GT(prefix_count, 0u) << context;
    ExpectMultiOutputsEqual(ref.outputs, combined, context);
    ExpectStatsEqual(ref_engine->stats(), resumed->stats(), context);
  }
}

TEST(ShardRecoveryTest, MultiChopConnect) {
  CheckMultiShardedRecovery("cc", "multi-cc");
}

TEST(ShardRecoveryTest, MultiPreTree) {
  CheckMultiShardedRecovery("pretree", "multi-pretree");
}

TEST(ShardRecoveryTest, MultiHybrid) {
  CheckMultiShardedRecovery("hybrid", "multi-hybrid");
}

TEST(ShardRecoveryTest, MultiNonShare) {
  CheckMultiShardedRecovery("nonshare", "multi-nonshare");
}

TEST(ShardRecoveryTest, MultiSerialSnapshotRejectedBySharded) {
  // A serial multi-query snapshot must not restore into the sharded
  // container (and vice versa the name check catches it up front).
  auto c = MakeStock(422, 1500);
  std::vector<CompiledQuery> queries;
  queries.push_back(MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms"));
  exec::MultiEngineFactory factory = MultiFactory("pretree", queries);
  auto engine_or = factory();
  ASSERT_TRUE(engine_or.ok());
  std::unique_ptr<MultiQueryEngine> engine = std::move(engine_or).value();
  RunPerEvent(c->events, engine.get());
  const std::string path =
      ::testing::TempDir() + "/multi-shard-recovery-serial.aseqckpt";
  ASSERT_TRUE(ckpt::SaveEngineSnapshot(path, *engine, c->events.size()).ok());

  RunOptions options;
  options.num_shards = kShards;
  auto resumed = MustMakeMultiSharded(queries, factory, options);
  uint64_t offset = 0;
  Status restored = resumed->Restore(path, &offset);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.ToString().find("Sharded["), std::string::npos)
      << restored.ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Container validation
// ---------------------------------------------------------------------------

TEST(ShardRecoveryTest, ShardCountMismatchRejected) {
  auto c = MakeStock(322, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  const std::string dir = FreshDir("shard-recovery-mismatch");
  RunOptions options;
  options.num_shards = kShards;
  options.batch_size = kBatchSize;
  options.checkpoint_every = 700;
  options.checkpoint_dir = dir;
  auto policy = MustMakeSharded(cq, options);
  RunResult run = policy->RunEvents(c->events);
  ASSERT_GT(run.checkpoints_written, 0u);
  const std::string snapshot =
      ckpt::SnapshotPathForOffset(dir, run.last_checkpoint_offset);

  RunOptions other;
  other.num_shards = kShards + 1;
  auto resumed = MustMakeSharded(cq, other);
  uint64_t offset = 0;
  Status restored = resumed->Restore(snapshot, &offset);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.ToString().find("rerun with --shards"),
            std::string::npos)
      << restored.ToString();
}

TEST(ShardRecoveryTest, SerialSnapshotRejectedBySharded) {
  auto c = MakeStock(323, 1500);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  auto engine_or = CreateAseqEngine(cq);
  ASSERT_TRUE(engine_or.ok());
  std::unique_ptr<QueryEngine> engine = std::move(engine_or).value();
  RunPerEvent(c->events, engine.get());
  const std::string path =
      ::testing::TempDir() + "/shard-recovery-serial.aseqckpt";
  ASSERT_TRUE(ckpt::SaveEngineSnapshot(path, *engine, c->events.size()).ok());

  RunOptions options;
  options.num_shards = kShards;
  auto resumed = MustMakeSharded(cq, options);
  uint64_t offset = 0;
  Status restored = resumed->Restore(path, &offset);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.ToString().find("Sharded["), std::string::npos)
      << restored.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aseq
