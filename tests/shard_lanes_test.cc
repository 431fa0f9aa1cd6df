// The sharded dataplane on its own, with no engines: the coordinator's
// push gives up on a stop request or (supervised) a dead consumer instead
// of parking forever, a barrier waits for every queued item, and a worker's
// pop exits on quarantine without draining its ring.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "engine/runtime.h"
#include "exec/shard_lanes.h"
#include "exec/shard_supervisor.h"

namespace aseq {
namespace exec {
namespace {

LaneItem OpsItem(size_t ops) {
  return LaneItem{LaneItem::Tag::kOps, std::vector<ShardOp>(ops), ops};
}

/// Fills shard 0's ring to capacity with no worker to drain it.
void FillRing(ShardLanes* lanes) {
  for (size_t i = 0; i < ShardLanes::kMaxQueuedItems; ++i) {
    LaneItem item = OpsItem(1);
    ASSERT_EQ(lanes->Push(0, item), PushResult::kPushed) << i;
  }
  ASSERT_TRUE(lanes->lane(0).ring.Full());
}

TEST(ShardLanesTest, PushOnFullRingReturnsStoppedUnderStopRequest) {
  std::atomic<bool> stop{false};
  RunOptions options;
  options.stop_requested = &stop;
  ShardLanes lanes(1, options, /*supervisor=*/nullptr);
  lanes.ResetForRun();
  FillRing(&lanes);

  stop.store(true);
  LaneItem item = OpsItem(1);
  EXPECT_EQ(lanes.Push(0, item), PushResult::kStopped);
  EXPECT_TRUE(lanes.stop_stalled());
  EXPECT_EQ(item.ops.size(), 1u) << "a refused item stays with the caller";
  EXPECT_EQ(lanes.full_waits(), 1u);
  lanes.StopWorkers();  // no worker to join; must not block
}

TEST(ShardLanesTest, SupervisedPushReturnsFailedWhenTheConsumerIsDead) {
  RunOptions options;
  options.supervise = true;
  // Wired the way the coordinator wires them: the lanes consult the
  // supervisor as their watchdog.
  struct Pair {
    explicit Pair(const RunOptions& o)
        : supervisor(1, o, &lanes), lanes(1, o, &supervisor) {}
    ShardSupervisor supervisor;
    ShardLanes lanes;
  } pair(options);
  pair.lanes.ResetForRun();
  pair.supervisor.ResetForRun();
  FillRing(&pair.lanes);

  pair.lanes.lane(0).dead.store(true);
  LaneItem item = OpsItem(1);
  EXPECT_EQ(pair.lanes.Push(0, item), PushResult::kFailed);
  EXPECT_FALSE(pair.lanes.stop_stalled());
  EXPECT_TRUE(pair.supervisor.LaneFailed(0));
  pair.lanes.StopWorkers();
}

TEST(ShardLanesTest, BarrierWaitsForEveryQueuedItem) {
  RunOptions options;
  ShardLanes lanes(2, options, nullptr);
  lanes.ResetForRun();
  std::atomic<size_t> popped[2] = {0, 0};
  for (size_t s = 0; s < 2; ++s) {
    lanes.Spawn(s, [&lanes, &popped, s] {
      LaneItem item;
      while (lanes.Pop(s, &item)) popped[s].fetch_add(item.live);
    });
  }
  for (size_t i = 0; i < 40; ++i) {
    LaneItem item = OpsItem(3);
    ASSERT_EQ(lanes.Push(i % 2, item), PushResult::kPushed);
  }
  size_t failed = 0;
  ASSERT_EQ(lanes.Barrier(&failed), PushResult::kPushed);
  // Every item queued ahead of the tokens ran before its worker arrived.
  EXPECT_EQ(popped[0].load(), 60u);
  EXPECT_EQ(popped[1].load(), 60u);
  EXPECT_TRUE(lanes.lane(0).at_barrier.load());
  lanes.ResumeAll();
  lanes.StopWorkers();
  EXPECT_FALSE(lanes.stop_stalled());
}

TEST(ShardLanesTest, PopExitsOnQuarantineWithoutDraining) {
  RunOptions options;
  ShardLanes lanes(1, options, nullptr);
  lanes.ResetForRun();
  for (size_t i = 0; i < 3; ++i) {
    LaneItem item = OpsItem(1);
    ASSERT_EQ(lanes.Push(0, item), PushResult::kPushed);
  }
  // Quarantined before it starts: the worker must leave the queued items
  // for a restart to replay.
  lanes.lane(0).quarantine.store(true);
  std::atomic<size_t> popped{0};
  lanes.Spawn(0, [&] {
    LaneItem item;
    while (lanes.Pop(0, &item)) popped.fetch_add(1);
  });
  lanes.Reap(0);
  EXPECT_EQ(popped.load(), 0u);
  EXPECT_EQ(lanes.lane(0).ring.size(), 3u);

  // An idle worker parked on an empty ring wakes and exits too.
  lanes.ResetAfterJoin(0);
  EXPECT_TRUE(lanes.lane(0).ring.Empty());
  lanes.Spawn(0, [&] {
    LaneItem item;
    while (lanes.Pop(0, &item)) popped.fetch_add(1);
  });
  lanes.Reap(0);
  EXPECT_EQ(popped.load(), 0u);
}

}  // namespace
}  // namespace exec
}  // namespace aseq
