// The sharded dataplane on its own, with no engines: the coordinator's
// push gives up on a stop request or (supervised) a dead consumer instead
// of parking forever, a barrier waits for every queued item, a worker's
// pop exits on quarantine without draining its ring, and the finished
// count hands result slots back in publication order.

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

LaneItem OpsItem(uint32_t slot = 0) { return LaneItem{.slot = slot}; }

/// Fills shard 0's ring to capacity with no worker to drain it.
void FillRing(ShardLanes* lanes) {
  for (size_t i = 0; i < ShardLanes::kMaxQueuedItems; ++i) {
    LaneItem item = OpsItem();
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
  LaneItem item = OpsItem();
  EXPECT_EQ(lanes.Push(0, item), PushResult::kStopped);
  EXPECT_TRUE(lanes.stop_stalled());
  EXPECT_EQ(lanes.lane(0).ring.size(), ShardLanes::kMaxQueuedItems)
      << "a refused item is not queued";
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
  LaneItem item = OpsItem();
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
      while (lanes.Pop(s, &item)) popped[s].fetch_add(1);
    });
  }
  for (size_t i = 0; i < 40; ++i) {
    LaneItem item = OpsItem();
    ASSERT_EQ(lanes.Push(i % 2, item), PushResult::kPushed);
  }
  size_t failed = 0;
  ASSERT_EQ(lanes.Barrier(&failed), PushResult::kPushed);
  // Every item queued ahead of the tokens ran before its worker arrived.
  EXPECT_EQ(popped[0].load(), 20u);
  EXPECT_EQ(popped[1].load(), 20u);
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
    LaneItem item = OpsItem();
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

TEST(ShardLanesTest, FinishedCountHandsSlotsBackInPublicationOrder) {
  // The executor's protocol in miniature: the coordinator writes a slot's
  // input before the push; the worker writes the slot's result, then bumps
  // the finished count; the coordinator reads the count and takes slots in
  // publication order, collecting before each push. Plain vectors: under
  // ThreadSanitizer a missing happens-before edge is a reported race.
  RunOptions options;
  ShardLanes lanes(1, options, nullptr);
  lanes.ResetForRun();
  ShardLanes::Lane& lane = lanes.lane(0);
  std::vector<uint64_t> in(ShardLanes::kDoneSlots), out(ShardLanes::kDoneSlots);
  lanes.Spawn(0, [&] {
    LaneItem item;
    while (lanes.Pop(0, &item)) {
      out[item.slot] = 10 * in[item.slot] + 1;
      lane.CountFinished();
    }
  });
  uint64_t collected = 0;
  auto collect = [&] {
    const uint64_t finished = lane.finished.load(std::memory_order_acquire);
    for (; collected < finished; ++collected) {
      ASSERT_EQ(out[collected % ShardLanes::kDoneSlots], 10 * collected + 1)
          << collected;
    }
  };
  // Three times round the slots.
  const uint64_t items = 3 * ShardLanes::kDoneSlots;
  for (uint64_t i = 0; i < items; ++i) {
    collect();
    ASSERT_LT(i - collected, ShardLanes::kDoneSlots) << "slot still in use";
    const uint32_t slot = static_cast<uint32_t>(i % ShardLanes::kDoneSlots);
    in[slot] = i;
    LaneItem item = OpsItem(slot);
    ASSERT_EQ(lanes.Push(0, item), PushResult::kPushed) << i;
  }
  size_t failed = 0;
  ASSERT_EQ(lanes.Barrier(&failed), PushResult::kPushed);
  // Every item queued before the token is finished and counted.
  collect();
  EXPECT_EQ(collected, items);
  lanes.ResumeAll();
  lanes.StopWorkers();
  // A reset (a restart's, after the join) zeroes the count with the ring.
  lanes.ResetAfterJoin(0);
  EXPECT_EQ(lane.finished.load(), 0u);
}

TEST(ShardLanesTest, ResetReleasesTheBatchesOfQueuedItems) {
  // A restart clears the lane's ring: the items it held never run, so the
  // reset must drop their batch references or the batch never comes home.
  RunOptions options;
  ShardLanes lanes(1, options, nullptr);
  lanes.ResetForRun();
  SharedBatchPool pool;
  SharedBatch* batch = pool.Acquire();
  for (size_t i = 0; i < 3; ++i) {
    SharedBatchPool::Ref(batch);
    LaneItem item = OpsItem();
    item.batch = batch;
    ASSERT_EQ(lanes.Push(0, item), PushResult::kPushed);
  }
  SharedBatchPool::Release(batch);  // the acquirer's reference
  EXPECT_EQ(pool.counts().returns, 0u) << "queued items still hold it";
  lanes.ResetAfterJoin(0);
  EXPECT_EQ(pool.counts().acquires, 1u);
  EXPECT_EQ(pool.counts().returns, 1u);
  EXPECT_EQ(pool.counts().idle, pool.counts().created);
  // A reacquired batch starts empty and is the recycled one.
  SharedBatch* again = pool.Acquire();
  EXPECT_EQ(again, batch);
  EXPECT_EQ(again->size(), 0u);
  SharedBatchPool::Release(again);
  EXPECT_EQ(pool.counts().returns, 2u);
}

}  // namespace
}  // namespace exec
}  // namespace aseq
