// The supervised sharded runtime: injected worker crashes and stalls are
// detected by the watchdog, the failed shard alone is rebuilt from its
// recovery point and its routed slice replayed, and the merged outputs and
// stats stay bit-exact with the unfailed serial run. Overload policies:
// degrade-serial drains and stays exact; shed drops whole partitions
// deterministically, with surviving partitions exact against a filtered
// serial oracle and shed_* counters matching the drop counts exactly.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "aseq/aseq_engine.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "exec/shard_router.h"
#include "fault/fault.h"
#include "obs/telemetry.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::ExpectOutputsEqual;
using testing_util::MakeStock;
using testing_util::MustCompile;
using testing_util::RunPerEvent;

constexpr size_t kShards = 3;
constexpr size_t kBatchSize = 64;
const char* kQuery =
    "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms";

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::Global().Disarm(); }
  void TearDown() override { fault::Injector::Global().Disarm(); }
};

std::unique_ptr<exec::ExecutionPolicy> MustMakeSharded(
    const CompiledQuery& cq, const RunOptions& options) {
  std::string reason;
  auto policy = exec::MakePolicy(
      cq, [&cq] { return CreateAseqEngine(cq); }, options, &reason);
  EXPECT_TRUE(policy.ok()) << policy.status().ToString();
  EXPECT_TRUE(reason.empty()) << reason;
  return std::move(policy).value();
}

RunOptions SupervisedOptions() {
  RunOptions options;
  options.num_shards = kShards;
  options.batch_size = kBatchSize;
  options.supervise = true;
  options.recovery_every = 512;
  return options;
}

/// Arms `spec`, runs the supervised sharded executor over a fresh stock
/// case, and requires bit-exact equivalence with the unfailed serial run
/// plus at least `min_restarts` supervised restarts.
void CheckSupervisedEquivalence(const std::string& spec, uint64_t seed,
                                size_t min_restarts,
                                const std::string& label,
                                double watchdog_timeout_ms = 1000,
                                size_t recovery_every = 512,
                                size_t batch_size = kBatchSize) {
  auto c = MakeStock(777, 3000);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);

  auto ref_or = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_or.ok());
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_or).value();
  RunResult ref = RunPerEvent(c->events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  RunOptions options = SupervisedOptions();
  options.watchdog_timeout_ms = watchdog_timeout_ms;
  options.recovery_every = recovery_every;
  options.batch_size = batch_size;
  auto policy = MustMakeSharded(cq, options);
  if (!spec.empty()) {
    ASSERT_TRUE(fault::Injector::Global().Arm(spec, seed).ok()) << spec;
  }
  RunResult run = policy->RunEvents(c->events);
  fault::Injector::Global().Disarm();

  ASSERT_TRUE(run.fault_status.ok()) << label << ": "
                                     << run.fault_status.ToString();
  EXPECT_EQ(run.events, c->events.size()) << label;
  ExpectOutputsEqual(ref.outputs, run.outputs, label);
  const EngineStats& stats = policy->stats();
  EXPECT_EQ(ref_engine->stats().events_processed, stats.events_processed)
      << label;
  EXPECT_EQ(ref_engine->stats().outputs, stats.outputs) << label;
  EXPECT_EQ(ref_engine->stats().work_units, stats.work_units) << label;
  EXPECT_EQ(ref_engine->stats().objects.peak(), stats.objects.peak())
      << label;
  EXPECT_EQ(ref_engine->stats().objects.current(), stats.objects.current())
      << label;
  EXPECT_GE(stats.fault_restarts, min_restarts) << label;
  if (min_restarts > 0) {
    EXPECT_GE(stats.fault_injected, 1u) << label;
  }
}

// ---------------------------------------------------------------------------
// Crash recovery
// ---------------------------------------------------------------------------

TEST_F(SupervisorTest, CrashedShardRestartsBitExact) {
  CheckSupervisedEquivalence("worker.op@1:70:crash", 7, 1, "crash-early");
}

TEST_F(SupervisorTest, CrashAfterRecoveryPointReplaysOnlyTheSlice) {
  // Only DELL and IPIX events reach a shard: each lane runs ~400 ops over
  // the 3000 events (its third of them plus purge markers). Op 300 lands
  // late in shard 2's lane, past several 512-event recovery barriers, so
  // the restart replays from a mid-stream snapshot, not from scratch.
  CheckSupervisedEquivalence("worker.op@2:300:crash", 7, 1, "crash-late");
}

TEST_F(SupervisorTest, MultipleShardsCrashIndependently) {
  CheckSupervisedEquivalence(
      "worker.op@0:50:crash,worker.op@2:135:crash,worker.op@1:235:crash", 7,
      3, "multi-crash");
}

TEST_F(SupervisorTest, StalledShardIsQuarantinedAndRestarted) {
  // The stalled worker stops heartbeating with work outstanding; a short
  // watchdog timeout keeps the test fast.
  CheckSupervisedEquivalence("worker.op@1:100:stall", 7, 1, "stall",
                             /*watchdog_timeout_ms=*/50);
}

TEST_F(SupervisorTest, StallDuringReplayRestartsAgain) {
  // The first stall's restart replays shard 1's whole slice (recovery
  // points are never due) — at 8-event batches, well over the 64 items
  // its ring holds — and the fresh worker stalls again on its first
  // replayed op. The replay push must see the watchdog, abandon,
  // and let the next restart finish it, instead of parking forever on the
  // full ring.
  CheckSupervisedEquivalence("worker.op@1:270:stall:2", 7, 2, "replay-stall",
                             /*watchdog_timeout_ms=*/50,
                             /*recovery_every=*/100000, /*batch_size=*/8);
}

TEST_F(SupervisorTest, SlowShardIsNotMistakenForStalled) {
  // Slow ops keep heartbeating between delays — the watchdog must not
  // fire on a shard that is merely behind.
  auto c = MakeStock(778, 2000);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);
  auto ref_or = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_or.ok());
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_or).value();
  RunResult ref = RunPerEvent(c->events, ref_engine.get());

  RunOptions options = SupervisedOptions();
  auto policy = MustMakeSharded(cq, options);
  ASSERT_TRUE(
      fault::Injector::Global().Arm("worker.op@1:100:slow:512", 7).ok());
  RunResult run = policy->RunEvents(c->events);
  fault::Injector::Global().Disarm();

  ASSERT_TRUE(run.fault_status.ok()) << run.fault_status.ToString();
  ExpectOutputsEqual(ref.outputs, run.outputs, "slow");
  EXPECT_EQ(policy->stats().fault_restarts, 0u);
  EXPECT_GE(policy->stats().fault_injected, 1u);
}

TEST_F(SupervisorTest, SupervisedCleanRunIsExactWithZeroRestarts) {
  CheckSupervisedEquivalence("", 0, 0, "clean");
}

TEST_F(SupervisorTest, ExhaustedRestartBudgetAbortsTheRun) {
  auto c = MakeStock(779, 2000);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);
  RunOptions options = SupervisedOptions();
  options.max_restarts = 3;
  auto policy = MustMakeSharded(cq, options);
  // Every hit of shard 1 from 50 on crashes: each restart's replay dies
  // immediately, so the budget runs out and the run aborts with a status
  // instead of looping forever.
  ASSERT_TRUE(
      fault::Injector::Global().Arm("worker.op@1:50:crash:100000000", 7).ok());
  RunResult run = policy->RunEvents(c->events);
  fault::Injector::Global().Disarm();

  ASSERT_FALSE(run.fault_status.ok());
  EXPECT_NE(run.fault_status.ToString().find("restart budget"),
            std::string::npos)
      << run.fault_status.ToString();
  EXPECT_GE(policy->stats().fault_restarts, 4u);  // 3 allowed + the fatal one
}

// ---------------------------------------------------------------------------
// Overload control
// ---------------------------------------------------------------------------

TEST_F(SupervisorTest, DegradeSerialDrainsAndStaysExact) {
  auto c = MakeStock(780, 3000);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);
  auto ref_or = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_or.ok());
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_or).value();
  RunResult ref = RunPerEvent(c->events, ref_engine.get());

  RunOptions options;
  options.num_shards = kShards;
  options.batch_size = kBatchSize;
  options.overload_policy = OverloadPolicy::kDegradeSerial;
  auto policy = MustMakeSharded(cq, options);
  // Injected overload signals stand in for a queue at its high-watermark,
  // so the policy engages deterministically without real load.
  ASSERT_TRUE(
      fault::Injector::Global().Arm("router.route:100:overload:50", 7).ok());
  RunResult run = policy->RunEvents(c->events);
  fault::Injector::Global().Disarm();

  ASSERT_TRUE(run.fault_status.ok()) << run.fault_status.ToString();
  ExpectOutputsEqual(ref.outputs, run.outputs, "degrade-serial");
  const EngineStats& stats = policy->stats();
  const EngineStats& want = ref_engine->stats();
  EXPECT_EQ(want.events_processed, stats.events_processed);
  EXPECT_EQ(want.outputs, stats.outputs);
  EXPECT_EQ(want.work_units, stats.work_units);
  EXPECT_EQ(want.objects.current(), stats.objects.current());
  EXPECT_EQ(want.objects.peak(), stats.objects.peak());
  EXPECT_GE(stats.overload_stalls, 1u);
  EXPECT_EQ(stats.shed_events, 0u);
}

TEST_F(SupervisorTest, ShedDropsWholePartitionsExactly) {
  auto c = MakeStock(781, 3000);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);

  // Replicate the router's exact decision sequence (disarmed — replica
  // hits must not advance the real run's counters), with the seqs the
  // executor assigns in arrival order. One query interns in event order,
  // so routing the whole stream as one batch yields the run's key ids.
  std::vector<Event> stamped = c->events;
  for (size_t i = 0; i < stamped.size(); ++i) stamped[i].set_seq(i);
  exec::ShardRouter replica(std::span<const CompiledQuery>(&cq, 1), kShards);
  // The router returns routes for relevant events only; index them by
  // event (null: an event no query names, which is never keyed).
  std::vector<const exec::ShardRouter::Route*> routes(stamped.size(), nullptr);
  for (const exec::ShardRouter::Route& route : replica.RouteBatch(stamped)) {
    routes[route.index] = &route;
  }

  // Pick an injection trigger that lands on a keyed event: the first keyed
  // hit at or after 200 (hit n routes the event with seq n - 1).
  uint64_t trigger = 0;
  for (size_t i = 199; i < routes.size(); ++i) {
    if (routes[i] != nullptr && routes[i]->has_key) {
      trigger = i + 1;
      break;
    }
  }
  ASSERT_GT(trigger, 0u) << "no keyed event in the stream";

  // Shed run. Lift the depth watermark out of reach so the only overload
  // signal is the injected one — organic backlog (a fast router against a
  // bounded queue) would otherwise shed timing-dependent partitions and
  // make the oracle below unpredictable.
  RunOptions options;
  options.num_shards = kShards;
  options.batch_size = kBatchSize;
  options.overload_policy = OverloadPolicy::kShed;
  options.overload_high_watermark = 1u << 30;
  auto policy = MustMakeSharded(cq, options);
  ASSERT_TRUE(fault::Injector::Global()
                  .Arm("router.route:" + std::to_string(trigger) +
                           ":overload:1",
                       7)
                  .ok());
  RunResult run = policy->RunEvents(c->events);
  fault::Injector::Global().Disarm();
  ASSERT_TRUE(run.fault_status.ok()) << run.fault_status.ToString();
  // Shed events still consumed their arrival seq, so the event count is
  // the full stream's.
  EXPECT_EQ(run.events, c->events.size());

  // Oracle: apply the replicated decisions to derive the surviving stream
  // (original seqs preserved), then run it serially. Shed events carry no
  // purge markers — every event of a partition belongs to exactly one
  // group and engines purge on arrival, so the filtered serial run is the
  // exact expectation.
  std::unordered_set<uint32_t> shed_keys;
  std::vector<Event> surviving;
  uint64_t expected_shed_events = 0;
  uint64_t expected_shed_partitions = 0;
  for (size_t i = 0; i < stamped.size(); ++i) {
    const exec::ShardRouter::Route* route = routes[i];
    if (route != nullptr && route->has_key) {
      if (shed_keys.count(route->key_id) != 0) {
        ++expected_shed_events;
        continue;
      }
      if (i + 1 == trigger) {
        shed_keys.insert(route->key_id);
        ++expected_shed_partitions;
        ++expected_shed_events;
        continue;
      }
    }
    surviving.push_back(stamped[i]);
  }
  ASSERT_EQ(expected_shed_partitions, 1u);
  ASSERT_GT(expected_shed_events, 1u) << "trigger key must recur";

  EXPECT_EQ(policy->stats().shed_partitions, expected_shed_partitions);
  EXPECT_EQ(policy->stats().shed_events, expected_shed_events);

  // Serial oracle over the surviving events, seqs pre-assigned (engines
  // require strictly increasing seq, not contiguous).
  auto oracle_or = CreateAseqEngine(cq);
  ASSERT_TRUE(oracle_or.ok());
  std::unique_ptr<QueryEngine> oracle = std::move(oracle_or).value();
  std::vector<Output> oracle_outputs;
  std::vector<Output> scratch;
  for (size_t i = 0; i < surviving.size(); i += kBatchSize) {
    const size_t n = std::min(kBatchSize, surviving.size() - i);
    scratch.clear();
    oracle->OnBatch(std::span<const Event>(surviving.data() + i, n),
                    &scratch);
    oracle_outputs.insert(oracle_outputs.end(), scratch.begin(),
                          scratch.end());
  }
  ASSERT_GT(oracle_outputs.size(), 0u) << "vacuous surviving workload";
  ExpectOutputsEqual(oracle_outputs, run.outputs, "shed");
  EXPECT_EQ(oracle->stats().objects.peak(), policy->stats().objects.peak());
}

// ---------------------------------------------------------------------------
// Flag plumbing guards
// ---------------------------------------------------------------------------

TEST_F(SupervisorTest, SupervisionComposesWithCrashAndOverloadInjection) {
  // Supervision plus degrade-serial plus a crash in the same run: the
  // drain restarts the dead lane, and the result is still exact.
  auto c = MakeStock(782, 2500);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);
  auto ref_or = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_or.ok());
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_or).value();
  RunResult ref = RunPerEvent(c->events, ref_engine.get());

  RunOptions options = SupervisedOptions();
  options.overload_policy = OverloadPolicy::kDegradeSerial;
  auto policy = MustMakeSharded(cq, options);
  ASSERT_TRUE(fault::Injector::Global()
                  .Arm("worker.op@1:300:crash,router.route:500:overload:20", 7)
                  .ok());
  RunResult run = policy->RunEvents(c->events);
  fault::Injector::Global().Disarm();

  ASSERT_TRUE(run.fault_status.ok()) << run.fault_status.ToString();
  ExpectOutputsEqual(ref.outputs, run.outputs, "compose");
  EXPECT_GE(policy->stats().fault_restarts, 1u);
  EXPECT_GE(policy->stats().overload_stalls, 1u);
}

// Runs once unsupervised and once supervised: both modes share one stop
// rule (a slow lane keeps heartbeating, and the stall case's watchdog
// timeout outlasts the test, so the watchdog never fires).
class SupervisorStopTest : public SupervisorTest,
                           public ::testing::WithParamInterface<bool> {};

TEST_P(SupervisorStopTest, StopDuringFullRingStallExitsPromptly) {
  // A stop request that arrives while the coordinator is parked on a full
  // lane ring (worker stalled) must abort the park instead of
  // waiting for a drain that may never come: the run returns interrupted,
  // without a final checkpoint, and tears the workers down.
  auto c = MakeStock(783, 3000);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);

  RunOptions options;
  options.num_shards = kShards;
  options.supervise = GetParam();
  // A small batch multiplies items-per-lane so the throttled lane's ring
  // fills within milliseconds and stays full for the rest of the run.
  options.batch_size = 8;
  std::atomic<bool> stop{false};
  options.stop_requested = &stop;
  // Telemetry only observes: the coordinator counts a push that finds a
  // ring full as its wait begins.
  obs::Telemetry telemetry(kShards);
  options.telemetry = &telemetry;
  // Shard 0's worker stalls at its first op and parks until teardown
  // quarantines it, so its ring fills whatever the host load; the
  // watchdog waits longer than the stopper's deadline, so a supervised
  // run does not restart the lane first.
  options.watchdog_timeout_ms = 60000;
  auto policy = MustMakeSharded(cq, options);
  ASSERT_TRUE(fault::Injector::Global().Arm("worker.op@0:1:stall", 7).ok());
  // The stop fires once the coordinator waits on a full ring, not after a
  // fixed delay: on a loaded host a fixed delay can stop the run before
  // any push finds the ring full. The deadline only bounds a run that
  // never fills the ring (the checks below then fail).
  std::atomic<bool> finished{false};
  std::thread stopper([&] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (;;) {
      if (finished.load() || telemetry.coord().ring_full_waits.value() > 0 ||
          std::chrono::steady_clock::now() >= deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    stop.store(true);
  });
  StopWatch watch;
  RunResult run = policy->RunEvents(c->events);
  const double elapsed = watch.ElapsedSeconds();
  finished.store(true);
  stopper.join();
  fault::Injector::Global().Disarm();

  ASSERT_TRUE(run.fault_status.ok()) << run.fault_status.ToString();
  EXPECT_TRUE(run.interrupted);
  EXPECT_LT(run.events, c->events.size());
  // The throttled lane really did exert backpressure.
  EXPECT_GE(policy->stats().ring_full_waits, 1u);
  // A stalled lane never drains; a prompt stop is comfortably inside
  // this bound.
  EXPECT_LT(elapsed, 10.0);
}

TEST_P(SupervisorStopTest, StopDuringDegradeDrainExitsPromptly) {
  // Every routed event signals overload, so every batch ends in a
  // degrade-serial drain, and shard 0 drains slowly: a stop request lands
  // while the coordinator waits for a drain and must end the run
  // (interrupted) instead of waiting out the stream.
  auto c = MakeStock(784, 3000);
  CompiledQuery cq = MustCompile(&c->schema, kQuery);

  RunOptions options;
  options.num_shards = kShards;
  options.supervise = GetParam();
  options.batch_size = 8;
  options.overload_policy = OverloadPolicy::kDegradeSerial;
  std::atomic<bool> stop{false};
  options.stop_requested = &stop;
  auto policy = MustMakeSharded(cq, options);
  ASSERT_TRUE(fault::Injector::Global()
                  .Arm("worker.op@0:1:slow:100000000,"
                       "router.route:1:overload:100000000",
                       7)
                  .ok());
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    stop.store(true);
  });
  StopWatch watch;
  RunResult run = policy->RunEvents(c->events);
  const double elapsed = watch.ElapsedSeconds();
  stopper.join();
  fault::Injector::Global().Disarm();

  ASSERT_TRUE(run.fault_status.ok()) << run.fault_status.ToString();
  EXPECT_TRUE(run.interrupted);
  EXPECT_LT(run.events, c->events.size());
  EXPECT_GE(policy->stats().overload_stalls, 1u);
  EXPECT_LT(elapsed, 10.0);
}

INSTANTIATE_TEST_SUITE_P(Modes, SupervisorStopTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Supervised" : "Unsupervised";
                         });

}  // namespace
}  // namespace aseq
