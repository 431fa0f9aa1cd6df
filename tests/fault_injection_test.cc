// The deterministic fault-injection framework: spec parsing, exact-hit
// firing semantics, seeded slow-delay derivation, the ckpt.write io-error
// path (no temp-file litter, previous snapshot intact), and graceful-stop
// behavior of the serial loop (drain + final checkpoint + exit summary).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "ckpt/snapshot.h"
#include "engine/runtime.h"
#include "exec/serial_executor.h"
#include "fault/fault.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::MakeStock;
using testing_util::MustCompile;
using testing_util::RunPerEvent;

/// Every test disarms on both ends: the injector is process-global and a
/// leaked arming would fire into an unrelated test.
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { fault::Injector::Global().Disarm(); }
  void TearDown() override { fault::Injector::Global().Disarm(); }
};

TEST_F(FaultInjectionTest, ParsesFullSpec) {
  auto& inj = fault::Injector::Global();
  ASSERT_TRUE(
      inj.Arm("worker.op@2:500:crash,ckpt.write:2:io-error,"
              "router.route:10:overload:5,admit.batch:3:slow:64",
              42)
          .ok());
  ASSERT_TRUE(inj.armed());
  ASSERT_EQ(inj.entries().size(), 4u);
  const fault::ArmedFault& w = inj.entries()[0];
  EXPECT_EQ(w.point, fault::Point::kWorkerOp);
  EXPECT_EQ(w.kind, fault::Kind::kCrash);
  EXPECT_EQ(w.lane, 2u);
  EXPECT_EQ(w.trigger, 500u);
  EXPECT_EQ(w.repeat, 1u);
  const fault::ArmedFault& c = inj.entries()[1];
  EXPECT_EQ(c.point, fault::Point::kCkptWrite);
  EXPECT_EQ(c.kind, fault::Kind::kIoError);
  EXPECT_EQ(c.lane, 0u);
  const fault::ArmedFault& r = inj.entries()[2];
  EXPECT_EQ(r.kind, fault::Kind::kOverload);
  EXPECT_EQ(r.repeat, 5u);
  const fault::ArmedFault& a = inj.entries()[3];
  EXPECT_EQ(a.kind, fault::Kind::kSlow);
  EXPECT_EQ(a.repeat, 64u);
  EXPECT_GE(a.delay_us, 50u);
  EXPECT_LE(a.delay_us, 250u);
}

TEST_F(FaultInjectionTest, DefaultsKindAndRepeat) {
  auto& inj = fault::Injector::Global();
  ASSERT_TRUE(inj.Arm("worker.op:7").ok());
  ASSERT_EQ(inj.entries().size(), 1u);
  EXPECT_EQ(inj.entries()[0].kind, fault::Kind::kCrash);
  EXPECT_EQ(inj.entries()[0].repeat, 1u);
  // Slow defaults to a window, not a single hit — one slow op is noise.
  ASSERT_TRUE(inj.Arm("worker.op:7:slow").ok());
  EXPECT_EQ(inj.entries()[0].repeat, 256u);
}

TEST_F(FaultInjectionTest, RejectsMalformedSpecs) {
  auto& inj = fault::Injector::Global();
  const char* bad[] = {
      "",                      // empty
      "worker.op",             // no trigger
      "nosuch.point:1",        // unknown point
      "worker.op:0",           // trigger must be >= 1
      "worker.op:1:explode",   // unknown kind
      "worker.op@x:1",         // non-numeric lane
      "worker.op@999:1",       // lane beyond the cap
      "worker.op:1:crash:0",   // zero repeat
      "worker.op:abc",         // non-numeric trigger
      "worker.op:1:crash:1:9",  // too many fields
  };
  for (const char* spec : bad) {
    Status s = inj.Arm(spec);
    EXPECT_FALSE(s.ok()) << "spec '" << spec << "' should not parse";
    EXPECT_FALSE(inj.armed()) << spec;
  }
}

TEST_F(FaultInjectionTest, FiresOnExactHitWindow) {
  auto& inj = fault::Injector::Global();
  ASSERT_TRUE(inj.Arm("admit.batch:2:slow:3", 1).ok());
  // Hits 1..5: the window [2, 5) fires, the rest do not.
  EXPECT_FALSE(inj.Hit(fault::Point::kAdmitBatch).has_value());
  for (int i = 0; i < 3; ++i) {
    auto fired = inj.Hit(fault::Point::kAdmitBatch);
    ASSERT_TRUE(fired.has_value()) << "hit " << (i + 2);
    EXPECT_EQ(fired->kind, fault::Kind::kSlow);
    EXPECT_GE(fired->delay_us, 50u);
    EXPECT_LE(fired->delay_us, 250u);
  }
  EXPECT_FALSE(inj.Hit(fault::Point::kAdmitBatch).has_value());
  EXPECT_EQ(inj.fired_count(), 3u);
  EXPECT_EQ(inj.hits(fault::Point::kAdmitBatch), 5u);
}

TEST_F(FaultInjectionTest, LanesCountIndependently) {
  auto& inj = fault::Injector::Global();
  ASSERT_TRUE(inj.Arm("worker.op@1:3:stall").ok());
  // Lane 0 hits never advance lane 1's counter.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(inj.Hit(fault::Point::kWorkerOp, 0).has_value());
  }
  EXPECT_FALSE(inj.Hit(fault::Point::kWorkerOp, 1).has_value());
  EXPECT_FALSE(inj.Hit(fault::Point::kWorkerOp, 1).has_value());
  auto fired = inj.Hit(fault::Point::kWorkerOp, 1);
  ASSERT_TRUE(fired.has_value());
  EXPECT_EQ(fired->kind, fault::Kind::kStall);
  EXPECT_EQ(inj.hits(fault::Point::kWorkerOp, 0), 10u);
  EXPECT_EQ(inj.hits(fault::Point::kWorkerOp, 1), 3u);
}

TEST_F(FaultInjectionTest, SlowDelaysAreSeedDeterministic) {
  auto& inj = fault::Injector::Global();
  ASSERT_TRUE(inj.Arm("worker.op:1:slow,admit.batch:1:slow", 99).ok());
  std::vector<uint32_t> first;
  for (const auto& e : inj.entries()) first.push_back(e.delay_us);
  ASSERT_TRUE(inj.Arm("worker.op:1:slow,admit.batch:1:slow", 99).ok());
  std::vector<uint32_t> second;
  for (const auto& e : inj.entries()) second.push_back(e.delay_us);
  EXPECT_EQ(first, second) << "same seed must derive identical delays";
}

TEST_F(FaultInjectionTest, DisarmClearsEverything) {
  auto& inj = fault::Injector::Global();
  ASSERT_TRUE(inj.Arm("worker.op:1").ok());
  ASSERT_TRUE(inj.Hit(fault::Point::kWorkerOp).has_value());
  inj.Disarm();
  EXPECT_FALSE(inj.armed());
  EXPECT_EQ(inj.fired_count(), 0u);
  EXPECT_EQ(inj.hits(fault::Point::kWorkerOp), 0u);
  EXPECT_TRUE(inj.entries().empty());
  // Hit on a disarmed injector is a no-op that does not count.
  EXPECT_FALSE(inj.Hit(fault::Point::kWorkerOp).has_value());
  EXPECT_EQ(inj.hits(fault::Point::kWorkerOp), 0u);
}

// ---------------------------------------------------------------------------
// ckpt.write injection through the real snapshot writer
// ---------------------------------------------------------------------------

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST_F(FaultInjectionTest, CkptWriteIoErrorLeavesPriorSnapshotIntact) {
  auto c = MakeStock(11, 600, 50);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  auto engine_or = CreateAseqEngine(cq);
  ASSERT_TRUE(engine_or.ok());
  std::unique_ptr<QueryEngine> engine = std::move(engine_or).value();
  RunResult ref = RunPerEvent(c->events, engine.get());

  const std::string dir = FreshDir("fault-ckpt-io");
  const std::string path = ckpt::SnapshotPathForOffset(dir, c->events.size());
  ASSERT_TRUE(
      ckpt::SaveEngineSnapshot(path, *engine, c->events.size()).ok());

  // The injected write fails with IoError before touching the filesystem:
  // no temp litter, and the good snapshot is untouched.
  ASSERT_TRUE(fault::Injector::Global().Arm("ckpt.write:1:io-error").ok());
  Status s = ckpt::SaveEngineSnapshot(path, *engine, c->events.size());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("injected"), std::string::npos)
      << s.ToString();
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(entry.path().string(), path) << "unexpected litter";
  }
  EXPECT_EQ(files, 1u);

  fault::Injector::Global().Disarm();
  auto restored_or = CreateAseqEngine(cq);
  ASSERT_TRUE(restored_or.ok());
  std::unique_ptr<QueryEngine> restored = std::move(restored_or).value();
  uint64_t offset = 0;
  ASSERT_TRUE(
      ckpt::RestoreEngineSnapshot(path, restored.get(), &offset).ok());
  EXPECT_EQ(offset, c->events.size());
  EXPECT_EQ(restored->stats().outputs, ref.outputs.size());
}

TEST_F(FaultInjectionTest, CheckpointStatusLatchesOnInjectedError) {
  auto c = MakeStock(12, 1200, 50);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  auto engine_or = CreateAseqEngine(cq);
  ASSERT_TRUE(engine_or.ok());
  std::unique_ptr<QueryEngine> engine = std::move(engine_or).value();

  const std::string dir = FreshDir("fault-ckpt-latch");
  RunOptions options;
  options.checkpoint_every = 300;
  options.checkpoint_dir = dir;
  // First write succeeds, second fails; the loop latches the error and
  // attempts no further snapshots (so exactly one fault fires).
  ASSERT_TRUE(fault::Injector::Global().Arm("ckpt.write:2:io-error").ok());
  RunResult run = exec::RunSerial(options, c->events, engine.get());
  EXPECT_FALSE(run.checkpoint_status.ok());
  EXPECT_EQ(run.checkpoints_written, 1u);
  EXPECT_EQ(fault::Injector::Global().fired_count(), 1u);
  EXPECT_EQ(run.events, c->events.size());
}

// ---------------------------------------------------------------------------
// Graceful stop (the serial loop half; the CLI installs the signal
// handlers that set the flag)
// ---------------------------------------------------------------------------

TEST_F(FaultInjectionTest, StopFlagInterruptsAndWritesFinalCheckpoint) {
  auto c = MakeStock(13, 900, 50);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  auto engine_or = CreateAseqEngine(cq);
  ASSERT_TRUE(engine_or.ok());
  std::unique_ptr<QueryEngine> engine = std::move(engine_or).value();

  const std::string dir = FreshDir("fault-stop");
  std::atomic<bool> stop{true};  // "signal" already delivered
  RunOptions options;
  options.checkpoint_every = 100000;  // periodic checkpointing never due
  options.checkpoint_dir = dir;
  options.stop_requested = &stop;
  RunResult run = exec::RunSerial(options, c->events, engine.get());
  EXPECT_TRUE(run.interrupted);
  EXPECT_EQ(run.events, 0u);
  // The final snapshot lands at the stop offset even though no periodic
  // checkpoint was due, so --restore-from resumes without replay.
  ASSERT_EQ(run.checkpoints_written, 1u);
  EXPECT_EQ(run.last_checkpoint_offset, 0u);

  auto resumed_or = CreateAseqEngine(cq);
  ASSERT_TRUE(resumed_or.ok());
  std::unique_ptr<QueryEngine> resumed = std::move(resumed_or).value();
  uint64_t offset = 1;
  ASSERT_TRUE(ckpt::RestoreEngineSnapshot(
                  ckpt::SnapshotPathForOffset(dir, 0), resumed.get(), &offset)
                  .ok());
  EXPECT_EQ(offset, 0u);

  // Resuming from the interruption point replays to the exact full-run
  // result.
  auto ref_or = CreateAseqEngine(cq);
  ASSERT_TRUE(ref_or.ok());
  std::unique_ptr<QueryEngine> ref_engine = std::move(ref_or).value();
  RunResult ref = RunPerEvent(c->events, ref_engine.get());
  RunResult tail = RunPerEvent(c->events, resumed.get());
  ASSERT_EQ(ref.outputs.size(), tail.outputs.size());
  for (size_t i = 0; i < ref.outputs.size(); ++i) {
    EXPECT_EQ(ref.outputs[i].seq, tail.outputs[i].seq);
    EXPECT_TRUE(ref.outputs[i].value.Equals(tail.outputs[i].value));
  }
  EXPECT_EQ(ref_engine->stats().objects.peak(),
            resumed->stats().objects.peak());
}

TEST_F(FaultInjectionTest, UnsetStopFlagRunsToCompletion) {
  auto c = MakeStock(14, 400, 50);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms");
  auto engine_or = CreateAseqEngine(cq);
  ASSERT_TRUE(engine_or.ok());
  std::unique_ptr<QueryEngine> engine = std::move(engine_or).value();
  std::atomic<bool> stop{false};
  RunOptions options;
  options.stop_requested = &stop;
  RunResult run = exec::RunSerial(options, c->events, engine.get());
  EXPECT_FALSE(run.interrupted);
  EXPECT_EQ(run.events, c->events.size());
}

}  // namespace
}  // namespace aseq
