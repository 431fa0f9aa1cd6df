// Poll() equivalence: polling an engine mid-stream must (a) report exactly
// what a fresh engine fed the same prefix would report, (b) never perturb
// the remainder of the run — outputs after a poll are byte-identical to a
// never-polled run — and (c) hold immediately after Restore(): a restored
// twin polls identically to the engine it snapshotted, before any tail
// event is fed.

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/snapshot.h"
#include "engine/runtime.h"
#include "multi/composite_engine.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::MakeStock;
using testing_util::MustCompile;
using testing_util::RunPerEvent;

void ExpectOutputsEqual(const std::vector<Output>& ref,
                        const std::vector<Output>& got,
                        const std::string& context) {
  ASSERT_EQ(ref.size(), got.size()) << context;
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].ts, got[i].ts) << context << " output#" << i;
    ASSERT_EQ(ref[i].group.has_value(), got[i].group.has_value())
        << context << " output#" << i;
    if (ref[i].group.has_value()) {
      EXPECT_TRUE(ref[i].group->Equals(*got[i].group))
          << context << " output#" << i << ": group "
          << ref[i].group->ToString() << " vs " << got[i].group->ToString();
    }
    EXPECT_TRUE(ref[i].value.Equals(got[i].value))
        << context << " output#" << i << ": " << ref[i].value.ToString()
        << " vs " << got[i].value.ToString();
  }
}

using EngineFactory = std::function<std::unique_ptr<QueryEngine>()>;

EngineFactory AseqFactory(const CompiledQuery& cq) {
  return [&cq] {
    auto engine = CreateAseqEngine(cq);
    EXPECT_TRUE(engine.ok()) << engine.status().ToString();
    return std::move(engine).value();
  };
}

/// Offsets at which the run is polled (filtered to < n).
std::vector<size_t> PollOffsets(size_t n) {
  std::vector<size_t> offsets = {1, 37, 128, n / 2, n - 1};
  offsets.erase(
      std::remove_if(offsets.begin(), offsets.end(),
                     [n](size_t k) { return k == 0 || k >= n; }),
      offsets.end());
  return offsets;
}

/// Feeds the stream per-event; at each poll offset, compares Poll() against
/// a fresh engine fed the same prefix, then at the end compares the polled
/// run's outputs against a never-polled reference.
void CheckPoll(const EngineFactory& factory, const std::vector<Event>& events,
               const std::string& label) {
  auto ref_engine = factory();
  RunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  auto engine = factory();
  std::vector<Output> outputs;
  std::vector<Output> scratch;
  std::vector<size_t> poll_at = PollOffsets(events.size());
  size_t next_poll = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    scratch.clear();
    engine->OnEvent(events[i], &scratch);
    outputs.insert(outputs.end(), scratch.begin(), scratch.end());
    if (next_poll < poll_at.size() && i + 1 == poll_at[next_poll]) {
      ++next_poll;
      const Timestamp now = events[i].ts();
      const std::string context =
          label + " poll@" + std::to_string(i + 1);
      std::vector<Output> polled = engine->Poll(now);

      // A fresh engine fed exactly this prefix must poll identically.
      auto fresh = factory();
      std::vector<Output> sink;
      for (size_t j = 0; j <= i; ++j) fresh->OnEvent(events[j], &sink);
      ExpectOutputsEqual(fresh->Poll(now), polled, context);
    }
  }
  // The polls above must not have perturbed the run.
  ExpectOutputsEqual(ref.outputs, outputs, label + " post-poll outputs");
}

/// Runs to a kill offset, snapshots, restores a fresh twin, and requires
/// the twin's first Poll — before any tail event — to match the original's.
void CheckPollAfterRestore(const EngineFactory& factory,
                           const std::vector<Event>& events,
                           const std::string& label) {
  const size_t kill = events.size() / 2;
  auto engine = factory();
  std::vector<Output> sink;
  for (size_t i = 0; i < kill; ++i) engine->OnEvent(events[i], &sink);

  const std::string path =
      ::testing::TempDir() + "/poll-equiv-" + label + ".aseqckpt";
  ASSERT_TRUE(ckpt::SaveEngineSnapshot(path, *engine, kill).ok()) << label;
  auto twin = factory();
  uint64_t offset = 0;
  Status restored = ckpt::RestoreEngineSnapshot(path, twin.get(), &offset);
  ASSERT_TRUE(restored.ok()) << label << ": " << restored.ToString();
  ASSERT_EQ(offset, kill) << label;
  std::remove(path.c_str());

  const Timestamp now = events[kill - 1].ts();
  ExpectOutputsEqual(engine->Poll(now), twin->Poll(now),
                     label + " poll-after-restore");
  // A poll moment later than the last arrival exercises poll-time expiry
  // on the restored window state.
  ExpectOutputsEqual(engine->Poll(now + 500), twin->Poll(now + 500),
                     label + " poll-after-restore+500ms");
}

struct PollCase {
  std::string label;
  std::string query;
};

const PollCase kAseqCases[] = {
    {"dpc-unbounded", "PATTERN SEQ(DELL, IPIX) AGG COUNT"},
    {"sem-windowed", "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms"},
    {"sem-negation", "PATTERN SEQ(DELL, !QQQ, AMAT) AGG COUNT WITHIN 800ms"},
    {"sem-sum",
     "PATTERN SEQ(DELL, IPIX) AGG SUM(IPIX.volume) WITHIN 800ms"},
    {"hpc-groupby",
     "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms"},
    {"hpc-equivalence",
     "PATTERN SEQ(DELL, IPIX) WHERE DELL.traderId = IPIX.traderId "
     "AGG COUNT WITHIN 800ms"},
};

TEST(PollEquivalenceTest, AseqEnginesMidStream) {
  auto c = MakeStock(221, 1500);
  for (const PollCase& pc : kAseqCases) {
    CompiledQuery cq = MustCompile(&c->schema, pc.query);
    CheckPoll(AseqFactory(cq), c->events, pc.label);
  }
}

TEST(PollEquivalenceTest, AseqEnginesAfterRestore) {
  auto c = MakeStock(222, 1500);
  for (const PollCase& pc : kAseqCases) {
    CompiledQuery cq = MustCompile(&c->schema, pc.query);
    CheckPollAfterRestore(AseqFactory(cq), c->events, pc.label);
  }
}

TEST(PollEquivalenceTest, StackEngineMidStream) {
  auto c = MakeStock(223, 1000);
  CompiledQuery cq = MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price AGG COUNT "
      "WITHIN 800ms");
  CheckPoll([&cq] { return std::make_unique<StackEngine>(cq); }, c->events,
            "stack-join");
}

TEST(PollEquivalenceTest, StackEngineAfterRestore) {
  auto c = MakeStock(224, 1000);
  CompiledQuery cq = MustCompile(
      &c->schema, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms");
  CheckPollAfterRestore([&cq] { return std::make_unique<StackEngine>(cq); },
                        c->events, "stack-windowed");
}

// ---------------------------------------------------------------------------
// Multi-query engines: the same three poll contracts per sharing strategy
// ---------------------------------------------------------------------------

void ExpectMultiOutputsEqual(const std::vector<MultiOutput>& ref,
                             const std::vector<MultiOutput>& got,
                             const std::string& context) {
  ASSERT_EQ(ref.size(), got.size()) << context;
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].query_index, got[i].query_index)
        << context << " output#" << i;
    EXPECT_EQ(ref[i].output.ts, got[i].output.ts)
        << context << " output#" << i;
    ASSERT_EQ(ref[i].output.group.has_value(), got[i].output.group.has_value())
        << context << " output#" << i;
    if (ref[i].output.group.has_value()) {
      EXPECT_TRUE(ref[i].output.group->Equals(*got[i].output.group))
          << context << " output#" << i;
    }
    EXPECT_TRUE(ref[i].output.value.Equals(got[i].output.value))
        << context << " output#" << i << ": " << ref[i].output.value.ToString()
        << " vs " << got[i].output.value.ToString();
  }
}

using MultiFactory = std::function<std::unique_ptr<MultiQueryEngine>()>;

/// One factory per sharing strategy (MakeStrategyFactory), expectation-
/// failing like AseqFactory, so the test aborts loudly on a rejected
/// workload.
MultiFactory MakeMultiFactory(const std::string& strategy,
                              const std::vector<CompiledQuery>& queries) {
  auto made = MakeStrategyFactory(strategy, queries);
  EXPECT_TRUE(made.ok()) << made.status().ToString();
  return [make = std::move(made).value()] {
    Result<std::unique_ptr<MultiQueryEngine>> e = make();
    EXPECT_TRUE(e.ok()) << e.status().ToString();
    return std::move(e).value();
  };
}

/// CheckPoll over a whole workload: mid-stream polls must match a fresh
/// engine fed the same prefix, and must not perturb the stream outputs.
void CheckMultiPoll(const MultiFactory& factory,
                    const std::vector<Event>& events,
                    const std::string& label) {
  auto ref_engine = factory();
  MultiRunResult ref = RunPerEvent(events, ref_engine.get());
  ASSERT_GT(ref.outputs.size(), 0u) << label << ": vacuous workload";

  auto engine = factory();
  std::vector<MultiOutput> outputs;
  std::vector<MultiOutput> scratch;
  std::vector<size_t> poll_at = PollOffsets(events.size());
  size_t next_poll = 0;
  for (size_t i = 0; i < events.size(); ++i) {
    scratch.clear();
    engine->OnEvent(events[i], &scratch);
    outputs.insert(outputs.end(), scratch.begin(), scratch.end());
    if (next_poll < poll_at.size() && i + 1 == poll_at[next_poll]) {
      ++next_poll;
      const Timestamp now = events[i].ts();
      const std::string context = label + " poll@" + std::to_string(i + 1);
      std::vector<MultiOutput> polled = engine->Poll(now);

      auto fresh = factory();
      std::vector<MultiOutput> sink;
      for (size_t j = 0; j <= i; ++j) fresh->OnEvent(events[j], &sink);
      ExpectMultiOutputsEqual(fresh->Poll(now), polled, context);
    }
  }
  ExpectMultiOutputsEqual(ref.outputs, outputs, label + " post-poll outputs");
}

/// CheckPollAfterRestore over a whole workload, via the multi-query
/// snapshot container.
void CheckMultiPollAfterRestore(const MultiFactory& factory,
                                const std::vector<Event>& events,
                                const std::string& label) {
  const size_t kill = events.size() / 2;
  auto engine = factory();
  std::vector<MultiOutput> sink;
  for (size_t i = 0; i < kill; ++i) engine->OnEvent(events[i], &sink);

  const std::string path =
      ::testing::TempDir() + "/poll-equiv-" + label + ".aseqckpt";
  ASSERT_TRUE(ckpt::SaveEngineSnapshot(path, *engine, kill).ok()) << label;
  auto twin = factory();
  uint64_t offset = 0;
  Status restored = ckpt::RestoreEngineSnapshot(path, twin.get(), &offset);
  ASSERT_TRUE(restored.ok()) << label << ": " << restored.ToString();
  ASSERT_EQ(offset, kill) << label;
  std::remove(path.c_str());

  const Timestamp now = events[kill - 1].ts();
  ExpectMultiOutputsEqual(engine->Poll(now), twin->Poll(now),
                          label + " poll-after-restore");
  ExpectMultiOutputsEqual(engine->Poll(now + 500), twin->Poll(now + 500),
                          label + " poll-after-restore+500ms");
}

/// A workload every sharing strategy accepts: positive-only COUNT
/// patterns, one shared window, one shared GROUP BY attribute.
const std::vector<std::string>& SharedWorkloadTexts() {
  static const std::vector<std::string> kTexts = {
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
      "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT "
      "WITHIN 800ms",
      "PATTERN SEQ(IPIX, DELL) GROUP BY traderId AGG COUNT WITHIN 800ms",
  };
  return kTexts;
}

std::vector<CompiledQuery> CompileSharedWorkload(Schema* schema) {
  std::vector<CompiledQuery> queries;
  for (const std::string& text : SharedWorkloadTexts()) {
    queries.push_back(MustCompile(schema, text));
  }
  return queries;
}

const char* const kSharingStrategies[] = {"cc", "pretree", "hybrid",
                                          "nonshare"};

TEST(PollEquivalenceTest, MultiEnginesMidStream) {
  auto c = MakeStock(225, 1200);
  std::vector<CompiledQuery> queries = CompileSharedWorkload(&c->schema);
  for (const char* strategy : kSharingStrategies) {
    CheckMultiPoll(MakeMultiFactory(strategy, queries), c->events,
                   std::string("multi-") + strategy);
  }
}

TEST(PollEquivalenceTest, MultiEnginesAfterRestore) {
  auto c = MakeStock(226, 1200);
  std::vector<CompiledQuery> queries = CompileSharedWorkload(&c->schema);
  for (const char* strategy : kSharingStrategies) {
    CheckMultiPollAfterRestore(MakeMultiFactory(strategy, queries), c->events,
                               std::string("multi-restore-") + strategy);
  }
}

TEST(PollEquivalenceTest, MultiNegationMixMidStream) {
  // Negation routes through the hybrid's per-query parts; polling must
  // still interleave all queries' results in workload order.
  auto c = MakeStock(227, 1200);
  std::vector<CompiledQuery> queries;
  queries.push_back(MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms"));
  queries.push_back(MustCompile(
      &c->schema,
      "PATTERN SEQ(DELL, !QQQ, AMAT) GROUP BY traderId AGG COUNT "
      "WITHIN 800ms"));
  CheckMultiPoll(MakeMultiFactory("hybrid", queries), c->events,
                 "multi-negation-hybrid");
  CheckMultiPoll(MakeMultiFactory("nonshare", queries), c->events,
                 "multi-negation-nonshare");
}

}  // namespace
}  // namespace aseq
