// Seeded mutation fuzz for the query-text and snapshot decoders.
//
// Query text: valid queries are mutated by byte flips, truncations and
// token insertions. Analyzer::AnalyzeText must return a Status; a text
// that still compiles must also build an engine (or refuse with a Status)
// that runs a short stream. Snapshots: valid snapshots from serial,
// multi-query and sharded runs are mutated the same way, both as raw file
// bytes (the file checksum must catch them) and as engine payloads
// re-wrapped under a valid checksum (so the engines' own decoders see
// them). Restore must then fail with a Status, or leave a policy that
// finishes the remaining stream. Nothing may crash; CI runs this suite
// under ASan/UBSan.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/ecube_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/snapshot.h"
#include "exec/execution_policy.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/composite_engine.h"
#include "multi/pretree_engine.h"
#include "query/analyzer.h"
#include "tests/fuzz_util.h"
#include "tests/test_util.h"

namespace aseq {
namespace {

using testing_util::MakeStock;
using testing_util::MustCompile;
using testing_util::Mutate;

// ---------------------------------------------------------------------------
// Query text
// ---------------------------------------------------------------------------

constexpr std::string_view kQueries[] = {
    "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT WITHIN 2s",
    "PATTERN SEQ(DELL, !QQQ, IPIX) WHERE DELL.traderId = QQQ.traderId = "
    "IPIX.traderId AGG COUNT WITHIN 800ms",
    "PATTERN SEQ(DELL, IPIX) WHERE DELL.price > 100.5 AND IPIX.volume <= 5000 "
    "AGG SUM(IPIX.volume) WITHIN 1s",
    "PATTERN SEQ(AMAT, AMAT, DELL) AGG AVG(DELL.price) WITHIN 700",
    "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG MAX(IPIX.price) WITHIN 10s",
    "PATTERN SEQ(DELL, IPIX, QQQ) WHERE DELL.price < QQQ.price AGG COUNT "
    "WITHIN 500",
    "PATTERN SEQ(!MSFT, DELL, IPIX) AGG MIN(DELL.price)",
    "PATTERN SEQ(DELL, IPIX) WHERE DELL.note = 'x' GROUP BY traderId",
};

constexpr std::string_view kQueryTokens[] = {
    "SEQ(", "(",     ")",      ",",     "!",        "<",           ">",
    "=",    "<=",    "!=",     ".",     " ",        "AND",         "WHERE",
    "AGG",  "COUNT", "SUM(",   "AVG(",  "WITHIN",   "GROUP BY",    "PATTERN",
    "ms",   "s",     "h",      "-1",    "0",        "1e308",       "'x'",
    "\"",   "'",     "DELL",   "DELL.", "traderId", "99999999999999999999",
};

TEST(DecoderFuzzTest, MutatedQueryTextNeverCrashes) {
  const auto stream = MakeStock(3, 400, 10);
  const std::vector<Event>& events = stream->events;
  std::mt19937_64 rng(20261017);
  size_t compiled = 0;
  size_t rejected = 0;
  for (int i = 0; i < 3000; ++i) {
    const std::string text =
        Mutate(std::string(kQueries[i % std::size(kQueries)]), &rng,
               kQueryTokens);
    Schema schema = stream->schema;
    auto cq = Analyzer(&schema).AnalyzeText(text);
    if (!cq.ok()) {
      EXPECT_FALSE(cq.status().message().empty()) << text;
      ++rejected;
      continue;
    }
    ++compiled;
    (void)cq->ToString();
    auto engine = CreateAseqEngine(*cq);
    if (engine.ok()) testing_util::RunPerEvent(events, engine->get());
    StackEngine stack(*cq);
    testing_util::RunPerEvent(events, &stack);
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(compiled, 100u);
  EXPECT_GT(rejected, 1000u);
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

constexpr std::string_view kSnapshotTokens[] = {
    std::string_view("\0", 1),
    "\x01",
    "\x7f",
    "\xff",
    std::string_view("\0\0\0\0\0\0\0\0", 8),
    "\xff\xff\xff\xff\xff\xff\xff\xff",
    "\x01\0\0\0\0\0\0\0",
};

std::string ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One snapshot family under test: `make` builds a fresh policy for the
/// workload (serial or sharded); the snapshot is written by running the
/// first `kPrefix` events of `events` with checkpointing on.
/// `engine_payload` marks a serial engine's own payload, which opens with
/// its EngineStats.
template <class Policy>
struct SnapshotCase {
  std::string label;
  std::function<std::unique_ptr<Policy>(const RunOptions&)> make;
  bool engine_payload = false;
};

constexpr size_t kPrefix = 1024;
constexpr size_t kEvents = 1600;

/// Writes a valid snapshot of `c` after kPrefix events of `events` and
/// returns its path.
template <class Policy>
std::string ValidSnapshot(const SnapshotCase<Policy>& c,
                          const std::vector<Event>& events) {
  const std::string dir = ::testing::TempDir();
  RunOptions options;
  options.checkpoint_every = kPrefix;
  options.checkpoint_dir = dir;
  auto policy = c.make(options);
  std::vector<Event> prefix(events.begin(),
                            events.begin() + static_cast<ptrdiff_t>(kPrefix));
  auto result = policy->RunEvents(prefix);
  EXPECT_EQ(result.checkpoints_written, 1u) << c.label;
  return ckpt::SnapshotPathForOffset(dir, kPrefix);
}

/// Restores a fresh policy from `path` and, when that succeeds, runs the
/// rest of the stream through it.
template <class Policy>
bool RestoreAndFinish(const SnapshotCase<Policy>& c, const std::string& path,
                      const std::vector<Event>& events) {
  auto policy = c.make(RunOptions());
  uint64_t offset = 0;
  if (!policy->Restore(path, &offset).ok()) return false;
  const size_t from = offset < events.size() ? offset : events.size();
  std::vector<Event> tail(events.begin() + static_cast<ptrdiff_t>(from),
                          events.end());
  auto result = policy->RunEvents(tail);
  EXPECT_EQ(result.events, tail.size()) << c.label;
  return true;
}

template <class Policy>
void FuzzSnapshots(const SnapshotCase<Policy>& c,
                   const std::vector<Event>& events, uint64_t seed) {
  const std::string valid_path = ValidSnapshot(c, events);
  const std::string file = ReadBytes(valid_path);
  ASSERT_FALSE(file.empty()) << c.label;
  ckpt::SnapshotInfo info;
  std::string payload;
  ASSERT_TRUE(ckpt::ReadSnapshotFile(valid_path, &info, &payload).ok())
      << c.label;
  ASSERT_TRUE(RestoreAndFinish(c, valid_path, events)) << c.label;

  const std::string path =
      ::testing::TempDir() + "/aseq_fuzz_" + std::to_string(seed) + ".ckpt";
  if (c.engine_payload) {
    // A live-object count one below what the state holds must be
    // rejected: adopted, it would go negative as the state expires.
    // EngineStats opens with events, outputs and work units, then the
    // current count, each 8 bytes little-endian.
    std::string stale = payload;
    uint64_t current = 0;
    for (int b = 7; b >= 0; --b) {
      current = current << 8 | static_cast<uint8_t>(stale[24 + b]);
    }
    ASSERT_GT(current, 0u) << c.label;
    --current;
    for (int b = 0; b < 8; ++b) {
      stale[24 + b] = static_cast<char>(current >> (8 * b));
    }
    ASSERT_TRUE(ckpt::WriteSnapshotFile(path, info.engine_name,
                                        info.stream_offset, stale,
                                        info.queries)
                    .ok());
    uint64_t offset = 0;
    Status restored = c.make(RunOptions())->Restore(path, &offset);
    EXPECT_EQ(restored.code(), StatusCode::kParseError) << c.label;
    EXPECT_NE(restored.message().find("live objects"), std::string::npos)
        << c.label << ": " << restored.ToString();
  }
  std::mt19937_64 rng(seed);
  size_t raw_accepted = 0;
  for (int i = 0; i < 100; ++i) {
    WriteBytes(path, Mutate(file, &rng, kSnapshotTokens));
    if (RestoreAndFinish(c, path, events)) ++raw_accepted;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Rewrites keep the valid file's query hashes, so every mutated payload
  // reaches the engine decoders instead of the query check.
  size_t payload_accepted = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string mutated = Mutate(payload, &rng, kSnapshotTokens);
    ASSERT_TRUE(ckpt::WriteSnapshotFile(path, info.engine_name,
                                        info.stream_offset, mutated,
                                        info.queries)
                    .ok());
    if (RestoreAndFinish(c, path, events)) ++payload_accepted;
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The file checksum rejects raw corruption (a mutation can only slip
  // through by leaving the bytes unchanged, e.g. a truncation at the end).
  EXPECT_LT(raw_accepted, 10u) << c.label;
  // Most payload mutations must be rejected by the engine decoders too.
  EXPECT_LT(payload_accepted, 150u) << c.label;
  std::remove(path.c_str());
  std::remove(valid_path.c_str());
}

template <class EngineT>
Result<std::unique_ptr<MultiQueryEngine>> AsMulti(
    Result<std::unique_ptr<EngineT>> made) {
  if (!made.ok()) return made.status();
  return std::unique_ptr<MultiQueryEngine>(std::move(made).value());
}

constexpr const char* kGrouped =
    "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT WITHIN 800ms";

TEST(DecoderFuzzTest, MutatedSingleQuerySnapshotsNeverCrash) {
  auto stream = MakeStock(11, kEvents, 10);
  Schema& schema = stream->schema;
  const std::vector<Event>& events = stream->events;
  const CompiledQuery grouped = MustCompile(&schema, kGrouped);
  const CompiledQuery sem = MustCompile(
      &schema, "PATTERN SEQ(DELL, !QQQ, IPIX) AGG SUM(IPIX.price) WITHIN 1s");
  const CompiledQuery join = MustCompile(
      &schema,
      "PATTERN SEQ(DELL, IPIX) WHERE DELL.price < IPIX.price AGG COUNT "
      "WITHIN 300");
  auto aseq = [](const CompiledQuery& q) {
    return [&q](const RunOptions& options) {
      return std::move(exec::MakePolicy(
                           q, [&q] { return CreateAseqEngine(q); }, options))
          .value();
    };
  };
  auto sharded = [](const CompiledQuery& q) {
    return [&q](RunOptions options) {
      options.num_shards = 2;
      auto policy =
          exec::MakePolicy(q, [&q] { return CreateAseqEngine(q); }, options);
      EXPECT_EQ((*policy)->num_shards(), 2u);
      return std::move(policy).value();
    };
  };
  const std::vector<SnapshotCase<exec::ExecutionPolicy>> cases = {
      {"hpc", aseq(grouped), true},
      {"sem", aseq(sem), true},
      {"sharded-hpc", sharded(grouped)},
      {"stack",
       [&join](const RunOptions& options) {
         return std::move(
                    exec::MakePolicy(
                        join,
                        [&join]() -> Result<std::unique_ptr<QueryEngine>> {
                          return std::unique_ptr<QueryEngine>(
                              std::make_unique<StackEngine>(join));
                        },
                        options))
             .value();
       },
       true},
  };
  uint64_t seed = 1;
  for (const auto& c : cases) {
    FuzzSnapshots(c, events, seed++);
    if (HasFatalFailure()) return;
  }
}

TEST(DecoderFuzzTest, MutatedWorkloadSnapshotsNeverCrash) {
  auto stream = MakeStock(12, kEvents, 10);
  Schema& schema = stream->schema;
  const std::vector<Event>& events = stream->events;
  std::vector<CompiledQuery> queries;
  for (const char* text :
       {kGrouped,
        "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 800ms",
        "PATTERN SEQ(IPIX, AMAT) GROUP BY traderId AGG COUNT WITHIN 800ms"}) {
    queries.push_back(MustCompile(&schema, text));
  }
  // ECube takes ungrouped queries around one shared substring.
  std::vector<CompiledQuery> substring_queries;
  for (const char* text :
       {"PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms",
        "PATTERN SEQ(QQQ, DELL, IPIX) AGG COUNT WITHIN 800ms"}) {
    substring_queries.push_back(MustCompile(&schema, text));
  }
  const std::vector<EventTypeId> shared = {*schema.FindEventType("DELL"),
                                           *schema.FindEventType("IPIX")};
  // Ungrouped queries that chop into three segments each, so the snapshot
  // carries multi-connect rows (the private tails' tables).
  std::vector<CompiledQuery> three_segment_queries;
  for (const char* text :
       {"PATTERN SEQ(QQQ, DELL, IPIX, AMAT) AGG COUNT WITHIN 800ms",
        "PATTERN SEQ(INTC, DELL, IPIX, MSFT) AGG COUNT WITHIN 800ms"}) {
    three_segment_queries.push_back(MustCompile(&schema, text));
  }
  const ChopPlan three_segment_plan = PlanChopConnect(three_segment_queries);
  for (const auto& segs : three_segment_plan.query_segments) {
    ASSERT_EQ(segs.size(), 3u);
  }
  struct Engine {
    std::string name;
    const std::vector<CompiledQuery>* queries;
    exec::MultiEngineFactory factory;
  };
  const std::vector<Engine> engines = {
      {"cc", &queries,
       [&] {
         return AsMulti(
             ChopConnectEngine::Create(queries, PlanChopConnect(queries)));
       }},
      {"cc3", &three_segment_queries,
       [&] {
         return AsMulti(ChopConnectEngine::Create(three_segment_queries,
                                                  three_segment_plan));
       }},
      {"hybrid", &queries,
       [&] { return AsMulti(CompositeEngine::CreateHybrid(queries)); }},
      {"pretree", &queries,
       [&] { return AsMulti(PreTreeEngine::Create(queries)); }},
      {"nonshare", &queries,
       [&] { return AsMulti(CompositeEngine::CreateNonShare(queries)); }},
      {"ecube", &substring_queries,
       [&] {
         return AsMulti(EcubeEngine::Create(substring_queries, shared));
       }},
  };
  std::vector<SnapshotCase<exec::MultiExecutionPolicy>> cases;
  for (size_t shards : {size_t{1}, size_t{2}}) {
    for (const Engine& engine : engines) {
      if (shards == 2 && engine.name != "cc" && engine.name != "hybrid") {
        continue;
      }
      cases.push_back(
          {engine.name + "/" + std::to_string(shards),
           [qs = engine.queries, factory = engine.factory,
            shards](RunOptions options) {
             options.num_shards = shards;
             auto policy = exec::MakeMultiPolicy(*qs, factory, options);
             EXPECT_EQ((*policy)->num_shards(), shards);
             return std::move(policy).value();
           },
           /*engine_payload=*/shards == 1});
    }
  }
  uint64_t seed = 100;
  for (const auto& c : cases) {
    FuzzSnapshots(c, events, seed++);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Chop-Connect snapshot tables: targeted corruption
// ---------------------------------------------------------------------------

TEST(DecoderFuzzTest, ChopConnectTableCorruptionRejected) {
  // One query chopped [A B][C D][E F]. After the stream below the last
  // segment holds one entry (E) whose one table, a multi-connect at the
  // final junction, holds the suffix sums 2, 1 of tags 0 and 1 (the two
  // A's), so the engine payload ends with
  //   next id, n = 1, exp, count x2, first tag = 0, size = 2, cell x2,
  // after the 72 bytes of the middle segment and, before those, the first
  // segment's next id, n = 2, exp x2, count x4.
  Schema schema;
  Analyzer analyzer(&schema);
  Query q;
  q.pattern = Pattern::FromNames({"A", "B", "C", "D", "E", "F"});
  q.agg = AggregateSpec::Count();
  q.window_ms = 10000;
  std::vector<CompiledQuery> queries = {std::move(analyzer.Analyze(q)).value()};
  auto type = [&](const char* name) { return *schema.FindEventType(name); };
  ChopPlan plan;
  plan.segments = {{type("A"), type("B")},
                   {type("C"), type("D")},
                   {type("E"), type("F")}};
  plan.query_segments = {{0, 1, 2}};
  auto engine = ChopConnectEngine::Create(queries, plan);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  testing_util::StreamBuilder b(&schema);
  b.Add("A", 0).Add("A", 10).Add("B", 20).Add("C", 30).Add("D", 40).Add(
      "E", 50);
  testing_util::RunPerEvent(b.Build(), engine->get());
  ckpt::Writer writer;
  ASSERT_TRUE((*engine)->Checkpoint(&writer).ok());
  const std::string valid = writer.buffer();

  auto u64_at = [](const std::string& bytes, size_t from_end) {
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = v << 8 | static_cast<uint8_t>(bytes[bytes.size() - from_end + i]);
    }
    return v;
  };
  auto with_u64 = [](std::string bytes, size_t from_end, uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[bytes.size() - from_end + i] = static_cast<char>(v >> (8 * i));
    }
    return bytes;
  };
  // Offsets from the end of the payload.
  const size_t kCell1 = 8, kCell0 = 16, kSize = 24, kFirst = 32, kExp = 56,
               kEntries = 64, kNextId = 72, kFirstSegExp1 = 184;
  ASSERT_EQ(u64_at(valid, kCell1), 1u);
  ASSERT_EQ(u64_at(valid, kCell0), 2u);
  ASSERT_EQ(u64_at(valid, kSize), 2u);
  ASSERT_EQ(u64_at(valid, kFirst), 0u);
  ASSERT_EQ(u64_at(valid, kExp), 10050u);
  ASSERT_EQ(u64_at(valid, kEntries), 1u);
  ASSERT_EQ(u64_at(valid, kNextId), 1u);
  ASSERT_EQ(u64_at(valid, kFirstSegExp1), 10010u);

  auto restore = [&](const std::string& bytes) {
    auto fresh = ChopConnectEngine::Create(queries, plan);
    ckpt::Reader reader(bytes);
    Status status = (*fresh)->Restore(&reader);
    return status.ok() ? reader.ExpectEnd() : status;
  };
  ASSERT_TRUE(restore(valid).ok());
  const struct {
    const char* what;
    std::string bytes;
    const char* message;
  } broken[] = {
      {"table cut inside its cells", valid.substr(0, valid.size() - 8),
       "table cells"},
      // Each entry's table heads count toward its minimum size.
      {"table cut inside its head", valid.substr(0, valid.size() - 20),
       "segment entries"},
      {"table reaching past the first segment's next id",
       with_u64(valid, kFirst, 1), "next id"},
      {"first tag past the first segment's next id",
       with_u64(valid, kFirst, uint64_t{1} << 40), "next id"},
      {"over-limit cell count", with_u64(valid, kSize, uint64_t{1} << 40),
       "table cells"},
      {"cell count one past the payload", with_u64(valid, kSize, 3),
       "table cells"},
      {"more entries than ids assigned", with_u64(valid, kNextId, 0),
       "ids assigned"},
      {"expiry goes back", with_u64(valid, kFirstSegExp1, 9999),
       "predecessor"},
  };
  for (const auto& c : broken) {
    Status status = restore(c.bytes);
    EXPECT_EQ(status.code(), StatusCode::kParseError) << c.what;
    EXPECT_NE(status.message().find(c.message), std::string::npos)
        << c.what << ": " << status.ToString();
  }

  // A snapshot of the version-2 layout (row tables) is refused by its
  // version field before any payload byte is read.
  const std::string path = ::testing::TempDir() + "/aseq_cc_v2.ckpt";
  ASSERT_TRUE(
      ckpt::WriteSnapshotFile(path, (*engine)->name(), 6, valid).ok());
  std::string file = ReadBytes(path);
  ASSERT_EQ(static_cast<uint8_t>(file[8]), ckpt::kSnapshotFormatVersion);
  file[8] = 2;
  WriteBytes(path, file);
  ckpt::SnapshotInfo info;
  std::string payload;
  Status status = ckpt::ReadSnapshotFile(path, &info, &payload);
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_NE(status.message().find("format version 2"), std::string::npos)
      << status.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aseq
