// Snapshot wire-format robustness: the Writer/Reader primitives round-trip
// every scalar exactly, and every way a snapshot file can be damaged —
// truncation at any byte, flipped magic, version skew, checksum corruption,
// trailing garbage, wrong engine name — fails with a precise Status and
// never undefined behavior. Also checks the atomic write protocol: a
// published snapshot exists in full or not at all, with no .tmp litter.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/ckpt.h"
#include "ckpt/snapshot.h"
#include "common/event.h"
#include "common/value.h"
#include "engine/reordering_engine.h"
#include "query/analyzer.h"
#include "stream/clickstream.h"
#include "test_util.h"

namespace aseq {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/ckpt-io-" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return data;
}

void WriteFileBytes(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

// ---------------------------------------------------------------------------
// Writer/Reader round-trips
// ---------------------------------------------------------------------------

TEST(CkptIoTest, ScalarRoundTrip) {
  ckpt::Writer w;
  w.WriteU8(0xAB);
  w.WriteBool(true);
  w.WriteBool(false);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(std::numeric_limits<uint64_t>::max());
  w.WriteI64(std::numeric_limits<int64_t>::min());
  w.WriteI64(-1);
  w.WriteDouble(3.141592653589793);
  w.WriteDouble(-0.0);
  w.WriteString("hello \0 world");
  w.WriteString("");

  ckpt::Reader r(w.buffer());
  uint8_t u8 = 0;
  bool b = false;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int64_t i64 = 0;
  double d = 0;
  std::string s;
  ASSERT_TRUE(r.ReadU8(&u8, "u8").ok());
  EXPECT_EQ(u8, 0xAB);
  ASSERT_TRUE(r.ReadBool(&b, "b1").ok());
  EXPECT_TRUE(b);
  ASSERT_TRUE(r.ReadBool(&b, "b2").ok());
  EXPECT_FALSE(b);
  ASSERT_TRUE(r.ReadU32(&u32, "u32").ok());
  EXPECT_EQ(u32, 0xDEADBEEFu);
  ASSERT_TRUE(r.ReadU64(&u64, "u64").ok());
  EXPECT_EQ(u64, std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(r.ReadI64(&i64, "i64min").ok());
  EXPECT_EQ(i64, std::numeric_limits<int64_t>::min());
  ASSERT_TRUE(r.ReadI64(&i64, "minus1").ok());
  EXPECT_EQ(i64, -1);
  ASSERT_TRUE(r.ReadDouble(&d, "pi").ok());
  EXPECT_EQ(d, 3.141592653589793);
  ASSERT_TRUE(r.ReadDouble(&d, "negzero").ok());
  EXPECT_EQ(d, -0.0);
  EXPECT_TRUE(std::signbit(d));
  ASSERT_TRUE(r.ReadString(&s, "str").ok());
  EXPECT_EQ(s, std::string("hello \0 world"));
  ASSERT_TRUE(r.ReadString(&s, "empty").ok());
  EXPECT_EQ(s, "");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(CkptIoTest, ValueAndEventRoundTrip) {
  ckpt::Writer w;
  ckpt::WriteValue(&w, Value());
  ckpt::WriteValue(&w, Value(static_cast<int64_t>(-42)));
  ckpt::WriteValue(&w, Value(2.5));
  ckpt::WriteValue(&w, Value(std::string("abc")));
  Event e;
  e.set_type(7);
  e.set_ts(-123);
  e.set_seq(99);
  e.SetAttr(3, Value(static_cast<int64_t>(5)));
  e.SetAttr(1, Value(std::string("x")));
  ckpt::WriteEvent(&w, e);

  ckpt::Reader r(w.buffer());
  Value v;
  ASSERT_TRUE(ckpt::ReadValue(&r, &v).ok());
  EXPECT_TRUE(v.is_null());
  ASSERT_TRUE(ckpt::ReadValue(&r, &v).ok());
  EXPECT_EQ(v.AsInt64(), -42);
  ASSERT_TRUE(ckpt::ReadValue(&r, &v).ok());
  EXPECT_EQ(v.AsDouble(), 2.5);
  ASSERT_TRUE(ckpt::ReadValue(&r, &v).ok());
  EXPECT_EQ(v.AsString(), "abc");
  Event back;
  ASSERT_TRUE(ckpt::ReadEvent(&r, &back).ok());
  EXPECT_EQ(back.type(), e.type());
  EXPECT_EQ(back.ts(), e.ts());
  EXPECT_EQ(back.seq(), e.seq());
  ASSERT_NE(back.FindAttr(3), nullptr);
  EXPECT_EQ(back.FindAttr(3)->AsInt64(), 5);
  ASSERT_NE(back.FindAttr(1), nullptr);
  EXPECT_EQ(back.FindAttr(1)->AsString(), "x");
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(CkptIoTest, ReaderRejectsTruncationEverywhere) {
  ckpt::Writer w;
  w.WriteU64(77);
  w.WriteString("payload");
  w.WriteDouble(1.5);
  const std::string full(w.buffer());
  // Every proper prefix must fail with ParseError — never crash or read
  // out of bounds.
  for (size_t len = 0; len < full.size(); ++len) {
    ckpt::Reader r(std::string_view(full.data(), len));
    uint64_t u = 0;
    std::string s;
    double d = 0;
    Status st = r.ReadU64(&u, "u");
    if (st.ok()) st = r.ReadString(&s, "s");
    if (st.ok()) st = r.ReadDouble(&d, "d");
    EXPECT_FALSE(st.ok()) << "prefix of " << len << " bytes parsed fully";
    // The message names the field and the byte shortfall — either as a
    // truncation or as a count exceeding the remaining payload.
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  }
}

TEST(CkptIoTest, StatsRoundTripKeepsOnlyTheContract) {
  const EngineStats in = testing_util::DistinctStats();
  ckpt::Writer w;
  ckpt::WriteStats(&w, in);
  // The contract, in this order, as 8-byte little-endian words.
  ckpt::Writer expected;
  for (uint64_t v : {101, 102, 103, 105, 106, 107, 108, 109}) {
    expected.WriteU64(v);
  }
  EXPECT_EQ(w.buffer(), expected.buffer());

  EngineStats out;
  ckpt::Reader r(w.buffer());
  ASSERT_TRUE(ckpt::ReadStats(&r, &out).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(out.events_processed, 101u);
  EXPECT_EQ(out.outputs, 102u);
  EXPECT_EQ(out.work_units, 103u);
  EXPECT_EQ(out.objects.current(), 105);
  EXPECT_EQ(out.objects.peak(), 106);
  EXPECT_EQ(out.batches_processed, 107u);
  EXPECT_EQ(out.max_batch_events, 108u);
  EXPECT_EQ(out.dropped_events, 109u);
  // Everything else is transient: it comes back zero.
  for (uint64_t v :
       {out.ht_probes, out.ht_probe_steps, out.ht_slots, out.ht_entries,
        out.adm_admitted, out.adm_rejected_local, out.adm_missing_attr,
        out.adm_generic_cmps, out.fault_injected, out.fault_restarts,
        out.fault_replayed_events, out.shed_partitions, out.shed_events,
        out.overload_stalls, out.pub_batches, out.ring_full_waits,
        out.ring_spins}) {
    EXPECT_EQ(v, 0u);
  }

  // A payload cut before field i names field i.
  const char* const labels[] = {
      "stats.events",          "stats.outputs",
      "stats.work_units",      "stats.objects.current",
      "stats.objects.peak",    "stats.batches",
      "stats.max_batch",       "stats.dropped"};
  for (size_t i = 0; i < 8; ++i) {
    ckpt::Reader cut(std::string_view(w.buffer()).substr(0, 8 * i));
    EngineStats s;
    const Status st = ckpt::ReadStats(&cut, &s);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << i;
    EXPECT_NE(st.ToString().find(labels[i]), std::string::npos)
        << st.ToString();
  }

  // Object counters a live engine cannot hold are refused.
  ckpt::Writer bad;
  for (uint64_t v : {1, 2, 3, 9, 8, 4, 5, 6}) bad.WriteU64(v);
  ckpt::Reader bad_reader(bad.buffer());
  EngineStats s;
  const Status st = ckpt::ReadStats(&bad_reader, &s);
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.ToString().find("object counters current=9 peak=8"),
            std::string::npos)
      << st.ToString();
}

TEST(CkptIoTest, ReaderRejectsBadBool) {
  ckpt::Writer w;
  w.WriteU8(2);
  ckpt::Reader r(w.buffer());
  bool b = false;
  Status st = r.ReadBool(&b, "flag");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(CkptIoTest, ReadCountGuardsHugeCounts) {
  // A corrupt count field claiming 2^60 elements must be rejected by the
  // remaining-bytes bound, not attempted as an allocation.
  ckpt::Writer w;
  w.WriteU64(1ull << 60);
  ckpt::Reader r(w.buffer());
  uint64_t n = 0;
  Status st = r.ReadCount(&n, /*min_elem_bytes=*/8, "elements");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

TEST(CkptIoTest, ExpectEndRejectsTrailingBytes) {
  ckpt::Writer w;
  w.WriteU32(1);
  w.WriteU8(0);
  ckpt::Reader r(w.buffer());
  uint32_t u = 0;
  ASSERT_TRUE(r.ReadU32(&u, "u").ok());
  Status st = r.ExpectEnd();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

// ---------------------------------------------------------------------------
// Snapshot file validation
// ---------------------------------------------------------------------------

TEST(CkptIoTest, SnapshotFileRoundTrip) {
  const std::string path = TempPath("roundtrip.aseqckpt");
  ASSERT_TRUE(
      ckpt::WriteSnapshotFile(path, "TestEngine", 12345, "payload-bytes")
          .ok());
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(info.engine_name, "TestEngine");
  EXPECT_EQ(info.stream_offset, 12345u);
  EXPECT_EQ(payload, "payload-bytes");
  std::remove(path.c_str());
}

TEST(CkptIoTest, AtomicWriteLeavesNoTempFile) {
  const std::string path = TempPath("atomic.aseqckpt");
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "E", 1, "x").ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind after publish";
  std::remove(path.c_str());
}

TEST(CkptIoTest, WriteToMissingDirectoryIsIoError) {
  Status st = ckpt::WriteSnapshotFile(
      ::testing::TempDir() + "/no-such-dir-xyz/snap.aseqckpt", "E", 1, "x");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
}

TEST(CkptIoTest, ReadMissingFileIsIoError) {
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(TempPath("never-written.aseqckpt"),
                                     &info, &payload);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError) << st.ToString();
}

TEST(CkptIoTest, RejectsBadMagic) {
  const std::string path = TempPath("badmagic.aseqckpt");
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "E", 1, "x").ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'Z';
  WriteFileBytes(path, bytes);
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("magic"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

TEST(CkptIoTest, RejectsVersionSkew) {
  const std::string path = TempPath("verskew.aseqckpt");
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "E", 1, "x").ok());
  std::string bytes = ReadFileBytes(path);
  bytes[8] = static_cast<char>(ckpt::kSnapshotFormatVersion + 1);
  WriteFileBytes(path, bytes);
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("version"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

// Version 2 (flat partition store) restructured every HPC payload:
// interner table + slab geometry replaced the bucket-ordered node list. A
// v1 file must be rejected at the header — before any payload parsing
// could misread old bytes as new structure — with a message naming both
// the file's version and the version this build reads.
TEST(CkptIoTest, RejectsOldFormatVersion) {
  static_assert(ckpt::kSnapshotFormatVersion >= 2,
                "this test fakes a version-1 file; it must be old");
  const std::string path = TempPath("verold.aseqckpt");
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "E", 1, "x").ok());
  std::string bytes = ReadFileBytes(path);
  bytes[8] = 1;  // u32 LE version field starts right after the magic
  bytes[9] = 0;
  bytes[10] = 0;
  bytes[11] = 0;
  WriteFileBytes(path, bytes);
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("version 1"), std::string::npos)
      << st.ToString();
  EXPECT_NE(st.message().find("version " +
                              std::to_string(ckpt::kSnapshotFormatVersion)),
            std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(CkptIoTest, RejectsChecksumCorruption) {
  const std::string path = TempPath("badsum.aseqckpt");
  ASSERT_TRUE(
      ckpt::WriteSnapshotFile(path, "Engine", 42, "important-state").ok());
  std::string bytes = ReadFileBytes(path);
  // Flip one bit in the body (past the 20-byte header).
  bytes[24] = static_cast<char>(bytes[24] ^ 0x01);
  WriteFileBytes(path, bytes);
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
  std::remove(path.c_str());
}

TEST(CkptIoTest, RejectsTruncatedFileAtEveryLength) {
  const std::string path = TempPath("truncated.aseqckpt");
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "Engine", 7, "state").ok());
  const std::string full = ReadFileBytes(path);
  for (size_t len = 0; len < full.size(); ++len) {
    WriteFileBytes(path, full.substr(0, len));
    ckpt::SnapshotInfo info;
    std::string payload;
    Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
    EXPECT_FALSE(st.ok()) << "accepted a " << len << "-byte prefix of a "
                          << full.size() << "-byte snapshot";
    EXPECT_EQ(st.code(), StatusCode::kParseError)
        << "len=" << len << ": " << st.ToString();
  }
  std::remove(path.c_str());
}

TEST(CkptIoTest, RejectsTrailingGarbage) {
  const std::string path = TempPath("trailing.aseqckpt");
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "E", 1, "x").ok());
  WriteFileBytes(path, ReadFileBytes(path) + "junk");
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  std::remove(path.c_str());
}

// The durable-write protocol is write-tmp, fsync-tmp, rename, fsync-dir:
// overwriting a published snapshot must go through the same path —
// replacing the contents atomically with no .tmp litter — including when
// the target path has no directory component (the parent to fsync is ".").
TEST(CkptIoTest, OverwritePublishesAtomicallyAndDurably) {
  const std::string path = TempPath("overwrite.aseqckpt");
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "E", 1, "old-state").ok());
  ASSERT_TRUE(ckpt::WriteSnapshotFile(path, "E", 2, "new-state").ok());
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good()) << "temp file left behind after overwrite";
  ckpt::SnapshotInfo info;
  std::string payload;
  Status st = ckpt::ReadSnapshotFile(path, &info, &payload);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(info.stream_offset, 2u);
  EXPECT_EQ(payload, "new-state");
  std::remove(path.c_str());
}

TEST(CkptIoTest, WritesBareRelativePath) {
  // No '/' in the path: the parent directory to sync is the working
  // directory, which must not trip the post-rename fsync.
  const std::string name = "ckpt-io-bare-relative.aseqckpt";
  Status st = ckpt::WriteSnapshotFile(name, "E", 3, "rel");
  ASSERT_TRUE(st.ok()) << st.ToString();
  ckpt::SnapshotInfo info;
  std::string payload;
  ASSERT_TRUE(ckpt::ReadSnapshotFile(name, &info, &payload).ok());
  EXPECT_EQ(payload, "rel");
  std::remove(name.c_str());
}

TEST(CkptIoTest, SnapshotPathForOffsetSortsNumerically) {
  std::string a = ckpt::SnapshotPathForOffset("d", 999);
  std::string b = ckpt::SnapshotPathForOffset("d", 1000);
  std::string c = ckpt::SnapshotPathForOffset("d", 10000000000ull);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_NE(a.find("ckpt-"), std::string::npos);
  EXPECT_NE(a.find(".aseqckpt"), std::string::npos);
}

TEST(CkptIoTest, Fnv1a64KnownVectors) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(ckpt::Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(ckpt::Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(ckpt::Fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// ---------------------------------------------------------------------------
// Snapshot bytes pinned per engine
// ---------------------------------------------------------------------------

TEST(CkptIoTest, StringKeyedSnapshotBytesArePinned) {
  // HPC, stack-based and reordering snapshots after a fixed clickstream
  // grouped by the string attribute `ip`: the partition keys, the stacked
  // events and the reorder buffer all carry strings. The stack and reorder
  // payloads hold whole events, every attribute included. A changed hash
  // means a changed snapshot format (or changed event contents).
  struct Pin {
    const char* name;
    uint64_t hash;
  };
  const Pin pins[] = {
      {"hpc", 0x7f1a046478d2c3e9ull},
      {"stack", 0x944e7c0602d461bfull},
      {"reorder", 0x3fff29296ed93a62ull},
  };
  for (const Pin& pin : pins) {
    Schema schema;
    ClickstreamOptions options;
    options.seed = 11;
    options.num_events = 3000;
    std::vector<Event> events = GenerateClickstream(options, &schema);
    Analyzer analyzer(&schema);
    auto query = analyzer.AnalyzeText(
        "PATTERN SEQ(ViewKindle, BuyKindle) GROUP BY ip AGG COUNT "
        "WITHIN 200ms");
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    std::unique_ptr<QueryEngine> engine;
    const std::string name = pin.name;
    if (name == "stack") {
      engine = std::make_unique<StackEngine>(*query);
    } else {
      auto hpc = CreateAseqEngine(*query);
      ASSERT_TRUE(hpc.ok()) << hpc.status().ToString();
      engine = std::move(hpc).value();
      EXPECT_NE(dynamic_cast<HpcEngine*>(engine.get()), nullptr);
      if (name == "reorder") {
        engine = std::make_unique<ReorderingEngine>(std::move(engine), 30);
      }
    }
    testing_util::RunPerEvent(events, engine.get());
    ckpt::Writer writer;
    ASSERT_TRUE(engine->Checkpoint(&writer).ok()) << pin.name;
    EXPECT_EQ(ckpt::Fnv1a64(writer.buffer()), pin.hash) << std::hex << pin.name;
  }
}

}  // namespace
}  // namespace aseq
