// Differential and seeded mutation-fuzz tests for the trace decoder.
//
// ParseTrace (whole string, staged schema) and TraceFileSource (file read
// in chunks, parsed inline or on 1 or 3 parser threads, handed over in
// chunk order) share one parsing kernel; over the same bytes they must
// yield identical events — type, timestamp, attributes in order, doubles
// bit-exact — the same schema id order, or the identical error. The
// inputs straddle chunk boundaries (the default chunk and small ones
// passed through Open's chunk-size seam), mix CRLF, comments, blank lines
// and an unterminated last line, and are mutated by seeded byte flips,
// truncations and insertions; none may crash or hang (CI runs this suite
// under ASan/UBSan and ThreadSanitizer). An edge-token table pins the
// value and error each tricky token decodes to. A source given a read set
// must agree with one without it on everything but the unread values,
// which it drops, and must reject exactly the same malformed values.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <fstream>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/schema.h"
#include "query/analyzer.h"
#include "stream/trace_io.h"
#include "tests/fuzz_util.h"

/// Heap allocations made by this process so far: the test binary replaces
/// the global operator new (the array forms call these).
std::atomic<uint64_t> g_allocations{0};

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new(std::size_t size) {
  if (void* p = operator new(size, std::nothrow)) return p;
  throw std::bad_alloc();
}
// Not inlined: the compiler would pair the malloc above with a `delete`
// it cannot see is a free and warn of a mismatch.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace aseq {
namespace {

/// The bytes TraceFileSource reads per chunk (kTraceChunkBytes, 128 KiB).
constexpr size_t kChunkBytes = kTraceChunkBytes;

std::string WriteTemp(const std::string& content) {
  // Per process: two builds' suites may run side by side on one machine.
  const std::string path = ::testing::TempDir() + "/aseq_trace_fuzz_" +
                           std::to_string(::getpid()) + ".csv";
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return path;
}

uint64_t Bits(double d) {
  uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

/// Bit-exact event comparison (a double's sign of zero and NaN payload
/// count; Value::Equals would not see them).
void ExpectSameEvent(const Event& a, const Event& b, size_t index,
                     const std::string& context) {
  ASSERT_EQ(a.type(), b.type()) << context << " event#" << index;
  ASSERT_EQ(a.ts(), b.ts()) << context << " event#" << index;
  ASSERT_EQ(a.attrs().size(), b.attrs().size()) << context << " event#"
                                                << index;
  for (size_t i = 0; i < a.attrs().size(); ++i) {
    const auto& [aa, av] = a.attrs()[i];
    const auto& [ba, bv] = b.attrs()[i];
    ASSERT_EQ(aa, ba) << context << " event#" << index << " attr#" << i;
    ASSERT_EQ(av.type(), bv.type()) << context << " event#" << index;
    switch (av.type()) {
      case ValueType::kInt64:
        ASSERT_EQ(av.AsInt64(), bv.AsInt64()) << context;
        break;
      case ValueType::kDouble:
        ASSERT_EQ(Bits(av.AsDouble()), Bits(bv.AsDouble())) << context;
        break;
      case ValueType::kString:
        ASSERT_EQ(av.AsString(), bv.AsString()) << context;
        break;
      case ValueType::kNull:
        break;
    }
  }
}

/// How a TraceFileSource is drained: parser threads, chunk size (0: the
/// source's default) and events per BorrowBatch (1 = one event at a time).
struct DrainConfig {
  size_t threads = 0;
  size_t chunk_bytes = 0;
  size_t batch = 256;
};

/// Drains a TraceFileSource over `content` as `config` says, storing the
/// values `reads` names (null: all). Returns the source's final status;
/// `*events` gets copies of everything yielded, `*stats` (if set) the
/// ingest counters. Every batch but the last must be full.
Status DrainSource(const std::string& content, const DrainConfig& config,
                   Schema* schema, std::vector<Event>* events,
                   const TraceReadSet* reads = nullptr,
                   IngestStats* stats = nullptr) {
  auto source = TraceFileSource::Open(WriteTemp(content), schema,
                                      config.threads, config.chunk_bytes,
                                      reads);
  if (!source.ok()) return source.status();
  for (bool short_batch = false;;) {
    std::span<Event> view = (*source)->BorrowBatch(config.batch);
    if (view.empty()) break;
    EXPECT_FALSE(short_batch) << "a short batch before the end";
    short_batch = view.size() < config.batch;
    events->insert(events->end(), view.begin(), view.end());
  }
  if (stats != nullptr) *stats = (*source)->ingest_stats();
  return (*source)->status();
}

/// The source configurations every input is drained with: inline parsing
/// at the default and at the parallel chunk size and every batch size, then
/// re-chunked into `small_chunk`-byte chunks parsed inline, on one and on
/// three threads, and three threads at their default chunk size.
std::vector<DrainConfig> DrainConfigs(size_t small_chunk) {
  return {{0, 0, 1},           {0, 0, 256},         {0, kChunkBytes, 7},
          {0, small_chunk, 7}, {1, small_chunk, 1}, {1, small_chunk, 256},
          {3, small_chunk, 7}, {3, 0, 256}};
}

/// Asserts that `schema` names the same types and attributes, with the
/// same ids, as `ref`.
void ExpectSameIds(const Schema& schema, const Schema& ref,
                   const std::string& ctx) {
  ASSERT_EQ(schema.num_event_types(), ref.num_event_types()) << ctx;
  ASSERT_EQ(schema.num_attributes(), ref.num_attributes()) << ctx;
  for (EventTypeId t = 0; t < schema.num_event_types(); ++t) {
    ASSERT_EQ(schema.EventTypeName(t), ref.EventTypeName(t)) << ctx;
  }
  for (AttrId a = 0; a < schema.num_attributes(); ++a) {
    ASSERT_EQ(schema.AttributeName(a), ref.AttributeName(a)) << ctx;
  }
}

/// The differential check: ParseTrace and TraceFileSource agree on
/// `content` in every DrainConfigs(small_chunk) configuration — same
/// events and schema ids, or the same error. `names` are registered in
/// every schema first, as a compiled query registers its names.
void CheckAgree(const std::string& content, const std::string& context,
                size_t small_chunk = 64,
                const std::vector<std::string>& names = {}) {
  Schema base;
  for (const std::string& n : names) {
    base.RegisterEventType(n);
    base.RegisterAttribute(n);
  }
  Schema ref_schema = base;
  auto ref = ParseTrace(content, &ref_schema);
  for (const DrainConfig& config : DrainConfigs(small_chunk)) {
    const std::string ctx =
        context + " threads=" + std::to_string(config.threads) +
        " chunk=" + std::to_string(config.chunk_bytes) +
        " batch=" + std::to_string(config.batch);
    Schema schema = base;
    std::vector<Event> events;
    Status status = DrainSource(content, config, &schema, &events);
    if (!ref.ok()) {
      ASSERT_FALSE(status.ok()) << ctx << ": source accepted what ParseTrace "
                                << "rejected: " << ref.status().ToString();
      ASSERT_EQ(status.ToString(), ref.status().ToString()) << ctx;
      continue;
    }
    ASSERT_TRUE(status.ok()) << ctx << ": " << status.ToString();
    ASSERT_EQ(events.size(), ref->size()) << ctx;
    for (size_t i = 0; i < events.size(); ++i) {
      ExpectSameEvent((*ref)[i], events[i], i, ctx);
    }
    // Both register names in first-seen order, so ids line up.
    ExpectSameIds(schema, ref_schema, ctx);
  }
}

/// A well-formed trace of `lines` events in the generator's shape, with a
/// comment, blank lines, CRLF ends, spaces and every value kind mixed in.
std::string MakeTrace(size_t lines, uint64_t seed) {
  static const char* const kTypes[] = {"DELL", "IPIX", "AMAT", "QQQ", "MSFT"};
  std::mt19937_64 rng(seed);
  std::string out = "# generated trace\n";
  int64_t ts = 0;
  for (size_t i = 0; i < lines; ++i) {
    ts += static_cast<int64_t>(rng() % 7);
    out += kTypes[rng() % 5];
    out += ",";
    out += std::to_string(ts);
    out += ",price=" + std::to_string(100 + rng() % 50) + "." +
           std::to_string(rng() % 1000);
    out += ",volume=" + std::to_string(rng() % 10000);
    if (rng() % 4 == 0) out += ", note = n" + std::to_string(rng() % 9) + " ";
    out += ",traderId=" + std::to_string(rng() % 50);
    out += (rng() % 8 == 0) ? "\r\n" : "\n";
    if (rng() % 50 == 0) out += "\n";
  }
  return out;
}

TEST(TraceFuzzTest, ChunkStraddlingTraceAgrees) {
  const std::string trace = MakeTrace(60000, 1);
  ASSERT_GT(trace.size(), 2 * kChunkBytes);
  CheckAgree(trace, "multi-chunk", 4096);
  // No final newline: the last line still counts.
  CheckAgree(trace.substr(0, trace.size() - 1), "no-final-newline", 4096);
  Schema schema;
  auto parsed = ParseTrace(trace, &schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->size(), 60000u);
}

TEST(TraceFuzzTest, LineLongerThanTheReadBufferAgrees) {
  std::string trace = "DELL,1,price=2.5\n";
  trace += "IPIX,2,note=" + std::string(kChunkBytes + kChunkBytes / 2, 'x') +
           ",volume=7\n";
  trace += "AMAT,3,volume=8";
  CheckAgree(trace, "long-line");
}

TEST(TraceFuzzTest, LateErrorInMultiChunkTraceAgrees) {
  std::string trace = MakeTrace(40000, 2);
  ASSERT_GT(trace.size(), kChunkBytes);
  trace += "DELL,oops\n";
  CheckAgree(trace, "late-error", 4096);
  Schema schema;
  auto parsed = ParseTrace(trace, &schema);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("bad timestamp 'oops'"),
            std::string::npos);
}

TEST(TraceFuzzTest, FormattingCornersAgree) {
  const char* const kCases[] = {
      "",
      "\n",
      "\r\n\r\n",
      "# only a comment",
      "DELL,1\r\nIPIX,2\r\n",
      "DELL,1,price=1.5",
      "  DELL , 3 , price = 4 , , volume=5,\n",
      "DELL,1,x=1,x=2.5,y=,z=-0\n",
      "DELL,1\n# c\n\n   \nIPIX,1\n",
      "A,1\nB\n",
      ",5\n",
      "DELL,2\nIPIX,1\n",
  };
  for (const char* c : kCases) CheckAgree(c, std::string("case '") + c + "'");
  // More attribute fields than the parser caches names for, repeated so
  // the second line reads the positions the first one filled.
  std::string wide = "DELL,1";
  for (int i = 0; i < 100; ++i) {
    wide += ",a" + std::to_string(i % 70) + "=" + std::to_string(i);
  }
  CheckAgree(wide + "\n" + wide + "\n", "wide lines");
}

TEST(TraceFuzzTest, ResetReplaysTheSameStream) {
  const std::string trace = MakeTrace(3000, 3);
  for (const DrainConfig& config : DrainConfigs(1024)) {
    const std::string ctx = "reset threads=" + std::to_string(config.threads) +
                            " chunk=" + std::to_string(config.chunk_bytes);
    Schema schema;
    auto source = TraceFileSource::Open(WriteTemp(trace), &schema,
                                        config.threads, config.chunk_bytes);
    ASSERT_TRUE(source.ok());
    std::vector<Event> first, second;
    for (std::span<Event> b; !(b = (*source)->BorrowBatch(64)).empty();) {
      first.insert(first.end(), b.begin(), b.end());
    }
    (*source)->Reset();
    // A reset mid-stream, with parsers ahead, replays from the start too.
    ASSERT_EQ((*source)->BorrowBatch(100).size(), 100u) << ctx;
    (*source)->Reset();
    for (std::span<Event> b; !(b = (*source)->BorrowBatch(100)).empty();) {
      second.insert(second.end(), b.begin(), b.end());
    }
    ASSERT_TRUE((*source)->status().ok()) << ctx;
    ASSERT_EQ(first.size(), 3000u) << ctx;
    ASSERT_EQ(first.size(), second.size()) << ctx;
    for (size_t i = 0; i < first.size(); ++i) {
      ExpectSameEvent(first[i], second[i], i, ctx);
    }
  }
}

// ---------------------------------------------------------------------------
// The chunked reader's own cases: boundaries, late names, parsers ahead
// ---------------------------------------------------------------------------

/// `n` <= 90 lines of exactly 16 bytes each, `A,ts,val=dddddd\n`,
/// timestamps 10, 11, ..., so a 64-byte chunk holds exactly lines
/// 4k+1 .. 4k+4.
std::string FixedWidthTrace(size_t n) {
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    char line[32];
    std::snprintf(line, sizeof line, "A,%02zu,val=%06zu\n", 10 + i, i);
    out += line;
  }
  return out;
}

TEST(TraceChunkTest, ChunkerCutsWholeLinesInReadOrder) {
  const std::string trace = FixedWidthTrace(10) + "B,99," +
                            std::string(200, 'x') + "=1\nC,99";
  std::FILE* file = std::fopen(WriteTemp(trace).c_str(), "rb");
  ASSERT_NE(file, nullptr);
  TraceChunker chunker(file, "t", 64);
  std::string joined;
  std::vector<size_t> sizes;
  TraceChunk chunk;
  for (uint64_t i = 0; chunker.Next(&chunk); ++i) {
    EXPECT_EQ(chunk.index, i);
    sizes.push_back(chunk.size);
    joined.append(chunk.view());
  }
  EXPECT_TRUE(chunker.status().ok());
  EXPECT_TRUE(chunker.exhausted());
  EXPECT_EQ(joined, trace);
  EXPECT_EQ(chunker.bytes(), trace.size());
  // Four 16-byte lines fill each 64-byte chunk. The 208-byte line grows
  // its chunk to 256 bytes, which reach the end of the stream and so take
  // the unterminated last line too.
  EXPECT_EQ(sizes, (std::vector<size_t>{64, 64, 32, 212}));
  ASSERT_TRUE(chunker.Rewind().ok());
  ASSERT_TRUE(chunker.Next(&chunk));
  EXPECT_EQ(chunk.index, 0u);
  EXPECT_EQ(chunk.view(), trace.substr(0, 64));
  std::fclose(file);
}

TEST(TraceChunkTest, ParserGivesUnpublishedNamesChunkLocalIds) {
  Schema names;
  const EventTypeId b = names.RegisterEventType("B");
  const AttrId v = names.RegisterAttribute("v");
  TraceChunkParser parser;
  TraceChunk chunk;
  parser.Parse("# c\nA,5,w=1,v=2\nB,6,v=3.5\nA,7,w=x\n", names, &chunk);
  ASSERT_EQ(chunk.error_line, 0u) << chunk.error;
  EXPECT_EQ(chunk.lines, 4u);
  ASSERT_EQ(chunk.num_events, 3u);
  ASSERT_EQ(chunk.new_names.size(), 2u);  // A (line 2), then w (line 2)
  EXPECT_TRUE(chunk.new_names[0].is_type);
  EXPECT_EQ(chunk.new_names[0].name, "A");
  EXPECT_FALSE(chunk.new_names[1].is_type);
  EXPECT_EQ(chunk.new_names[1].name, "w");
  EXPECT_EQ(chunk.new_names[1].line, 2u);
  const Event& first = chunk.events[0];
  EXPECT_EQ(first.type(), TraceChunk::kLocalId | 0);
  EXPECT_EQ(first.attrs()[0].first, TraceChunk::kLocalId | 1);
  EXPECT_EQ(first.attrs()[1].first, v);
  EXPECT_EQ(chunk.events[1].type(), b);
  EXPECT_EQ(chunk.events[2].type(), TraceChunk::kLocalId | 0);
  EXPECT_EQ(chunk.first_ts_line, 2u);
  EXPECT_EQ(chunk.first_ts, 5);
  EXPECT_EQ(chunk.last_ts, 7);
  // Parsing stops at the first malformed line; its number is chunk-local.
  parser.Parse("B,1\nB,0\nB,oops\n", names, &chunk);
  EXPECT_EQ(chunk.num_events, 1u);
  EXPECT_EQ(chunk.error_line, 2u);
  EXPECT_EQ(chunk.error, std::string(
      "out-of-order timestamp (the stream must be in arrival order)"));
}

TEST(TraceChunkTest, OutOfOrderTimestampAtAChunkBoundary) {
  // Line 5 opens the second 64-byte chunk and goes back in time; a
  // chunk's own parse cannot see that, the in-order hand-off must.
  std::string trace = FixedWidthTrace(12);
  trace.replace(4 * 16, 16, "A,05,val=00004\r\n");
  ASSERT_EQ(trace.size(), 12u * 16);
  // The same line with a bad attribute too: the order is checked first.
  std::string bad_attr = trace;
  bad_attr.replace(4 * 16, 16, "A,05,v=1,zzzzz\r\n");
  for (const std::string& input : {trace, bad_attr}) {
    Schema ref_schema;
    auto ref = ParseTrace(input, &ref_schema);
    ASSERT_FALSE(ref.ok());
    EXPECT_EQ(ref.status().message(),
              "trace line 5: out-of-order timestamp (the stream must be in "
              "arrival order)");
    for (size_t threads : {0, 1, 3}) {
      Schema schema;
      std::vector<Event> events;
      Status status = DrainSource(input, {threads, 64, 3}, &schema, &events);
      EXPECT_EQ(status.ToString(), ref.status().ToString()) << threads;
      EXPECT_EQ(events.size(), 4u) << threads;
    }
    CheckAgree(input, "boundary-order");
  }
  // A comment opening the chunk moves the first timestamp to line 6.
  std::string commented = FixedWidthTrace(12);
  commented.replace(4 * 16, 32, "# fifteen bytes\nA,05,val=00005\r\n");
  CheckAgree(commented, "boundary-order-after-comment");
  Schema schema;
  EXPECT_NE(ParseTrace(commented, &schema).status().message().find(
                "trace line 6: out-of-order"),
            std::string::npos);
}

TEST(TraceChunkTest, FirstErrorInFileOrderWinsOverLaterParsedChunks) {
  // Chunk 1 (lines 5-8) has a bad timestamp; chunk 2 (lines 9-12) another
  // error. Three parsers get well ahead before the consumer reaches
  // chunk 1, and the earlier error still wins.
  std::string trace = FixedWidthTrace(40);
  trace.replace(6 * 16, 16, "A,zz,val=000006\n");
  trace.replace(9 * 16, 16, "A,99,v=1,junkk\r\n");
  Schema ref_schema;
  auto ref = ParseTrace(trace, &ref_schema);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().message(), "trace line 7: bad timestamp 'zz'");
  for (size_t threads : {0, 1, 3}) {
    Schema schema;
    auto source = TraceFileSource::Open(WriteTemp(trace), &schema, threads,
                                        64);
    ASSERT_TRUE(source.ok());
    ASSERT_EQ((*source)->BorrowBatch(2).size(), 2u);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::vector<Event> events;
    for (std::span<Event> b; !(b = (*source)->BorrowBatch(5)).empty();) {
      events.insert(events.end(), b.begin(), b.end());
    }
    EXPECT_EQ(events.size(), 4u) << threads;  // lines 3-6
    EXPECT_EQ((*source)->status().ToString(), ref.status().ToString())
        << threads;
    // The stream stays ended.
    EXPECT_TRUE((*source)->BorrowBatch(5).empty());
  }
}

TEST(TraceChunkTest, CommentOnlyChunksAndLongLines) {
  std::string trace = "# " + std::string(300, '-') + "\r\n";
  for (int i = 0; i < 20; ++i) trace += "#\r\n\r\n";
  trace += "DELL,1,price=1.5\r\n";
  trace += "IPIX,2,note=" + std::string(500, 'y') + ",v=2\r\n";
  for (int i = 0; i < 20; ++i) trace += "  # c " + std::to_string(i) + "\n";
  trace += "AMAT,3\r\n";
  CheckAgree(trace, "comment-chunks", 16);
  CheckAgree(trace, "comment-chunks", 64);
}

TEST(TraceChunkTest, NamesFirstSeenInLateChunksKeepTheirIdOrder) {
  // New types and attributes keep arriving until the last chunks, in an
  // order that differs between the two id spaces, and some names are
  // registered before the trace is read (as a compiled query's are).
  std::string trace;
  for (int i = 0; i < 3000; ++i) {
    trace += "T" + std::to_string(i % (1 + i / 100)) + "," +
             std::to_string(i) + ",a" + std::to_string(i % (1 + i / 150)) +
             "=" + std::to_string(i) + ",volume=" + std::to_string(i % 7) +
             "\n";
  }
  CheckAgree(trace, "late-names", 256, {"T5", "a3", "volume"});
  CheckAgree(trace, "late-names", 2048);
}

TEST(TraceChunkTest, DestroyingTheSourceMidStreamJoinsItsParsers) {
  const std::string path = WriteTemp(MakeTrace(20000, 5));
  for (size_t threads : {1, 3}) {
    for (size_t consumed : {0, 1, 300}) {
      Schema schema;
      auto source = TraceFileSource::Open(path, &schema, threads, 512);
      ASSERT_TRUE(source.ok());
      for (size_t i = 0; i < consumed; ++i) {
        ASSERT_FALSE((*source)->BorrowBatch(7).empty());
      }
      source->reset();  // must wake and join parsers blocked on full slots
    }
  }
}

TEST(TraceChunkTest, IngestStatsCountChunksAndBytes) {
  const std::string trace = FixedWidthTrace(40);
  for (size_t threads : {0, 3}) {
    Schema schema;
    std::vector<Event> events;
    auto source = TraceFileSource::Open(WriteTemp(trace), &schema, threads,
                                        64);
    ASSERT_TRUE(source.ok());
    while (!(*source)->BorrowBatch(9).empty()) {
    }
    const IngestStats stats = (*source)->ingest_stats();
    EXPECT_EQ(stats.parse_threads, threads);
    EXPECT_EQ(stats.chunks, 10u);
    EXPECT_EQ(stats.bytes, trace.size());
    EXPECT_GE(stats.remapped_chunks, 1u);  // the first chunk's new names
    EXPECT_GE(stats.parse_busy_s, 0.0);
    EXPECT_GE(stats.consumer_wait_s, 0.0);
  }
  // A trace that fits in one chunk starts no parser thread.
  Schema schema;
  auto small = TraceFileSource::Open(WriteTemp("A,1\nB,2\n"), &schema, 3);
  ASSERT_TRUE(small.ok());
  EXPECT_EQ((*small)->BorrowBatch(10).size(), 2u);
  EXPECT_EQ((*small)->ingest_stats().parse_threads, 0u);
}

/// Seeded trace mutations: the shared mutator, inserting one of the bytes
/// the parser treats specially (or a digit).
std::string Mutate(std::string s, std::mt19937_64* rng) {
  static constexpr std::string_view kInsert[] = {
      ",", "=", "+", "-", ".", "\r", "\n", "#", "0", "1",
      "2", "3", "4", "5", "6", "7",  "8",  "9", " "};
  return testing_util::Mutate(std::move(s), rng, kInsert);
}

TEST(TraceFuzzTest, SeededMutationsAgreeAndNeverCrash) {
  const std::string base =
      "# header\n"
      "DELL,1,price=10.5,volume=300,traderId=7\r\n"
      "IPIX,2,price=+.5,volume=-0,note=abc\n"
      "\n"
      "AMAT,3,price=5.,volume=00012\n"
      "DELL,4, price = 1.25 , traderId=9\n"
      "QQQ,4,price=-.5,volume=9223372036854775807";
  std::mt19937_64 rng(20261017);
  size_t rejected = 0;
  for (int i = 0; i < 1500; ++i) {
    const std::string input = Mutate(base, &rng);
    Schema schema;
    if (!ParseTrace(input, &schema).ok()) ++rejected;
    CheckAgree(input, "mutation#" + std::to_string(i));
    if (HasFatalFailure()) return;
  }
  // The mutations must exercise both outcomes.
  EXPECT_GT(rejected, 100u);
  EXPECT_LT(rejected, 1400u);
}

TEST(TraceFuzzTest, SeededMutationsOfMultiChunkTrace) {
  const std::string base = MakeTrace(45000, 4);
  ASSERT_GT(base.size(), 2 * kChunkBytes);
  std::mt19937_64 rng(77);
  for (int i = 0; i < 6; ++i) {
    std::string input = base;
    // Mutate near the first chunk boundary, where a carried-over partial
    // line is reassembled.
    const size_t at = kChunkBytes - 40 + rng() % 80;
    std::string window = input.substr(at, 64);
    input.replace(at, 64, Mutate(window, &rng));
    CheckAgree(input, "chunk-mutation#" + std::to_string(i), 4096);
    if (HasFatalFailure()) return;
  }
}

// ---------------------------------------------------------------------------
// Edge tokens: the value or error each decodes to (the values strtoll /
// strtod produced before the from_chars decoder, kept bit-exact)
// ---------------------------------------------------------------------------

struct ValueCase {
  std::string token;
  ValueType type;
  int64_t i;
  uint64_t double_bits;
  std::string error;  // non-empty: the expected message after the line
};

ValueCase Int(std::string token, int64_t v) {
  return {std::move(token), ValueType::kInt64, v, 0, ""};
}
ValueCase Dbl(std::string token, uint64_t bits) {
  return {std::move(token), ValueType::kDouble, 0, bits, ""};
}
ValueCase Str(std::string token) {
  return {std::move(token), ValueType::kString, 0, 0, ""};
}
ValueCase Err(std::string token, std::string error) {
  return {std::move(token), ValueType::kNull, 0, 0, std::move(error)};
}

TEST(TraceFuzzTest, EdgeValueTokens) {
  const std::string huge = std::string(400, '9') + ".5";
  const std::vector<ValueCase> cases = {
      Int("+5", 5),
      Int("-0", 0),
      Int("00012", 12),
      Int("9223372036854775807", INT64_MAX),
      Int("-9223372036854775808", INT64_MIN),
      Err("9223372036854775808",
          "integer value '9223372036854775808' overflows 64-bit range"),
      Err("-9223372036854775809",
          "integer value '-9223372036854775809' overflows 64-bit range"),
      Dbl("5.", Bits(5.0)),
      Dbl(".5", Bits(0.5)),
      Dbl("-.5", Bits(-0.5)),
      Dbl("+.5", Bits(0.5)),
      Dbl("-0.0", Bits(-0.0)),
      Dbl("0.1", 0x3fb999999999999aULL),
      // 400 zeros: underflows to +0.0 — a value, not an error.
      Dbl("0." + std::string(400, '0') + "1", 0),
      // Underflows to the subnormal 4.9e-311, rounded as strtod rounds it.
      Dbl("0." + std::string(310, '0') + "49", 0x905259b291aULL),
      Err(huge, "numeric value '" + huge + "' overflows double range"),
      // Not numbers: kept as strings.
      Str("+-5"),
      Str("++5"),
      Str("+"),
      Str("."),
      Str("1.2.3"),
      Str("1e5"),
      {"", ValueType::kNull, 0, 0, ""},
  };
  for (const ValueCase& c : cases) {
    const std::string line = "A,1,v=" + c.token + "\n";
    Schema schema;
    auto parsed = ParseTrace(line, &schema);
    const std::string ctx = "token '" + c.token.substr(0, 40) + "'";
    CheckAgree(line, ctx);
    if (!c.error.empty()) {
      ASSERT_FALSE(parsed.ok()) << ctx;
      EXPECT_EQ(parsed.status().code(), StatusCode::kParseError) << ctx;
      EXPECT_EQ(parsed.status().message(), "trace line 1: " + c.error)
          << ctx;
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << ctx << ": " << parsed.status().ToString();
    ASSERT_EQ(parsed->size(), 1u) << ctx;
    const Value& v = (*parsed)[0].attrs()[0].second;
    ASSERT_EQ(v.type(), c.type) << ctx;
    if (c.type == ValueType::kInt64) {
      EXPECT_EQ(v.AsInt64(), c.i) << ctx;
    } else if (c.type == ValueType::kDouble) {
      EXPECT_EQ(Bits(v.AsDouble()), c.double_bits) << ctx;
    } else if (c.type == ValueType::kString) {
      EXPECT_EQ(v.AsString(), c.token) << ctx;
    }
  }
}

TEST(TraceFuzzTest, EdgeTimestampTokens) {
  struct TsCase {
    std::string token;
    int64_t ts;
    std::string error;  // the whole message, when the line is rejected
  };
  const std::vector<TsCase> cases = {
      {"+7", 7, ""},
      {" 8 ", 8, ""},
      {"-9223372036854775808", INT64_MIN, ""},
      {"12x", 0, "trace line 1: bad timestamp '12x'"},
      // Trailing garbage is "bad" before the digits are "overflowing".
      {"99999999999999999999999x", 0,
       "trace line 1: bad timestamp '99999999999999999999999x'"},
      {"99999999999999999999999", 0,
       "trace line 1: timestamp '99999999999999999999999' overflows 64-bit "
       "range"},
      {"+-5", 0, "trace line 1: bad timestamp '+-5'"},
      {"", 0, "trace line 1: bad timestamp ''"},
      {std::string("4\0x", 3), 0,
       "trace line 1: bad timestamp '" + std::string("4\0x", 3) + "'"},
  };
  for (const TsCase& c : cases) {
    const std::string line = "A," + c.token + ",v=1\n";
    Schema schema;
    auto parsed = ParseTrace(line, &schema);
    const std::string ctx = "timestamp '" + c.token + "'";
    CheckAgree(line, ctx);
    if (!c.error.empty()) {
      ASSERT_FALSE(parsed.ok()) << ctx;
      EXPECT_EQ(parsed.status().message(), c.error) << ctx;
      continue;
    }
    ASSERT_TRUE(parsed.ok()) << ctx << ": " << parsed.status().ToString();
    EXPECT_EQ((*parsed)[0].ts(), c.ts) << ctx;
  }
}


// ---------------------------------------------------------------------------
// Read sets: values no query reads are validated, not stored
// ---------------------------------------------------------------------------

/// The read set of `types` and `attrs`, registered in `*schema` first, as
/// a compiled query registers its names.
TraceReadSet ReadSetOf(const std::vector<std::string>& types,
                       const std::vector<std::string>& attrs,
                       Schema* schema) {
  TraceReadSet reads;
  for (const std::string& t : types) {
    const EventTypeId id = schema->RegisterEventType(t);
    reads.types.resize(std::max<size_t>(reads.types.size(), id + 1));
    reads.types[id] = true;
  }
  for (const std::string& a : attrs) {
    const AttrId id = schema->RegisterAttribute(a);
    reads.attrs.resize(std::max<size_t>(reads.attrs.size(), id + 1));
    reads.attrs[id] = true;
  }
  return reads;
}

/// Drains `content` with and without the read set of `types` and `attrs`,
/// inline and on 3 parser threads, at `small_chunk` and at the default
/// chunk size. Both must give the same status (error line and text), the
/// same events (count, types, timestamps) and schema ids; the read
/// attributes must be identical and in order, the unread ones absent; and
/// every value must be counted once, as parsed or as skipped.
void CheckReadSetAgrees(const std::string& content, const std::string& context,
                        const std::vector<std::string>& types,
                        const std::vector<std::string>& attrs,
                        size_t small_chunk = 256) {
  Schema base;
  const TraceReadSet reads = ReadSetOf(types, attrs, &base);
  for (size_t threads : {0, 3}) {
    for (size_t chunk : {small_chunk, size_t{0}}) {
      const std::string ctx = context + " threads=" + std::to_string(threads) +
                              " chunk=" + std::to_string(chunk);
      Schema full_schema = base;
      Schema read_schema = base;
      std::vector<Event> full, read;
      IngestStats full_stats, read_stats;
      const Status full_status = DrainSource(
          content, {threads, chunk, 256}, &full_schema, &full, nullptr,
          &full_stats);
      const Status read_status = DrainSource(
          content, {threads, chunk, 256}, &read_schema, &read, &reads,
          &read_stats);
      ASSERT_EQ(read_status.ToString(), full_status.ToString()) << ctx;
      ASSERT_EQ(read.size(), full.size()) << ctx;
      ExpectSameIds(read_schema, full_schema, ctx);
      for (size_t i = 0; i < full.size(); ++i) {
        Event kept(full[i].type(), full[i].ts());
        if (reads.ReadsType(kept.type())) {
          for (const auto& [attr, value] : full[i].attrs()) {
            if (reads.ReadsAttr(attr)) kept.SetAttr(attr, value);
          }
        }
        ExpectSameEvent(kept, read[i], i, ctx);
        if (::testing::Test::HasFatalFailure()) return;
      }
      EXPECT_EQ(full_stats.values_skipped, 0u) << ctx;
      EXPECT_EQ(read_stats.values_parsed + read_stats.values_skipped,
                full_stats.values_parsed)
          << ctx;
    }
  }
}

/// Lines `TYPE,ts,price=...,volume=...,traderId=...` (a few with a string
/// `note`), timestamps non-decreasing; line `at` (if below `lines`) is
/// replaced by its own type and timestamp followed by `tail`.
std::string ReadSetTrace(size_t lines, uint64_t seed, size_t at,
                         const std::string& tail) {
  static const char* const kTypes[] = {"DELL", "IPIX", "AMAT", "QQQ", "MSFT"};
  std::mt19937_64 rng(seed);
  std::string out;
  int64_t ts = 0;
  for (size_t i = 0; i < lines; ++i) {
    ts += static_cast<int64_t>(rng() % 5);
    const std::string head =
        std::string(kTypes[rng() % 5]) + "," + std::to_string(ts);
    if (i == at) {
      out += head + tail + "\n";
      continue;
    }
    out += head + ",price=" + std::to_string(rng() % 500) + "." +
           std::to_string(rng() % 100) +
           ",volume=" + std::to_string(rng() % 10000);
    if (rng() % 5 == 0) out += ",note=n" + std::to_string(rng() % 9);
    out += ",traderId=" + std::to_string(rng() % 40) + "\n";
  }
  return out;
}

TEST(TraceReadSetTest, GeneratedTracesWithMalformedLinesAgree) {
  const std::string nines(400, '9');
  const std::string tails[] = {
      "",  // the line as generated, with no fields
      ",volume=9223372036854775808",
      ",price=1.5,volume",
      ",price=" + nines + ".5",
      ",price=2" + std::string(308, '0') + ".0",  // 2e308: overflows
      ",price=1" + std::string(308, '0') + ".0",  // 1e308: a value
      ",price=" + std::string(400, '0') + "1.5",  // leading zeros only
      ",price=" + std::string(308, '9') + ".9",   // 308 digits: a value
      ",traderId=99999999999999999999",
      ",traderId=,volume=-9223372036854775808,note=" + std::string(300, 'z'),
      "x,bad",
  };
  for (size_t k = 0; k < std::size(tails); ++k) {
    // 6000 lines span several default-size chunks; the altered line sits
    // in the third.
    const std::string trace = ReadSetTrace(6000, 30 + k, 5200, tails[k]);
    ASSERT_GT(trace.size(), 2 * kChunkBytes);
    const std::string ctx = "tail#" + std::to_string(k);
    CheckReadSetAgrees(trace, ctx, {"DELL", "IPIX", "AMAT"},
                       {"traderId", "note"});
    CheckReadSetAgrees(trace, ctx + " doubles", {"QQQ"}, {"price"});
    CheckReadSetAgrees(trace, ctx + " nothing", {}, {});
    if (HasFatalFailure()) return;
  }
}

TEST(TraceReadSetTest, UnreadMalformedValuesFailAsWhenRead) {
  // Each value sits in an attribute of a type no query reads; the error
  // (line and text) must be the one a reader of that attribute reports.
  const std::string huge = std::string(309, '9') + ".5";
  struct Case {
    std::string line;
    std::string error;
  };
  const Case cases[] = {
      {"QQQ,5,volume=9223372036854775808",
       "trace line 2: integer value '9223372036854775808' overflows 64-bit "
       "range"},
      {"QQQ,5,price=1.5,volume",
       "trace line 2: expected attr=value, got 'volume'"},
      {"QQQ,5,price=" + huge,
       "trace line 2: numeric value '" + huge + "' overflows double range"},
  };
  for (const Case& c : cases) {
    const std::string trace = "DELL,1,traderId=3\n" + c.line + "\nDELL,6\n";
    Schema schema;
    auto parsed = ParseTrace(trace, &schema);
    ASSERT_FALSE(parsed.ok()) << c.line;
    EXPECT_EQ(parsed.status().message(), c.error);
    CheckReadSetAgrees(trace, c.line.substr(0, 40), {"DELL"}, {"traderId"},
                       8);
    CheckReadSetAgrees(trace, c.line.substr(0, 40) + " read", {"QQQ"},
                       {"volume", "price"}, 8);
    // Unread on a read type too.
    std::string on_dell = trace;
    on_dell.replace(on_dell.find("QQQ"), 3, "DELL");
    CheckReadSetAgrees(on_dell, c.line.substr(0, 40) + " dell", {"DELL"},
                       {"traderId"}, 8);
  }
}

TEST(TraceReadSetTest, SeededMutationsAgree) {
  const std::string base =
      "DELL,1,price=10.5,volume=300,traderId=7\r\n"
      "QQQ,2,price=+.5,volume=-0,note=abc\n"
      "AMAT,3,price=5.,volume=00012,traderId=8\n"
      "IPIX,4, price = 1.25 , traderId=9,note=x\n"
      "QQQ,4,price=-.5,volume=9223372036854775807";
  std::mt19937_64 rng(8);
  for (int i = 0; i < 300; ++i) {
    const std::string input = Mutate(base, &rng);
    CheckReadSetAgrees(input, "mutation#" + std::to_string(i),
                       {"DELL", "AMAT"}, {"traderId", "volume"}, 48);
    if (HasFatalFailure()) return;
  }
}

TEST(TraceReadSetTest, OfNamesWhatTheQueriesRead) {
  Schema schema;
  schema.RegisterEventType("Z");
  schema.RegisterAttribute("unused");
  Analyzer analyzer(&schema);
  auto a = analyzer.AnalyzeText(
      "PATTERN SEQ(A, !B, C) WHERE A.x > 5 AND A.k = C.k AGG SUM(C.v) "
      "WITHIN 1s");
  auto b = analyzer.AnalyzeText(
      "PATTERN SEQ(D, A) GROUP BY g AGG COUNT WITHIN 1s");
  ASSERT_TRUE(a.ok() && b.ok());
  const std::vector<CompiledQuery> queries = {*a, *b};
  const TraceReadSet reads = TraceReadSet::Of(queries);
  for (const char* t : {"A", "B", "C", "D"}) {
    EXPECT_TRUE(reads.ReadsType(*schema.FindEventType(t))) << t;
  }
  EXPECT_FALSE(reads.ReadsType(*schema.FindEventType("Z")));
  for (const char* attr : {"x", "k", "v", "g"}) {
    EXPECT_TRUE(reads.ReadsAttr(*schema.FindAttribute(attr))) << attr;
  }
  EXPECT_FALSE(reads.ReadsAttr(*schema.FindAttribute("unused")));
  EXPECT_FALSE(reads.ReadsType(TraceChunk::kLocalId | 1));
  EXPECT_FALSE(reads.ReadsAttr(1000));
}

TEST(TraceReadSetTest, InlineEventsParseIntoARecycledChunkWithoutAllocating) {
  // Every line holds at most Event::kInlineAttrs stored values: all of
  // them when read whole, the read ones under the read set.
  Schema names;
  const TraceReadSet reads = ReadSetOf({"DELL"}, {"a0"}, &names);
  names.RegisterEventType("QQQ");
  std::string wide, narrow;
  for (int i = 0; i < 500; ++i) {
    const std::string head = (i % 2 ? "DELL," : "QQQ,") + std::to_string(i);
    narrow += head;
    for (uint32_t a = 0; a < Event::kInlineAttrs; ++a) {
      narrow += ",a" + std::to_string(a) + "=" + std::to_string(i) + ".5";
    }
    narrow += "\n";
    wide += head + ",a0=" + std::to_string(i) + ",zz=1.5,yy=2\n";
  }
  names.RegisterAttribute("zz");
  names.RegisterAttribute("yy");
  for (uint32_t a = 0; a < Event::kInlineAttrs; ++a) {
    names.RegisterAttribute("a" + std::to_string(a));
  }
  struct Case {
    const std::string* text;
    const TraceReadSet* reads;
  };
  for (const Case& c : {Case{&narrow, nullptr}, Case{&wide, &reads}}) {
    TraceChunkParser parser(c.reads);
    TraceChunk chunk;
    parser.Parse(*c.text, names, &chunk);
    ASSERT_EQ(chunk.error_line, 0u) << chunk.error;
    ASSERT_EQ(chunk.num_events, 500u);
    const uint64_t before = g_allocations.load();
    parser.Parse(*c.text, names, &chunk);
    EXPECT_EQ(g_allocations.load() - before, 0u);
    ASSERT_EQ(chunk.num_events, 500u);
    // Copies of such events allocate nothing either.
    const uint64_t copies_before = g_allocations.load();
    for (size_t i = 0; i < chunk.num_events; ++i) {
      Event copy = chunk.events[i];
      EXPECT_EQ(copy.attrs(), chunk.events[i].attrs());
    }
    EXPECT_EQ(g_allocations.load() - copies_before, 0u);
  }
}

// ---------------------------------------------------------------------------
// A deliberately naive reference parser: split on '\n', ',' and '=', trim
// with the "C" locale's isspace, classify through strtoll/strtod. The
// kernel must agree with it on every event, name order, value count and
// error.
// ---------------------------------------------------------------------------

/// What the reference makes of a trace: the events (values the read set
/// does not name dropped), the schema its names went into in first-seen
/// order, the values it stored and dropped, and the first error.
struct Reference {
  std::vector<Event> events;
  Schema schema;
  uint64_t parsed = 0;
  uint64_t skipped = 0;
  Status status;
};

std::string RefTrim(const std::string& s) {
  auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  size_t b = 0;
  size_t e = s.size();
  while (b < e && space(s[b])) ++b;
  while (e > b && space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> RefSplit(const std::string& s, char sep) {
  std::vector<std::string> parts(1);
  for (char c : s) {
    if (c == sep) {
      parts.emplace_back();
    } else {
      parts.back() += c;
    }
  }
  return parts;
}

bool RefDigits(const std::string& s, size_t from, size_t to) {
  for (size_t i = from; i < to; ++i) {
    if (s[i] < '0' || s[i] > '9') return false;
  }
  return true;
}

/// `[+-]?[0-9]+`.
bool RefIsInt(const std::string& t) {
  const size_t b = !t.empty() && (t[0] == '+' || t[0] == '-') ? 1 : 0;
  return t.size() > b && RefDigits(t, b, t.size());
}

/// `[+-]?[0-9]*\.[0-9]*` with at least one digit.
bool RefIsDouble(const std::string& t) {
  const size_t b = !t.empty() && (t[0] == '+' || t[0] == '-') ? 1 : 0;
  const size_t dot = t.find('.', b);
  return dot != std::string::npos && t.size() - b > 1 &&
         RefDigits(t, b, dot) && RefDigits(t, dot + 1, t.size());
}

/// strtoll over a RefIsInt token; false when it is out of range.
bool RefInt(const std::string& t, int64_t* out) {
  errno = 0;
  *out = std::strtoll(t.c_str(), nullptr, 10);
  return errno != ERANGE;
}

Reference RefParse(const std::string& content, const Schema& base,
                   const TraceReadSet* reads) {
  Reference ref;
  ref.schema = base;
  std::vector<std::string> lines = RefSplit(content, '\n');
  if (lines.back().empty()) lines.pop_back();  // after the last '\n'
  Timestamp prev = INT64_MIN;
  for (size_t n = 0; n < lines.size(); ++n) {
    auto fail = [&](const std::string& what) {
      ref.status = Status::ParseError("trace line " + std::to_string(n + 1) +
                                      ": " + what);
    };
    const std::string line = RefTrim(lines[n]);
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> fields = RefSplit(line, ',');
    if (fields.size() < 2) {
      fail("expected 'type,timestamp[,attr=value]...'");
      return ref;
    }
    const EventTypeId type = ref.schema.RegisterEventType(RefTrim(fields[0]));
    const std::string ts_token = RefTrim(fields[1]);
    int64_t ts = 0;
    if (!RefIsInt(ts_token)) {
      fail("bad timestamp '" + ts_token + "'");
      return ref;
    }
    if (!RefInt(ts_token, &ts)) {
      fail("timestamp '" + ts_token + "' overflows 64-bit range");
      return ref;
    }
    if (ts < prev) {
      fail("out-of-order timestamp (the stream must be in arrival order)");
      return ref;
    }
    prev = ts;
    Event event(type, ts);
    for (size_t f = 2; f < fields.size(); ++f) {
      const std::string field = RefTrim(fields[f]);
      if (field.empty()) continue;
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        fail("expected attr=value, got '" + field + "'");
        return ref;
      }
      const AttrId attr =
          ref.schema.RegisterAttribute(RefTrim(field.substr(0, eq)));
      const bool read = reads == nullptr ||
                        (reads->ReadsType(type) && reads->ReadsAttr(attr));
      ++(read ? ref.parsed : ref.skipped);
      const std::string token = RefTrim(field.substr(eq + 1));
      Value value;
      if (RefIsInt(token)) {
        int64_t v = 0;
        if (!RefInt(token, &v)) {
          fail("integer value '" + token + "' overflows 64-bit range");
          return ref;
        }
        value = Value(v);
      } else if (RefIsDouble(token)) {
        const double v = std::strtod(token.c_str(), nullptr);
        if (std::isinf(v)) {
          fail("numeric value '" + token + "' overflows double range");
          return ref;
        }
        value = Value(v);
      } else if (!token.empty()) {
        value = Value(token);
      }
      if (read) event.SetAttr(attr, value);
    }
    ref.events.push_back(event);
  }
  return ref;
}

/// The kernel against the reference on `content`, through ParseTrace
/// (without a read set) and through TraceFileSource inline and on parser
/// threads, at the default and at `small_chunk`-byte chunks. The names,
/// types and attributes of `reads_of` are registered first and, when
/// `use_reads`, form the read set. Errors must match in text and line,
/// the events before them too; a clean trace must give the same events,
/// schema ids and parsed/skipped counts.
void CheckAgainstReference(const std::string& content,
                           const std::string& context, size_t small_chunk,
                           bool use_reads) {
  Schema base;
  const TraceReadSet reads = ReadSetOf({"DELL", "IPIX", "N3"},
                                       {"traderId", "price", "x2"}, &base);
  const TraceReadSet* r = use_reads ? &reads : nullptr;
  const Reference ref = RefParse(content, base, r);
  if (!use_reads) {
    Schema schema = base;
    auto parsed = ParseTrace(content, &schema);
    ASSERT_EQ(parsed.status().ToString(), ref.status.ToString()) << context;
    if (parsed.ok()) {
      ASSERT_EQ(parsed->size(), ref.events.size()) << context;
      for (size_t i = 0; i < ref.events.size(); ++i) {
        ExpectSameEvent(ref.events[i], (*parsed)[i], i, context);
      }
      ExpectSameIds(schema, ref.schema, context);
    }
  }
  const DrainConfig configs[] = {{0, 0, 256},
                                 {0, small_chunk, 7},
                                 {1, small_chunk, 1},
                                 {3, small_chunk, 256}};
  for (const DrainConfig& config : configs) {
    const std::string ctx = context + " threads=" +
                            std::to_string(config.threads) + " chunk=" +
                            std::to_string(config.chunk_bytes) +
                            (use_reads ? " reads" : "");
    Schema schema = base;
    std::vector<Event> events;
    IngestStats stats;
    const Status status =
        DrainSource(content, config, &schema, &events, r, &stats);
    ASSERT_EQ(status.ToString(), ref.status.ToString()) << ctx;
    ASSERT_EQ(events.size(), ref.events.size()) << ctx;
    for (size_t i = 0; i < events.size(); ++i) {
      ExpectSameEvent(ref.events[i], events[i], i, ctx);
    }
    if (!status.ok()) continue;
    ExpectSameIds(schema, ref.schema, ctx);
    EXPECT_EQ(stats.values_parsed, ref.parsed) << ctx;
    EXPECT_EQ(stats.values_skipped, ref.skipped) << ctx;
  }
}

/// Whitespace the reference trims: every "C"-locale space but '\n'.
std::string RefPad(std::mt19937_64* rng) {
  static const char* const kPads[] = {"", "", "",   "",   " ",  "\t",
                                      "\r", " \t", "\v", "\f", "  \r"};
  return kPads[(*rng)() % std::size(kPads)];
}

/// A trace of `lines` lines for the reference check: whitespace around
/// every token, CRLF and LF ends, comments, blank lines, empty fields,
/// tokens of 18, 19 and 20 bytes, and new type and attribute names that
/// keep appearing to the end. With `bad` > 0, about one line in `bad`
/// carries a fault: an overflowing int64 or double, a field without '=',
/// a bad or out-of-order timestamp, or a line without a comma.
std::string RefTrace(size_t lines, uint64_t seed, size_t bad = 0) {
  static const char* const kTypes[] = {"DELL", "IPIX", "AMAT", "QQQ"};
  static const char* const kAttrs[] = {"price", "volume", "traderId", "note"};
  static const char* const kValues[] = {
      "24.5", "300", "7", "-0", ".5", "5.", "", "00012", "abc", "1.2.3",
      "+-5", "x=y", "-.5", "+7",
      "123456789012345678",    // 18 bytes, int64
      "1234567890123456789",   // 19, int64
      "9223372036854775807",   // 19, INT64_MAX
      "-922337203685477580",   // 19
      "-9223372036854775808",  // 20, INT64_MIN
      "+9223372036854775807",  // 20
      "1234567890123456.7",    // 18, double
      "12345678901234567.8",   // 19
      "-1234567890123456.78",  // 20
      "0.000000000000000001",  // 20
      "abcdefghijklmnopqr",    // 18, string
      "abcdefghijklmnopqrs",   // 19
      "abcdefghijklmnopqrst",  // 20
      "99999999999999999x",    // 18
      "999999999999999999.",   // 19
  };
  static const std::string kHuge = "1" + std::string(309, '0') + ".5";
  std::mt19937_64 rng(seed);
  std::string out;
  int64_t ts = 100;
  size_t new_types = 0;
  size_t new_attrs = 0;
  for (size_t i = 0; i < lines; ++i) {
    switch (rng() % 25) {
      case 0:
        out += RefPad(&rng) + "# comment, a=b\n";
        continue;
      case 1:
        out += RefPad(&rng) + (rng() % 2 ? "\r\n" : "\n");
        continue;
      default:
        break;
    }
    const size_t fault = bad > 0 && rng() % bad == 0 ? 1 + rng() % 8 : 0;
    std::string type = kTypes[rng() % std::size(kTypes)];
    if (rng() % 30 == 0) type = "N" + std::to_string(new_types++);
    ts += static_cast<int64_t>(rng() % 4);
    std::string ts_token = std::to_string(ts);
    if (fault == 1) ts_token = std::to_string(ts - 50);
    if (fault == 2) ts_token += "x";
    if (fault == 3) ts_token = "99999999999999999999";
    out += RefPad(&rng) + type + RefPad(&rng);
    if (fault == 4) {
      out += "\n";
      continue;
    }
    out += "," + RefPad(&rng) + ts_token + RefPad(&rng);
    const size_t fields = rng() % 6;
    const size_t faulty = fault >= 5 && fields > 0 ? rng() % fields : fields;
    for (size_t f = 0; f < fields; ++f) {
      out += ",";
      if (rng() % 12 == 0) continue;  // an empty field
      std::string name = kAttrs[rng() % std::size(kAttrs)];
      if (rng() % 40 == 0) name = "x" + std::to_string(new_attrs++);
      std::string value = kValues[rng() % std::size(kValues)];
      if (f == faulty) {
        if (fault == 5) value = "9999999999999999999";
        if (fault == 6) value = "-9223372036854775809";
        if (fault == 7) value = kHuge;
        if (fault == 8) {
          out += RefPad(&rng) + name + RefPad(&rng);
          continue;
        }
      }
      out += RefPad(&rng) + name + RefPad(&rng) + "=" + RefPad(&rng) + value +
             RefPad(&rng);
    }
    out += rng() % 3 == 0 ? "\r\n" : "\n";
  }
  return out;
}

TEST(TraceReferenceTest, GeneratedTracesAgreeWithTheReference) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    // Clean traces, then traces that fail somewhere along the way.
    const std::string trace = RefTrace(400, seed, seed < 8 ? 0 : 60);
    for (bool use_reads : {false, true}) {
      CheckAgainstReference(trace, "seed " + std::to_string(seed), 160,
                            use_reads);
      if (HasFatalFailure()) return;
    }
  }
  // Several default-size chunks, names still new in the last of them.
  const std::string big = RefTrace(12000, 99);
  ASSERT_GT(big.size(), 2 * kChunkBytes);
  CheckAgainstReference(big, "multi-chunk", 4096, false);
  CheckAgainstReference(big, "multi-chunk", 4096, true);
  // No final newline.
  CheckAgainstReference(big.substr(0, big.size() - 1), "unterminated", 4096,
                        true);
}

TEST(TraceReferenceTest, SeededMutationsAgreeWithTheReference) {
  static constexpr std::string_view kInsert[] = {
      ",", "=", "+", "-", ".", "\r", "\n", "#", "\t", "\v", " ", ",,", "0",
      "9", "99999999999", "x"};
  std::mt19937_64 rng(20261020);
  for (int i = 0; i < 300; ++i) {
    const std::string base = RefTrace(12, 1000 + i % 40);
    const std::string input = testing_util::Mutate(base, &rng, kInsert);
    CheckAgainstReference(input, "mutation#" + std::to_string(i), 64,
                          i % 2 == 1);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace aseq
