#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "stream/clickstream.h"
#include "stream/generator.h"
#include "stream/stock_stream.h"
#include "stream/stream_source.h"
#include "stream/trace_io.h"
#include "stream/workload.h"

namespace aseq {
namespace {

StreamConfig SmallConfig(uint64_t seed) {
  StreamConfig config;
  config.seed = seed;
  config.num_events = 500;
  config.min_gap_ms = 0;
  config.max_gap_ms = 3;
  config.types = {{"A", 1.0}, {"B", 2.0}, {"C", 1.0}};
  config.attrs.push_back(AttrSpec::IntUniform("id", 0, 4));
  config.attrs.push_back(AttrSpec::DoubleUniform("w", 1.0, 2.0));
  config.attrs.push_back(AttrSpec::RandomWalk("price", 50.0, 1.0));
  config.attrs.push_back(AttrSpec::StringPool("tag", {"x", "y"}));
  return config;
}

TEST(StreamGeneratorTest, DeterministicForSeed) {
  Schema s1, s2;
  StreamGenerator g1(SmallConfig(7), &s1);
  StreamGenerator g2(SmallConfig(7), &s2);
  std::vector<Event> e1 = g1.Generate();
  std::vector<Event> e2 = g2.Generate();
  ASSERT_EQ(e1.size(), e2.size());
  for (size_t i = 0; i < e1.size(); ++i) {
    EXPECT_EQ(e1[i].type(), e2[i].type());
    EXPECT_EQ(e1[i].ts(), e2[i].ts());
    EXPECT_EQ(e1[i].attrs().size(), e2[i].attrs().size());
    for (size_t a = 0; a < e1[i].attrs().size(); ++a) {
      EXPECT_TRUE(e1[i].attrs()[a].second.Equals(e2[i].attrs()[a].second));
    }
  }
  Schema s3;
  StreamGenerator g3(SmallConfig(8), &s3);
  std::vector<Event> e3 = g3.Generate();
  bool differs = false;
  for (size_t i = 0; i < e1.size() && !differs; ++i) {
    differs = e1[i].type() != e3[i].type() || e1[i].ts() != e3[i].ts();
  }
  EXPECT_TRUE(differs);
}

TEST(StreamGeneratorTest, TimestampsNonDecreasing) {
  Schema schema;
  StreamGenerator gen(SmallConfig(3), &schema);
  std::vector<Event> events = gen.Generate();
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].ts(), events[i - 1].ts());
  }
}

TEST(StreamGeneratorTest, WeightsRoughlyRespected) {
  Schema schema;
  StreamConfig config = SmallConfig(5);
  config.num_events = 8000;
  StreamGenerator gen(config, &schema);
  std::vector<Event> events = gen.Generate();
  size_t counts[3] = {0, 0, 0};
  for (const Event& e : events) ++counts[e.type()];
  // B has weight 2 vs 1: expect roughly twice as frequent (loose bounds).
  EXPECT_GT(counts[1], counts[0] * 3 / 2);
  EXPECT_GT(counts[1], counts[2] * 3 / 2);
  EXPECT_GT(counts[0], 1000u);
  EXPECT_GT(counts[2], 1000u);
}

TEST(StreamGeneratorTest, AttributeRangesRespected) {
  Schema schema;
  StreamGenerator gen(SmallConfig(9), &schema);
  std::vector<Event> events = gen.Generate();
  AttrId id = *schema.FindAttribute("id");
  AttrId w = *schema.FindAttribute("w");
  AttrId price = *schema.FindAttribute("price");
  AttrId tag = *schema.FindAttribute("tag");
  for (const Event& e : events) {
    int64_t v = e.GetAttr(id).AsInt64();
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 4);
    double d = e.GetAttr(w).AsDouble();
    EXPECT_GE(d, 1.0);
    EXPECT_LT(d, 2.0);
    EXPECT_GT(e.GetAttr(price).AsDouble(), 0.0);  // prices stay positive
    const std::string& t = e.GetAttr(tag).AsString();
    EXPECT_TRUE(t == "x" || t == "y");
  }
}

TEST(StreamGeneratorTest, GenerateNContinues) {
  Schema schema;
  StreamGenerator gen(SmallConfig(4), &schema);
  std::vector<Event> first = gen.GenerateN(10);
  std::vector<Event> second = gen.GenerateN(10);
  EXPECT_GE(second.front().ts(), first.back().ts());
}

TEST(VectorSourceTest, YieldsAllAndResets) {
  Schema schema;
  StreamGenerator gen(SmallConfig(2), &schema);
  VectorSource source(gen.GenerateN(25));
  size_t n = 0;
  for (std::span<Event> b; !(b = source.BorrowBatch(7)).empty();) {
    EXPECT_LE(b.size(), 7u);
    n += b.size();
  }
  EXPECT_EQ(n, 25u);
  EXPECT_TRUE(source.BorrowBatch(7).empty());
  source.Reset();
  EXPECT_EQ(source.BorrowBatch(7).size(), 7u);
}

TEST(ConstVectorSourceTest, CopiesSlicesAndResets) {
  Schema schema;
  StreamGenerator gen(SmallConfig(2), &schema);
  const std::vector<Event> events = gen.GenerateN(25);
  ConstVectorSource source(&events);
  size_t n = 0;
  for (std::span<Event> b; !(b = source.BorrowBatch(7)).empty();) {
    for (Event& e : b) {
      EXPECT_EQ(e.ts(), events[n].ts());
      e.set_seq(1000 + n);  // stamps the copy, never the caller's event
      EXPECT_NE(events[n].seq(), e.seq());
      ++n;
    }
  }
  EXPECT_EQ(n, 25u);
  source.Reset();
  EXPECT_EQ(source.BorrowBatch(100).size(), 25u);
}

// --------------------------------------------------------------------------
// Presets
// --------------------------------------------------------------------------

TEST(StockStreamTest, DefaultsMatchPaperTraceSize) {
  StockStreamOptions options;
  options.num_events = 2000;  // keep the test fast; default is 120k
  Schema schema;
  std::vector<Event> events = GenerateStockStream(options, &schema);
  EXPECT_EQ(events.size(), 2000u);
  EXPECT_EQ(schema.num_event_types(), 10u);
  ASSERT_TRUE(schema.FindEventType("DELL").ok());
  ASSERT_TRUE(schema.FindEventType("QQQ").ok());
  ASSERT_TRUE(schema.FindAttribute("price").ok());
  ASSERT_TRUE(schema.FindAttribute("volume").ok());
  ASSERT_TRUE(schema.FindAttribute("traderId").ok());
  StockStreamOptions defaults;
  EXPECT_EQ(defaults.num_events, 120000u);  // the paper's trace portion
}

TEST(StockStreamTest, TraderIdsBounded) {
  StockStreamOptions options;
  options.num_events = 500;
  options.num_traders = 5;
  Schema schema;
  std::vector<Event> events = GenerateStockStream(options, &schema);
  AttrId trader = *schema.FindAttribute("traderId");
  std::set<int64_t> ids;
  for (const Event& e : events) ids.insert(e.GetAttr(trader).AsInt64());
  EXPECT_LE(ids.size(), 5u);
  EXPECT_GE(ids.size(), 3u);
}

TEST(ClickstreamTest, TypesAndAttrs) {
  ClickstreamOptions options;
  options.num_events = 1000;
  Schema schema;
  std::vector<Event> events = GenerateClickstream(options, &schema);
  EXPECT_EQ(events.size(), 1000u);
  ASSERT_TRUE(schema.FindEventType("ViewKindle").ok());
  ASSERT_TRUE(schema.FindEventType("ClickSubmit").ok());
  AttrId ip = *schema.FindAttribute("ip");
  for (const Event& e : events) {
    EXPECT_FALSE(e.GetAttr(ip).is_null());
  }
}

// --------------------------------------------------------------------------
// Trace I/O
// --------------------------------------------------------------------------

TEST(TraceIoTest, RoundTrip) {
  Schema schema;
  StreamGenerator gen(SmallConfig(6), &schema);
  std::vector<Event> events = gen.GenerateN(50);
  std::string text = FormatTrace(events, schema);
  Schema schema2;
  auto parsed = ParseTrace(text, &schema2);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), events.size());
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(schema2.EventTypeName((*parsed)[i].type()),
              schema.EventTypeName(events[i].type()));
    EXPECT_EQ((*parsed)[i].ts(), events[i].ts());
  }
}

TEST(TraceIoTest, ParsesTypedValues) {
  Schema schema;
  auto parsed = ParseTrace(
      "# comment line\n"
      "DELL,100,price=24.5,volume=300,note=hello\n"
      "\n"
      "IPIX,101,delta=-2\n",
      &schema);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  const Event& e = (*parsed)[0];
  EXPECT_EQ(e.GetAttr(*schema.FindAttribute("price")).type(),
            ValueType::kDouble);
  EXPECT_EQ(e.GetAttr(*schema.FindAttribute("volume")).type(),
            ValueType::kInt64);
  EXPECT_EQ(e.GetAttr(*schema.FindAttribute("note")).type(),
            ValueType::kString);
  EXPECT_EQ((*parsed)[1].GetAttr(*schema.FindAttribute("delta")).AsInt64(),
            -2);
}

TEST(TraceIoTest, RejectsMalformedLines) {
  Schema schema;
  EXPECT_FALSE(ParseTrace("DELL\n", &schema).ok());
  EXPECT_FALSE(ParseTrace("DELL,abc\n", &schema).ok());
  EXPECT_FALSE(ParseTrace("DELL,100,price\n", &schema).ok());
  // Out-of-order timestamps violate the in-order stream assumption.
  EXPECT_FALSE(ParseTrace("DELL,100\nIPIX,99\n", &schema).ok());
}

TEST(TraceIoTest, FileRoundTrip) {
  Schema schema;
  StreamGenerator gen(SmallConfig(11), &schema);
  std::vector<Event> events = gen.GenerateN(20);
  std::string path = ::testing::TempDir() + "/aseq_trace_test.csv";
  ASSERT_TRUE(WriteTraceFile(path, events, schema).ok());
  Schema schema2;
  auto parsed = ReadTraceFile(path, &schema2);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->size(), 20u);
  EXPECT_FALSE(ReadTraceFile("/nonexistent/path.csv", &schema2).ok());
}

TEST(TraceIoTest, ParseThreadsFollowThePlan) {
  // Serial and sharded runs alike parse on up to 3 spare cores.
  EXPECT_EQ(TraceParseThreads(4), 3u);
  EXPECT_EQ(TraceParseThreads(16), 3u);
  EXPECT_EQ(TraceParseThreads(3), 2u);
  EXPECT_EQ(TraceParseThreads(2), 1u);
  // A 1-core host (or an unknown core count) parses inline.
  EXPECT_EQ(TraceParseThreads(1), 0u);
  EXPECT_EQ(TraceParseThreads(0), 0u);
}

/// Writes `content` into a new FIFO at `path` from a thread; the caller
/// joins it after opening the read end.
std::thread FeedFifo(const std::string& path, std::string content) {
  ::unlink(path.c_str());
  EXPECT_EQ(::mkfifo(path.c_str(), 0600), 0);
  return std::thread([path, content = std::move(content)] {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return;
    std::fwrite(content.data(), 1, content.size(), f);
    std::fclose(f);
  });
}

TEST(TraceIoTest, StreamsAFifoAndResetOnItIsAnIoError) {
  std::string trace;
  for (int i = 0; i < 5000; ++i) {
    trace += (i % 2 ? "A," : "B,") + std::to_string(i) + ",v=" +
             std::to_string(i % 13) + "\n";
  }
  const std::string path = ::testing::TempDir() + "/aseq_trace_fifo";
  for (size_t threads : {0, 3}) {
    std::thread writer = FeedFifo(path, trace);
    Schema schema;
    auto source = TraceFileSource::Open(path, &schema, threads, 4096);
    ASSERT_TRUE(source.ok()) << source.status().ToString();
    size_t n = 0;
    for (std::span<Event> b; !(b = (*source)->BorrowBatch(100)).empty();) {
      n += b.size();
    }
    writer.join();
    EXPECT_TRUE((*source)->status().ok()) << (*source)->status().ToString();
    EXPECT_EQ(n, 5000u);
    // A pipe cannot be rewound: the replay fails loudly instead of
    // resuming from wherever the pipe is.
    (*source)->Reset();
    EXPECT_EQ((*source)->status().code(), StatusCode::kIoError);
    EXPECT_NE((*source)->status().message().find("not seekable"),
              std::string::npos);
    EXPECT_TRUE((*source)->BorrowBatch(100).empty());
  }
  ::unlink(path.c_str());
}

// --------------------------------------------------------------------------
// Workload generator
// --------------------------------------------------------------------------

TEST(WorkloadTest, PrefixSharedShape) {
  SharedWorkload w = MakePrefixSharedWorkload(4, 3, 6, 2000);
  ASSERT_EQ(w.queries.size(), 4u);
  EXPECT_EQ(w.shared_types.size(), 3u);
  for (const Query& q : w.queries) {
    ASSERT_EQ(q.pattern.size(), 6u);
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(q.pattern.elements()[j].type_name, w.shared_types[j]);
    }
    EXPECT_EQ(q.window_ms, 2000);
    EXPECT_EQ(q.agg.func, AggFunc::kCount);
  }
  // Suffixes are query-private.
  EXPECT_NE(w.queries[0].pattern.elements()[3].type_name,
            w.queries[1].pattern.elements()[3].type_name);
  // Universe: 3 shared + 4 queries x 3 private.
  EXPECT_EQ(w.all_types.size(), 3u + 12u);
}

TEST(WorkloadTest, SubstringSharedShape) {
  SharedWorkload w = MakeSubstringSharedWorkload(3, 2, 3, 1, 1000);
  ASSERT_EQ(w.queries.size(), 3u);
  for (const Query& q : w.queries) {
    ASSERT_EQ(q.pattern.size(), 6u);
    // Shared block at positions 2..4.
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(q.pattern.elements()[2 + j].type_name, w.shared_types[j]);
    }
  }
  EXPECT_EQ(w.all_types.size(), 3u + 3u * 3u);
}

TEST(WorkloadTest, PrefixOnlyEqualsFullSharing) {
  SharedWorkload w = MakePrefixSharedWorkload(2, 4, 4, 1000);
  // prefix_len == total_len: identical queries.
  EXPECT_TRUE(w.queries[0].pattern == w.queries[1].pattern);
}

TEST(WorkloadTest, StreamConfigCoversUniverse) {
  SharedWorkload w = MakeSubstringSharedWorkload(2, 1, 2, 1, 1000);
  StreamConfig config = MakeWorkloadStreamConfig(w, 1, 100, 0, 2);
  EXPECT_EQ(config.types.size(), w.all_types.size());
  EXPECT_EQ(config.num_events, 100u);
}

}  // namespace
}  // namespace aseq
