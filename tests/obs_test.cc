// Tests for the telemetry layer (src/obs/): histogram bucket math and
// concurrent snapshot safety, the metrics emitter's JSONL schema, and the
// chrome://tracing writer's output format.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/emitter.h"
#include "obs/stats_json.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"
#include "stream/trace_io.h"
#include "test_util.h"

namespace aseq {
namespace obs {
namespace {

// --------------------------------------------------------------------------
// LogHistogram bucket math
// --------------------------------------------------------------------------

TEST(LogHistogramTest, SmallValuesAreExact) {
  // Values below kSubBuckets get one bucket each: zero quantization error.
  for (uint64_t v = 0; v < LogHistogram::kSubBuckets; ++v) {
    EXPECT_EQ(LogHistogram::BucketFor(v), v);
    EXPECT_EQ(LogHistogram::BucketLowerBound(v), v);
    EXPECT_EQ(LogHistogram::BucketUpperBound(v), v);
  }
}

TEST(LogHistogramTest, BucketBoundsRoundTrip) {
  // Every bucket's lower bound maps back to that bucket, bounds tile the
  // value axis without gaps, and indices are monotone in the value.
  uint64_t prev_upper = 0;
  for (size_t b = 0; b < LogHistogram::kNumBuckets; ++b) {
    const uint64_t lo = LogHistogram::BucketLowerBound(b);
    const uint64_t hi = LogHistogram::BucketUpperBound(b);
    ASSERT_LE(lo, hi) << "bucket " << b;
    ASSERT_EQ(LogHistogram::BucketFor(lo), b);
    ASSERT_EQ(LogHistogram::BucketFor(hi), b);
    if (b > 0) {
      ASSERT_EQ(lo, prev_upper + 1) << "gap before bucket " << b;
    }
    prev_upper = hi;
  }
}

TEST(LogHistogramTest, QuantizationErrorBounded) {
  // Above the exact range, the bucket width is bounded by lo / kSubBuckets,
  // so reporting the upper bound over-states by at most 1/kSubBuckets.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const uint64_t v = rng() >> (rng() % 40);  // spread across magnitudes
    const size_t b = LogHistogram::BucketFor(v);
    const uint64_t lo = LogHistogram::BucketLowerBound(b);
    const uint64_t hi = LogHistogram::BucketUpperBound(b);
    if (v >= (uint64_t{1} << LogHistogram::kMaxValueBits)) {
      continue;  // clamped range reports the cap
    }
    ASSERT_LE(lo, v);
    ASSERT_GE(hi, v);
    const double rel_width = static_cast<double>(hi - lo) /
                             static_cast<double>(lo == 0 ? 1 : lo);
    ASSERT_LE(rel_width, 1.0 / LogHistogram::kSubBuckets + 1e-12)
        << "v=" << v << " bucket=" << b;
  }
}

TEST(LogHistogramTest, HugeValuesClampToCap) {
  LogHistogram h;
  h.Record(UINT64_MAX);
  LogHistogram::Snapshot snap;
  h.SnapshotInto(&snap);
  EXPECT_EQ(snap.count, 1u);
  // The bucket index stays in range; max keeps the true recorded value.
  EXPECT_EQ(snap.max, UINT64_MAX);
  EXPECT_EQ(LogHistogram::BucketFor(UINT64_MAX),
            LogHistogram::kNumBuckets - 1);
}

TEST(LogHistogramTest, QuantilesOnKnownDistribution) {
  LogHistogram h;
  // 1..100: quantiles land on predictable ranks; small values are exact
  // below 16 and within 1/16 above.
  for (uint64_t v = 1; v <= 100; ++v) h.Record(v);
  LogHistogram::Snapshot snap;
  h.SnapshotInto(&snap);
  EXPECT_EQ(snap.count, 100u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 50.5);
  const uint64_t p50 = snap.ValueAtQuantile(0.50);
  const uint64_t p99 = snap.ValueAtQuantile(0.99);
  EXPECT_GE(p50, 50u);
  EXPECT_LE(p50, 53u);  // bucket upper bound, ≤6.25% over
  EXPECT_GE(p99, 99u);
  EXPECT_LE(p99, 103u);
  // q=1.0 is tightened to the tracked exact maximum.
  EXPECT_EQ(snap.ValueAtQuantile(1.0), 100u);
  // Empty histogram reports zero for any quantile.
  LogHistogram empty;
  LogHistogram::Snapshot es;
  empty.SnapshotInto(&es);
  EXPECT_EQ(es.ValueAtQuantile(0.99), 0u);
}

TEST(LogHistogramTest, MergeFoldsCountsSumsAndMax) {
  LogHistogram a, b;
  for (uint64_t v = 0; v < 50; ++v) a.Record(v);
  for (uint64_t v = 1000; v < 1100; ++v) b.Record(v);
  a.Merge(b);
  LogHistogram::Snapshot snap;
  a.SnapshotInto(&snap);
  EXPECT_EQ(snap.count, 150u);
  EXPECT_EQ(snap.max, 1099u);
  uint64_t expected_sum = 0;
  for (uint64_t v = 0; v < 50; ++v) expected_sum += v;
  for (uint64_t v = 1000; v < 1100; ++v) expected_sum += v;
  EXPECT_EQ(snap.sum, expected_sum);
  a.Reset();
  a.SnapshotInto(&snap);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.max, 0u);
}

// One writer records while a reader snapshots concurrently — the contract
// the emitter thread relies on. Run under TSan via the `shard` CI label.
// The reader's clamped view must always be internally consistent: the
// quantile rank derived from `count` lands in a populated bucket.
TEST(LogHistogramTest, ConcurrentRecordAndSnapshot) {
  LogHistogram h;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::mt19937_64 rng(3);
    while (!stop.load(std::memory_order_relaxed)) {
      for (int i = 0; i < 64; ++i) h.Record(rng() % 100000);
    }
  });
  for (int iter = 0; iter < 200; ++iter) {
    LogHistogram::Snapshot snap;
    h.SnapshotInto(&snap);
    uint64_t bucket_sum = 0;
    for (uint64_t c : snap.counts) bucket_sum += c;
    // SnapshotInto clamps the aggregate count to the bucket sum so ranks
    // always resolve.
    ASSERT_LE(snap.count, bucket_sum);
    if (snap.count > 0) {
      ASSERT_GT(snap.ValueAtQuantile(0.99), 0u);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  LogHistogram::Snapshot final_snap;
  h.SnapshotInto(&final_snap);
  uint64_t bucket_sum = 0;
  for (uint64_t c : final_snap.counts) bucket_sum += c;
  EXPECT_EQ(final_snap.count, bucket_sum);  // quiescent: exact agreement
}

TEST(CounterGaugeTest, Basics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add(3);
  c.Add(4);
  EXPECT_EQ(c.value(), 7u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
  Gauge g;
  g.Set(42);
  EXPECT_EQ(g.value(), 42u);
  g.Set(1);
  EXPECT_EQ(g.value(), 1u);
}

TEST(TelemetryTest, RegistryShapesAndClamps) {
  Telemetry tel(3);
  EXPECT_EQ(tel.num_shards(), 3u);
  tel.shard(0).ops.Add(1);
  tel.shard(7).ops.Add(1);  // out-of-range index clamps to shard 0
  EXPECT_EQ(tel.shard(0).ops.value(), 2u);
  Telemetry zero(0);  // degenerate shard count still yields one cell
  EXPECT_EQ(zero.num_shards(), 1u);
}

// --------------------------------------------------------------------------
// MetricsEmitter JSONL output
// --------------------------------------------------------------------------

std::string TempPath(const char* stem) {
  return testing::TempDir() + "/" + stem + "_" +
         std::to_string(::getpid()) + ".tmp";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Minimal structural JSON check: one object per line, balanced braces and
// brackets outside strings, even quote count. A full parse happens in CI
// (scripts/check_metrics.py); here we guard the invariants cheaply.
bool LooksLikeJsonObject(const std::string& s) {
  if (s.empty() || s.front() != '{' || s.back() != '}') return false;
  int depth = 0, brackets = 0;
  bool in_string = false, escaped = false;
  for (char ch : s) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') {
      in_string = !in_string;
      continue;
    }
    if (in_string) continue;
    if (ch == '{') ++depth;
    if (ch == '}') --depth;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    if (depth < 0 || brackets < 0) return false;
  }
  return depth == 0 && brackets == 0 && !in_string;
}

// Extracts the integer value of `"key":N` from a JSON line (first match).
uint64_t JsonInt(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  if (at == std::string::npos) return 0;
  return std::strtoull(line.c_str() + at + needle.size(), nullptr, 10);
}

TEST(MetricsEmitterTest, EmitsParseableMonotonicSeries) {
  const std::string path = TempPath("emitter");
  Telemetry tel(2);
  {
    MetricsEmitter emitter(path, 5, &tel, "\"label\":\"test\"");
    ASSERT_TRUE(emitter.ok());
    tel.set_emitter(&emitter);
    emitter.Start();
    // Simulate the single-writer cells advancing between intervals.
    std::mt19937_64 rng(11);
    for (int round = 0; round < 5; ++round) {
      for (size_t s = 0; s < 2; ++s) {
        ShardCell& cell = tel.shard(s);
        cell.ops.Add(10 + s);
        cell.events.Add(8);
        cell.busy_ns.Add(1000);
        cell.ring_occupancy.Set(round);
        for (int i = 0; i < 20; ++i) cell.op_service_ns.Record(rng() % 5000);
      }
      tel.coord().batches.Add(1);
      tel.coord().admit_ns.Record(1500);
      emitter.Flush();  // deterministic interval per round
    }
    emitter.Stop();
    emitter.AppendLine("{\"type\":\"utilization\",\"data\":{}}");
  }

  const std::vector<std::string> lines = ReadLines(path);
  // Header + ≥5 flush intervals × (2 shard rows + 1 coord row) + summary.
  ASSERT_GE(lines.size(), 1u + 5u * 3u + 1u);
  EXPECT_NE(lines[0].find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"shards\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"label\":\"test\""), std::string::npos);

  uint64_t last_ops[2] = {0, 0};
  uint64_t last_batches = 0;
  uint64_t last_interval = 0;
  for (const std::string& line : lines) {
    ASSERT_TRUE(LooksLikeJsonObject(line)) << line;
    if (line.find("\"type\":\"shard\"") != std::string::npos) {
      const uint64_t shard = JsonInt(line, "shard");
      ASSERT_LT(shard, 2u);
      const uint64_t ops = JsonInt(line, "ops");
      // Cumulative counters: never decrease across intervals.
      EXPECT_GE(ops, last_ops[shard]) << line;
      last_ops[shard] = ops;
      EXPECT_GE(JsonInt(line, "interval"), last_interval);
      last_interval = JsonInt(line, "interval");
      // Histogram sub-objects carry the full readout schema.
      for (const char* k : {"count", "mean", "p50", "p95", "p99", "max"}) {
        EXPECT_NE(line.find(std::string("\"") + k + "\":"),
                  std::string::npos)
            << k << " missing in " << line;
      }
    } else if (line.find("\"type\":\"coord\"") != std::string::npos) {
      const uint64_t batches = JsonInt(line, "batches");
      EXPECT_GE(batches, last_batches);
      last_batches = batches;
    }
  }
  EXPECT_EQ(last_ops[0], tel.shard(0).ops.value());
  EXPECT_NE(lines.back().find("\"type\":\"utilization\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricsEmitterTest, PeriodicThreadEmitsWithoutFlush) {
  const std::string path = TempPath("emitter_periodic");
  Telemetry tel(1);
  {
    MetricsEmitter emitter(path, 1, &tel);
    ASSERT_TRUE(emitter.ok());
    emitter.Start();
    // Give the 1ms thread time for several intervals.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    emitter.Stop();
  }
  const std::vector<std::string> lines = ReadLines(path);
  // Header + at least two intervals of (1 shard + 1 coord).
  EXPECT_GE(lines.size(), 1u + 2u * 2u);
  for (const std::string& line : lines) {
    EXPECT_TRUE(LooksLikeJsonObject(line)) << line;
  }
  std::remove(path.c_str());
}

TEST(MetricsEmitterTest, UnwritablePathReportsNotOk) {
  Telemetry tel(1);
  MetricsEmitter emitter("/nonexistent-dir/metrics.jsonl", 100, &tel);
  EXPECT_FALSE(emitter.ok());
  emitter.Start();  // all entry points are no-ops when not ok
  emitter.Flush();
  emitter.Stop();
}

// --------------------------------------------------------------------------
// TraceWriter
// --------------------------------------------------------------------------

TEST(TraceWriterTest, EmitsValidJsonArrayWithMetadata) {
  const std::string path = TempPath("trace");
  const uint64_t epoch = MonotonicNanos();
  {
    TraceWriter trace(path, epoch, 2);
    ASSERT_TRUE(trace.ok());
    trace.Span("batch", TraceWriter::kCoordTid, epoch + 1000, epoch + 51000,
               {TraceWriter::NumArg("seq", 7)});
    trace.Instant("restart", 1, epoch + 60000,
                  {{"cause", "crash \"quoted\""},
                   TraceWriter::NumArg("attempt", 2)});
    trace.Close();
  }
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(text.substr(text.size() - 2), "]\n");
  // Thread metadata for both shards plus the coordinator row.
  EXPECT_NE(text.find("\"shard 0\""), std::string::npos);
  EXPECT_NE(text.find("\"shard 1\""), std::string::npos);
  EXPECT_NE(text.find("\"coordinator\""), std::string::npos);
  // The span is a complete event with µs duration 50.
  EXPECT_NE(text.find("\"name\":\"batch\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(text.find("\"seq\":7"), std::string::npos);  // NumArg unquoted
  // The instant escapes its string arg.
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("crash \\\"quoted\\\""), std::string::npos);
  // Structurally valid JSON: balanced delimiters outside strings.
  int depth = 0;
  bool in_string = false, escaped = false;
  for (char ch : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (ch == '\\') {
      escaped = true;
      continue;
    }
    if (ch == '"') in_string = !in_string;
    if (in_string) continue;
    if (ch == '[' || ch == '{') ++depth;
    if (ch == ']' || ch == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  std::remove(path.c_str());
}

TEST(TraceWriterTest, CloseIsIdempotentAndDropsLateEvents) {
  const std::string path = TempPath("trace_closed");
  TraceWriter trace(path, 0, 1);
  ASSERT_TRUE(trace.ok());
  trace.Close();
  trace.Close();
  trace.Instant("late", 0, 1000);  // silently dropped after close
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_EQ(buf.str().find("late"), std::string::npos);
  std::remove(path.c_str());
}

TEST(StatsJsonTest, EngineStatsKeysAndOrderArePinned) {
  // Consumers (scripts/check_metrics.py, perfbench) key on these names;
  // every counter is present, in this order, even when zero.
  EXPECT_EQ(EngineStatsToJson(testing_util::DistinctStats()),
            "{\"events_processed\":101,\"outputs\":102,\"work_units\":103,"
            "\"objects_current\":105,\"objects_peak\":106,"
            "\"batches_processed\":107,\"max_batch_events\":108,"
            "\"dropped_events\":109,\"ht_probes\":110,\"ht_probe_steps\":111,"
            "\"ht_slots\":112,\"ht_entries\":113,\"adm_admitted\":114,"
            "\"adm_rejected_local\":115,\"adm_missing_attr\":116,"
            "\"adm_generic_cmps\":117,\"fault_injected\":118,"
            "\"fault_restarts\":119,\"fault_replayed_events\":120,"
            "\"shed_partitions\":121,\"shed_events\":122,"
            "\"overload_stalls\":123,\"pub_batches\":124,"
            "\"ring_full_waits\":125,\"ring_spins\":126}");
}

TEST(StatsJsonTest, IngestObjectCarriesEveryField) {
  IngestStats ingest;
  ingest.parse_threads = 3;
  ingest.chunks = 383;
  ingest.bytes = 50132993;
  ingest.consumer_wait_s = 0.25;
  ingest.parse_busy_s = 1.5;
  ingest.remapped_chunks = 4;
  ingest.values_parsed = 1000;
  ingest.values_skipped = 2000;
  EXPECT_EQ(IngestStatsToJson(ingest),
            "{\"parse_threads\":3,\"chunks\":383,\"bytes\":50132993,"
            "\"consumer_wait_s\":0.250000,\"parse_busy_s\":1.500000,"
            "\"remapped_chunks\":4,\"values_parsed\":1000,"
            "\"values_skipped\":2000}");
  // The document carries it between the utilization and the queries.
  const std::string path = TempPath("stats_ingest");
  EngineStats stats;
  ASSERT_TRUE(WriteStatsJson(path, "A-Seq", 1, 12.5, {}, ingest,
                             {{"run", &stats, 7}}));
  std::stringstream buf;
  buf << std::ifstream(path).rdbuf();
  const std::string doc = buf.str();
  const size_t at = doc.find("\"ingest\":" + IngestStatsToJson(ingest));
  ASSERT_NE(at, std::string::npos) << doc;
  EXPECT_LT(doc.find("\"utilization\":"), at);
  EXPECT_GT(doc.find("\"queries\":[{\"label\":\"run\",\"results\":7"), at);
  std::remove(path.c_str());
}

TEST(StatsJsonTest, IngestValueCountsFollowTheReadSet) {
  // Three values per line; a source without a read set converts them all
  // and skips none, one reading `b` of type B converts one per B line.
  const std::string path = TempPath("ingest_values.csv");
  std::ofstream(path) << "A,1,a=1,b=2.5,c=x\nB,2,a=1,b=2.5,c=x\n"
                         "B,3,a=1,b=2.5,c=x\n";
  for (const bool with_reads : {false, true}) {
    Schema schema;
    TraceReadSet reads;
    reads.types.resize(2);
    reads.types[schema.RegisterEventType("B")] = true;
    reads.attrs.resize(2);
    reads.attrs[schema.RegisterAttribute("b")] = true;
    auto source = TraceFileSource::Open(path, &schema, 0, 0,
                                        with_reads ? &reads : nullptr);
    ASSERT_TRUE(source.ok());
    EXPECT_EQ((*source)->BorrowBatch(10).size(), 3u);
    const std::string json = IngestStatsToJson((*source)->ingest_stats());
    EXPECT_NE(json.find(with_reads ? "\"values_parsed\":2,"
                                   : "\"values_parsed\":9,"),
              std::string::npos)
        << json;
    EXPECT_NE(json.find(with_reads ? "\"values_skipped\":7}"
                                   : "\"values_skipped\":0}"),
              std::string::npos)
        << json;
  }
  std::remove(path.c_str());
}

TEST(StatsJsonTest, CoordinatorObjectAndOwnPeakRss) {
  CoordinatorStats coordinator;
  coordinator.route_s = 0.125;
  coordinator.publish_s = 0.5;
  coordinator.merge_s = 0.0625;
  coordinator.unshipped_events = 699286;
  EXPECT_EQ(CoordinatorStatsToJson(coordinator),
            "{\"route_s\":0.125000,\"publish_s\":0.500000,"
            "\"merge_s\":0.062500,\"unshipped_events\":699286}");
  const std::string path = TempPath("stats_coord");
  EngineStats stats;
  // A sharded run writes the object; a serial one (null) leaves it out.
  const CoordinatorStats* const runs[] = {&coordinator, nullptr};
  for (const CoordinatorStats* c : runs) {
    ASSERT_TRUE(WriteStatsJson(path, "Sharded[A-Seq(HPC)]", 2, 12.5, {},
                               IngestStats{}, {{"run", &stats, 7}}, c));
    std::stringstream buf;
    buf << std::ifstream(path).rdbuf();
    const std::string doc = buf.str();
    const size_t at = doc.find("\"coordinator\":");
    if (c == nullptr) {
      EXPECT_EQ(at, std::string::npos) << doc;
    } else {
      ASSERT_NE(at, std::string::npos) << doc;
      EXPECT_LT(doc.find("\"ingest\":"), at);
      EXPECT_GT(doc.find("\"queries\":"), at);
    }
#if defined(__linux__)
    // The process's own high-water mark: this test process holds at least
    // its gtest binary, so well above zero.
    const size_t rss = doc.find("\"peak_rss_mb\":");
    ASSERT_NE(rss, std::string::npos) << doc;
    EXPECT_GT(std::stod(doc.substr(rss + 14)), 1.0) << doc;
#endif
  }
  EXPECT_GT(PeakRssMb(), 1.0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace obs
}  // namespace aseq
