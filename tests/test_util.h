#ifndef ASEQ_TESTS_TEST_UTIL_H_
#define ASEQ_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "aseq/aseq_engine.h"
#include "common/event.h"
#include "common/schema.h"
#include "common/value.h"
#include "engine/runtime.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"

namespace aseq {
namespace testing_util {

/// Builds event streams tersely: `b.Add("A", 1, {{"id", 5}})`.
class StreamBuilder {
 public:
  explicit StreamBuilder(Schema* schema) : schema_(schema) {}

  StreamBuilder& Add(const std::string& type, Timestamp ts,
                     std::vector<std::pair<std::string, Value>> attrs = {}) {
    Event e(schema_->RegisterEventType(type), ts);
    for (auto& [name, value] : attrs) {
      e.SetAttr(schema_->RegisterAttribute(name), std::move(value));
    }
    events_.push_back(std::move(e));
    return *this;
  }

  /// Returns the stream with sequence numbers assigned.
  std::vector<Event> Build() {
    AssignSeqNums(&events_);
    return events_;
  }

 private:
  Schema* schema_;
  std::vector<Event> events_;
};

/// The batch-of-one reference the batched pipeline must match exactly:
/// one OnEvent call (a batch of one) per event, on a copy stamped with a
/// fresh sequence number (0, 1, ...), so the same vector can be replayed
/// into any number of engines. Deliberately independent of
/// exec::RunSerial.
template <class EngineT>
auto RunPerEvent(const std::vector<Event>& events, EngineT* engine) {
  BasicRunResult<typename EngineT::OutputT> result;
  decltype(result.outputs) scratch;
  for (const Event& e : events) {
    Event copy = e;
    copy.set_seq(result.events++);
    scratch.clear();
    engine->OnEvent(copy, &scratch);
    result.outputs.insert(result.outputs.end(), scratch.begin(),
                          scratch.end());
  }
  return result;
}

/// Parses + analyzes a query; aborts the test on failure.
inline CompiledQuery MustCompile(Schema* schema, const std::string& text) {
  Analyzer analyzer(schema);
  auto result = analyzer.AnalyzeText(text);
  if (!result.ok()) {
    ADD_FAILURE() << "query failed to compile: " << text << " — "
                  << result.status().ToString();
    return CompiledQuery();
  }
  return std::move(result).value();
}

/// A generated stock stream (sequence numbers assigned) and its schema.
struct StockCase {
  Schema schema;
  std::vector<Event> events;
};

/// `n` stock events, gaps up to 8 ms, `traders` distinct traderIds.
inline std::unique_ptr<StockCase> MakeStock(uint64_t seed, size_t n,
                                            size_t traders = 6) {
  auto c = std::make_unique<StockCase>();
  StockStreamOptions options;
  options.seed = seed;
  options.num_events = n;
  options.max_gap_ms = 8;
  options.num_traders = static_cast<int64_t>(traders);
  c->events = GenerateStockStream(options, &c->schema);
  AssignSeqNums(&c->events);
  return c;
}

/// Builds the A-Seq engine for `cq`; fails the test when it cannot.
inline std::unique_ptr<QueryEngine> MustCreateAseq(const CompiledQuery& cq) {
  auto engine = CreateAseqEngine(cq);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).value();
}

// The equivalence suites' comparisons: outputs byte-identical (ts, seq,
// group, value) and in order.

inline void ExpectOutputEqual(const Output& ref, const Output& got,
                              size_t index, const std::string& context) {
  EXPECT_EQ(ref.ts, got.ts) << context << " output#" << index;
  EXPECT_EQ(ref.seq, got.seq) << context << " output#" << index;
  ASSERT_EQ(ref.group.has_value(), got.group.has_value())
      << context << " output#" << index;
  if (ref.group.has_value()) {
    EXPECT_TRUE(ref.group->Equals(*got.group))
        << context << " output#" << index << ": group "
        << ref.group->ToString() << " vs " << got.group->ToString();
  }
  EXPECT_TRUE(ref.value.Equals(got.value))
      << context << " output#" << index << ": " << ref.value.ToString()
      << " vs " << got.value.ToString();
}

inline void ExpectOutputsEqual(const std::vector<Output>& ref,
                               const std::vector<Output>& got,
                               const std::string& context) {
  ASSERT_EQ(ref.size(), got.size()) << context;
  for (size_t i = 0; i < ref.size(); ++i) {
    ExpectOutputEqual(ref[i], got[i], i, context);
  }
}

inline void ExpectMultiOutputsEqual(const std::vector<MultiOutput>& ref,
                                    const std::vector<MultiOutput>& got,
                                    const std::string& context) {
  ASSERT_EQ(ref.size(), got.size()) << context;
  for (size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].query_index, got[i].query_index)
        << context << " output#" << i;
    ExpectOutputEqual(ref[i].output, got[i].output, i, context);
  }
}

/// Stats must match exactly except the batch counters, which differ by
/// construction between the runs compared: batched vs per-event, a kill
/// that splits a batch in two, sharded workers that drive engines
/// per-event (the merged peak is reconstructed exactly from per-event
/// timelines, so it must match too).
inline void ExpectStatsEqual(const EngineStats& ref, const EngineStats& got,
                             const std::string& context) {
  EXPECT_EQ(ref.events_processed, got.events_processed) << context;
  EXPECT_EQ(ref.outputs, got.outputs) << context;
  EXPECT_EQ(ref.work_units, got.work_units) << context;
  EXPECT_EQ(ref.dropped_events, got.dropped_events) << context;
  EXPECT_EQ(ref.objects.peak(), got.objects.peak()) << context;
  EXPECT_EQ(ref.objects.current(), got.objects.current()) << context;
}

/// Stats with a distinct value in every counter (101, 102, ... in
/// declaration order; objects current 105 and peak 106), so a reader or
/// writer that swaps, drops or duplicates a field shows.
inline EngineStats DistinctStats() {
  EngineStats s;
  s.events_processed = 101;
  s.outputs = 102;
  s.work_units = 103;
  s.objects.Add(106);
  s.objects.Remove(1);
  s.batches_processed = 107;
  s.max_batch_events = 108;
  s.dropped_events = 109;
  s.ht_probes = 110;
  s.ht_probe_steps = 111;
  s.ht_slots = 112;
  s.ht_entries = 113;
  s.adm_admitted = 114;
  s.adm_rejected_local = 115;
  s.adm_missing_attr = 116;
  s.adm_generic_cmps = 117;
  s.fault_injected = 118;
  s.fault_restarts = 119;
  s.fault_replayed_events = 120;
  s.shed_partitions = 121;
  s.shed_events = 122;
  s.overload_stalls = 123;
  s.pub_batches = 124;
  s.ring_full_waits = 125;
  s.ring_spins = 126;
  return s;
}

/// Extracts the int64 count of an ungrouped COUNT output.
inline int64_t CountOf(const Output& output) {
  EXPECT_EQ(output.value.type(), ValueType::kInt64)
      << "expected COUNT output, got " << output.value.ToString();
  return output.value.type() == ValueType::kInt64 ? output.value.AsInt64() : -1;
}

}  // namespace testing_util
}  // namespace aseq

#endif  // ASEQ_TESTS_TEST_UTIL_H_
