// Stock-stream analytics on the synthetic stand-in for the WPI trade trace
// the paper evaluates on (see DESIGN.md §3), exercising:
//
//   * the negation queries of Fig. 14(b):
//       q1 = SEQ(DELL, IPIX, AMAT)
//       q2 = SEQ(DELL, IPIX, !QQQ, AMAT)
//   * MAX/AVG aggregates over a pattern attribute (Sec. 5),
//   * trace export/import via the CSV trace format (drop-in point for the
//     real trace).

#include <cstdio>

#include "aseq/aseq_engine.h"
#include "exec/serial_executor.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"
#include "stream/trace_io.h"

using namespace aseq;

namespace {

void RunAndSummarize(Schema* schema, const std::vector<Event>& events,
                     const char* text) {
  Analyzer analyzer(schema);
  auto query = analyzer.AnalyzeText(text);
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return;
  }
  auto engine = CreateAseqEngine(*query);
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return;
  }
  RunResult result = exec::RunSerial(RunOptions(), events, engine->get());
  Value last;
  for (const Output& output : result.outputs) last = output.value;
  std::printf("  %-55s -> %8s results, last=%-10s %.5f ms/slide\n", text,
              std::to_string(result.outputs.size()).c_str(),
              last.ToString().c_str(), result.MillisPerSlide());
}

}  // namespace

int main() {
  Schema schema;
  StockStreamOptions options;
  options.seed = 14;
  options.num_events = 20000;
  options.max_gap_ms = 6;
  std::vector<Event> events = GenerateStockStream(options, &schema);
  AssignSeqNums(&events);

  std::printf("stock stream: %zu events, %zu tickers\n\n", events.size(),
              schema.num_event_types());

  std::printf("negation (Fig. 14(b) queries):\n");
  RunAndSummarize(&schema, events,
                  "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s");
  RunAndSummarize(&schema, events,
                  "PATTERN SEQ(DELL, IPIX, !QQQ, AMAT) AGG COUNT WITHIN 1s");

  std::printf("\naggregates over pattern attributes (Sec. 5):\n");
  RunAndSummarize(&schema, events,
                  "PATTERN SEQ(DELL, INTC) AGG MAX(DELL.price) WITHIN 2s");
  RunAndSummarize(&schema, events,
                  "PATTERN SEQ(DELL, INTC) AGG MIN(INTC.price) WITHIN 2s");
  RunAndSummarize(&schema, events,
                  "PATTERN SEQ(DELL, INTC) AGG AVG(INTC.volume) WITHIN 2s");
  RunAndSummarize(
      &schema, events,
      "PATTERN SEQ(MSFT, CSCO) WHERE MSFT.traderId = CSCO.traderId "
      "AGG SUM(CSCO.volume) WITHIN 5s");

  // Round-trip a slice of the stream through the CSV trace format — the
  // same reader ingests the real WPI trace after a trivial reshape.
  std::vector<Event> slice(events.begin(), events.begin() + 1000);
  std::string path = "/tmp/aseq_stock_trace.csv";
  Status st = WriteTraceFile(path, slice, schema);
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  Schema schema2;
  auto reread = ReadTraceFile(path, &schema2);
  if (!reread.ok()) {
    std::fprintf(stderr, "%s\n", reread.status().ToString().c_str());
    return 1;
  }
  std::printf("\ntrace round-trip: wrote %zu events to %s, re-read %zu\n",
              slice.size(), path.c_str(), reread->size());
  return 0;
}
