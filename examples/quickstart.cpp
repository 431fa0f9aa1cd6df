// Quickstart: parse a CEP aggregation query, feed an event stream, and read
// online aggregation results — no sequence match is ever materialized.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "aseq/aseq_engine.h"
#include "exec/serial_executor.h"
#include "query/analyzer.h"
#include "stream/stream_source.h"

using namespace aseq;

int main() {
  // 1. A schema interns event-type and attribute names to dense ids.
  Schema schema;

  // 2. Parse + analyze a query in the paper's query language.
  //    COUNT the sequences "A then B then C" whose first and last events
  //    are at most 10 seconds apart (sliding window).
  Analyzer analyzer(&schema);
  auto query = analyzer.AnalyzeText(
      "PATTERN SEQ(A, B, C) AGG COUNT WITHIN 10s");
  if (!query.ok()) {
    std::fprintf(stderr, "query error: %s\n",
                 query.status().ToString().c_str());
    return 1;
  }

  // 3. Build the A-Seq engine (here: SEM, Start Event Marking, since the
  //    query has a sliding window).
  auto engine = CreateAseqEngine(*query);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine error: %s\n",
                 engine.status().ToString().c_str());
    return 1;
  }
  std::printf("engine: %s\n", (*engine)->name().c_str());

  // 4. Hand-craft a tiny stream: a1 b1 c1 a2 c2 — and one late c3 after a1
  //    expired from the window.
  EventTypeId a = schema.RegisterEventType("A");
  EventTypeId b = schema.RegisterEventType("B");
  EventTypeId c = schema.RegisterEventType("C");
  std::vector<Event> events = {
      Event(a, 1000), Event(b, 2000),  Event(c, 3000),
      Event(a, 4000), Event(c, 5000),  Event(c, 14000),
  };
  VectorSource source(std::move(events));

  // 5. Run. Results are delivered whenever a TRIG instance (here: C)
  //    completes the pattern.
  RunResult result = exec::RunSerial(RunOptions(), &source, engine->get());
  for (const Output& output : result.outputs) {
    std::printf("t=%-6lld count=%s\n", static_cast<long long>(output.ts),
                output.value.ToString().c_str());
  }
  // Expected:
  //   t=3000  count=1      (a1,b1,c1)
  //   t=5000  count=2      + (a1,b1,c2)
  //   t=14000 count=0      a1 expired; no sequences survive

  std::printf("processed %llu events in %.3f ms (%.5f ms/slide)\n",
              static_cast<unsigned long long>(result.events),
              result.elapsed_seconds * 1e3, result.MillisPerSlide());
  return 0;
}
