// Out-of-order streams (the paper's Sec. 8 future work, implemented here
// via a K-slack reordering front-end).
//
// A stock stream is delivered with bounded disorder (network jitter up to
// ~80ms). Feeding it raw to an in-order engine silently under-counts;
// wrapping the engine in ReorderingEngine restores the exact in-order
// answers at the price of bounded result delay.

#include <algorithm>
#include <cstdio>

#include "aseq/aseq_engine.h"
#include "common/rng.h"
#include "engine/reordering_engine.h"
#include "exec/serial_executor.h"
#include "query/analyzer.h"
#include "stream/stock_stream.h"

using namespace aseq;

namespace {

int64_t FinalCount(const std::vector<Output>& outputs) {
  for (auto it = outputs.rbegin(); it != outputs.rend(); ++it) {
    if (!it->value.is_null()) return it->value.AsInt64();
  }
  return -1;
}

}  // namespace

int main() {
  Schema schema;
  StockStreamOptions options;
  options.seed = 3;
  options.num_events = 30000;
  // Strictly increasing timestamps: with ties, no reorderer can recover
  // the original tie order, so exact reproduction needs distinct stamps.
  options.min_gap_ms = 1;
  options.max_gap_ms = 6;
  std::vector<Event> in_order = GenerateStockStream(options, &schema);

  // Simulate network jitter: each event is delayed by up to 80ms, then the
  // stream is delivered in (jittered) arrival order.
  Rng rng(99);
  std::vector<std::pair<Timestamp, Event>> jittered;
  jittered.reserve(in_order.size());
  for (const Event& e : in_order) {
    jittered.emplace_back(e.ts() + rng.NextInt(0, 80), e);
  }
  std::stable_sort(jittered.begin(), jittered.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::vector<Event> disordered;
  disordered.reserve(jittered.size());
  for (auto& [arrival, e] : jittered) disordered.push_back(e);

  size_t inversions = 0;
  for (size_t i = 1; i < disordered.size(); ++i) {
    if (disordered[i].ts() < disordered[i - 1].ts()) ++inversions;
  }
  std::printf("stream: %zu events, %zu adjacent inversions after jitter\n\n",
              disordered.size(), inversions);

  Analyzer analyzer(&schema);
  auto query = analyzer.AnalyzeText(
      "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 2s");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  // Ground truth: the in-order stream.
  auto ref_engine = CreateAseqEngine(*query);
  std::vector<Event> sorted = in_order;
  AssignSeqNums(&sorted);
  RunResult ref = exec::RunSerial(RunOptions(), sorted, ref_engine->get());

  // Naive: feed the disordered stream to an in-order engine.
  auto naive_engine = CreateAseqEngine(*query);
  std::vector<Event> disordered_seq = disordered;
  AssignSeqNums(&disordered_seq);
  RunResult naive =
      exec::RunSerial(RunOptions(), disordered_seq, naive_engine->get());

  // Fixed: K-slack front-end sized to the jitter bound.
  auto inner = CreateAseqEngine(*query);
  ReorderingEngine fixed(std::move(*inner), /*slack_ms=*/80);
  std::vector<Output> fixed_outputs;
  SeqNum seq = 0;
  for (Event e : disordered) {
    e.set_seq(seq++);
    fixed.OnEvent(e, &fixed_outputs);
  }
  fixed.Finish(&fixed_outputs);

  std::printf("%-28s %10s %16s\n", "run", "results", "final count");
  std::printf("%-28s %10zu %16lld\n", "in-order (ground truth)",
              ref.outputs.size(), static_cast<long long>(FinalCount(ref.outputs)));
  std::printf("%-28s %10zu %16lld   <- wrong\n", "disordered, raw engine",
              naive.outputs.size(),
              static_cast<long long>(FinalCount(naive.outputs)));
  std::printf("%-28s %10zu %16lld   <- matches, dropped=%llu\n",
              "disordered + K-slack(80ms)", fixed_outputs.size(),
              static_cast<long long>(FinalCount(fixed_outputs)),
              static_cast<unsigned long long>(fixed.dropped_events()));

  bool exact = fixed_outputs.size() == ref.outputs.size();
  for (size_t i = 0; exact && i < fixed_outputs.size(); ++i) {
    exact = fixed_outputs[i].value.Equals(ref.outputs[i].value);
  }
  std::printf("\nK-slack run %s the in-order results exactly.\n",
              exact ? "reproduces" : "DOES NOT reproduce");
  return exact ? 0 : 1;
}
