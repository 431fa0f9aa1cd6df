// Ablation: cost of the K-slack out-of-order front-end (our extension of
// the paper's Sec. 8 future work).
//
// The reorder buffer adds one heap push/pop per event; the wrapped A-Seq
// engine is unchanged. Slack size affects only buffer depth (memory /
// result delay), not asymptotic throughput — this ablation quantifies the
// constant-factor overhead vs processing the same in-order stream raw.

#include <benchmark/benchmark.h>

#include "aseq/aseq_engine.h"
#include "bench/bench_util.h"
#include "engine/reordering_engine.h"
#include "query/analyzer.h"

namespace aseq {
namespace bench {
namespace {

constexpr size_t kNumEvents = 120000;
constexpr int64_t kMaxGapMs = 6;

const BenchStream& Stream() {
  static const BenchStream* stream =
      MakeStockStream(kNumEvents, kMaxGapMs).release();
  return *stream;
}

CompiledQuery Compile() {
  Schema schema = Stream().schema;
  Analyzer analyzer(&schema);
  return std::move(analyzer.AnalyzeText(
                       "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s"))
      .value();
}

void BM_Raw(benchmark::State& state) {
  CompiledQuery cq = Compile();
  auto engine = CreateAseqEngine(cq);
  RunAndReport(state, Stream().events, engine->get());
}
BENCHMARK(BM_Raw)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_WithKSlack(benchmark::State& state) {
  CompiledQuery cq = Compile();
  auto inner = CreateAseqEngine(cq);
  ReorderingEngine engine(std::move(*inner), /*slack_ms=*/state.range(0));
  RunOptions options;
  options.collect_outputs = false;
  double total_seconds = 0;
  uint64_t total_events = 0;
  for (auto _ : state) {
    RunResult result =
        exec::RunSerial(options, Stream().events, &engine, &SharedBuffers());
    std::vector<Output> tail;
    StopWatch watch;
    engine.Finish(&tail);
    total_seconds += result.elapsed_seconds + watch.ElapsedSeconds();
    total_events += result.events;
  }
  state.counters["ms_per_slide"] = benchmark::Counter(
      total_seconds * 1e3 / static_cast<double>(total_events));
  state.counters["peak_objects"] =
      benchmark::Counter(static_cast<double>(engine.stats().objects.peak()));
}
BENCHMARK(BM_WithKSlack)
    ->Arg(10)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  aseq::bench::PrintFigureBanner(
      "Ablation: K-slack reordering front-end",
      "A-Seq on a 120k-event stream, raw vs wrapped with slack 10/100/1000ms");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
