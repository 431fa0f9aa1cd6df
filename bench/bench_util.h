#ifndef ASEQ_BENCH_BENCH_UTIL_H_
#define ASEQ_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/event.h"
#include "common/schema.h"
#include "engine/engine.h"
#include "engine/runtime.h"
#include "exec/serial_executor.h"
#include "query/analyzer.h"
#include "query/compiled_query.h"
#include "stream/stock_stream.h"
#include "stream/workload.h"

namespace aseq {
namespace bench {

/// True when the ASEQ_BENCH_FULL environment variable is set: benchmarks
/// then run at the paper's scale (the full 120k-event trace portion)
/// instead of the quick default. The stack-based baseline points can take
/// minutes at full scale — that is the paper's point.
inline bool FullScale() { return std::getenv("ASEQ_BENCH_FULL") != nullptr; }

/// Picks the stream length: `quick` by default, 120k under ASEQ_BENCH_FULL.
inline size_t ScaledEvents(size_t quick) {
  return FullScale() ? 120000 : quick;
}

/// \brief A prepared workload: schema + event stream (seq numbers assigned).
///
/// Streams are deterministic (seeded) so every benchmark run measures the
/// same work. The default scale is chosen so the full suite finishes in a
/// few minutes on a laptop while preserving the paper's effects (the
/// baseline's exponential blow-up vs A-Seq's flat cost); per-window type
/// cardinalities |Ei| are set via the inter-arrival gap.
struct BenchStream {
  Schema schema;
  std::vector<Event> events;
};

/// Synthetic stock stream (see DESIGN.md §3 for the trace substitution).
inline std::unique_ptr<BenchStream> MakeStockStream(size_t num_events,
                                                    int64_t max_gap_ms,
                                                    uint64_t seed = 42,
                                                    size_t num_traders = 50) {
  auto s = std::make_unique<BenchStream>();
  StockStreamOptions options;
  options.seed = seed;
  options.num_events = num_events;
  options.min_gap_ms = 0;
  options.max_gap_ms = max_gap_ms;
  options.num_traders = num_traders;
  s->events = GenerateStockStream(options, &s->schema);
  AssignSeqNums(&s->events);
  return s;
}

/// The serial-core scratch shared by every harness in a bench binary:
/// allocated once and reused (clear-not-shrink) across all iterations of
/// all benchmarks, so the timed region never measures allocator traffic.
inline SerialBuffers& SharedBuffers() {
  static SerialBuffers buffers;
  return buffers;
}

/// Drives `events` through `engine` once per iteration (batched through
/// OnBatch with `batch_size` events per call) and reports the paper's
/// metrics on the benchmark state: `ms_per_slide` (average execution time
/// per window slide — the window slides on every arrival) and
/// `peak_objects` (peak live-object count, the paper's memory metric),
/// plus the `batch_size` driving the run.
inline void RunAndReport(benchmark::State& state,
                         const std::vector<Event>& events, QueryEngine* engine,
                         size_t batch_size = kDefaultBatchSize) {
  RunOptions options;
  options.collect_outputs = false;
  options.batch_size = batch_size;
  double total_seconds = 0;
  uint64_t total_events = 0;
  for (auto _ : state) {
    RunResult result =
        exec::RunSerial(options, events, engine, &SharedBuffers());
    total_seconds += result.elapsed_seconds;
    total_events += result.events;
  }
  state.counters["ms_per_slide"] = benchmark::Counter(
      total_events == 0 ? 0
                        : total_seconds * 1e3 / static_cast<double>(total_events));
  state.counters["peak_objects"] =
      benchmark::Counter(static_cast<double>(engine->stats().objects.peak()));
  state.counters["events"] = benchmark::Counter(static_cast<double>(total_events));
  state.counters["batch_size"] =
      benchmark::Counter(static_cast<double>(batch_size));
}

/// Multi-query variant of RunAndReport.
inline void RunMultiAndReport(benchmark::State& state,
                              const std::vector<Event>& events,
                              MultiQueryEngine* engine,
                              size_t batch_size = kDefaultBatchSize) {
  RunOptions options;
  options.collect_outputs = false;
  options.batch_size = batch_size;
  double total_seconds = 0;
  uint64_t total_events = 0;
  for (auto _ : state) {
    MultiRunResult result =
        exec::RunSerial(options, events, engine, &SharedBuffers());
    total_seconds += result.elapsed_seconds;
    total_events += result.events;
  }
  state.counters["ms_per_slide"] = benchmark::Counter(
      total_events == 0 ? 0
                        : total_seconds * 1e3 / static_cast<double>(total_events));
  state.counters["peak_objects"] =
      benchmark::Counter(static_cast<double>(engine->stats().objects.peak()));
  state.counters["batch_size"] =
      benchmark::Counter(static_cast<double>(batch_size));
}

// ---- Noise control: warm-up passes + median-of-N reporting. -------------
//
// Engines are stateful, so repetitions must not re-feed a stream into the
// engine that already consumed it (windowed state would never expire and
// the second pass would measure different work). RunStable therefore
// builds a *fresh* engine per pass via a caller factory, discards warm-up
// passes (page-cache, allocator, and branch-predictor warming), and hands
// back every timed pass so callers can report the median — the estimator
// that before/after comparisons (BENCH_partition_store.json) rely on,
// since it shrugs off the occasional descheduled pass that poisons a mean.

/// Median of `samples` (middle pair averaged for even counts).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

/// One multi-pass measurement: per-pass engine seconds plus the final
/// pass's engine-side stats.
struct StableRun {
  std::vector<double> seconds;  // timed passes only (warm-ups discarded)
  uint64_t events_per_pass = 0;
  uint64_t outputs = 0;        // last pass
  int64_t peak_objects = 0;    // last pass
  uint64_t ht_probes = 0;      // last pass (flat-store diagnostics)
  uint64_t ht_probe_steps = 0;
  uint64_t ht_slots = 0;
  uint64_t ht_entries = 0;

  double MedianSeconds() const {
    return Median(std::vector<double>(seconds));
  }
  double MedianMsPerSlide() const {
    return events_per_pass == 0 ? 0
                                : MedianSeconds() * 1e3 /
                                      static_cast<double>(events_per_pass);
  }
  double MedianEventsPerSec() const {
    const double s = MedianSeconds();
    return s == 0 ? 0 : static_cast<double>(events_per_pass) / s;
  }
};

/// Feeds `events` through `warmup + reps` freshly built engines (one per
/// pass, from `make_engine`) and times the `reps` post-warm-up passes.
/// The stream is staged into a VectorSource once, so each timed pass
/// borrows batches straight out of the source's storage
/// (StreamSource::BorrowBatch) — the run loop never copies an event.
template <typename MakeEngine>
inline StableRun RunStable(const std::vector<Event>& events,
                           MakeEngine&& make_engine, size_t batch_size,
                           int warmup, int reps) {
  RunOptions options;
  options.collect_outputs = false;
  options.batch_size = batch_size;
  VectorSource source(events);
  StableRun out;
  for (int pass = 0; pass < warmup + reps; ++pass) {
    auto engine = make_engine();
    source.Reset();
    RunResult result =
        exec::RunSerial(options, &source, engine.get(), &SharedBuffers());
    if (pass < warmup) continue;
    out.seconds.push_back(result.elapsed_seconds);
    out.events_per_pass = result.events;
    const EngineStats& stats = engine->stats();
    out.outputs = stats.outputs;
    out.peak_objects = stats.objects.peak();
    out.ht_probes = stats.ht_probes;
    out.ht_probe_steps = stats.ht_probe_steps;
    out.ht_slots = stats.ht_slots;
    out.ht_entries = stats.ht_entries;
  }
  return out;
}

/// Prints the figure banner once per binary.
inline void PrintFigureBanner(const char* figure, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, description);
  std::printf("Counters: ms_per_slide = avg execution time per window slide;\n");
  std::printf("          peak_objects = peak live objects (paper's memory metric)\n");
  std::printf("==============================================================\n");
}

/// Builds a COUNT query over the first `length` stock tickers.
inline Query MakeTickerQuery(size_t length, Timestamp window_ms) {
  std::vector<std::string> names(StockTickers().begin(),
                                 StockTickers().begin() + length);
  Query q;
  q.pattern = Pattern::FromNames(names);
  q.agg = AggregateSpec::Count();
  q.window_ms = window_ms;
  return q;
}

/// \brief A prepared multi-query workload: schema + compiled queries +
/// stream over the workload's type universe.
struct MultiBench {
  Schema schema;
  std::vector<CompiledQuery> queries;
  std::vector<Event> events;
};

inline std::unique_ptr<MultiBench> MakeMultiBench(
    const SharedWorkload& workload, size_t num_events, int64_t max_gap_ms,
    uint64_t seed = 42) {
  auto mb = std::make_unique<MultiBench>();
  Analyzer analyzer(&mb->schema);
  for (const Query& q : workload.queries) {
    auto cq = analyzer.Analyze(q);
    mb->queries.push_back(std::move(cq).value());
  }
  StreamConfig config =
      MakeWorkloadStreamConfig(workload, seed, num_events, 0, max_gap_ms);
  StreamGenerator gen(config, &mb->schema);
  mb->events = gen.Generate();
  AssignSeqNums(&mb->events);
  return mb;
}

}  // namespace bench
}  // namespace aseq

#endif  // ASEQ_BENCH_BENCH_UTIL_H_
