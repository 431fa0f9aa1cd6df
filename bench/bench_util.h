#ifndef ASEQ_BENCH_BENCH_UTIL_H_
#define ASEQ_BENCH_BENCH_UTIL_H_

#include <ctime>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <functional>
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

// ---- Perf gates: a path timed against a reference in the same process. --
//
// The CI perf-smoke binaries share this harness:
//
//   BIN [--reps N] [--warmup N]
//
// A gate never reads a number from another run or another host. Each gated
// path is timed against a reference that does nearly the same work, in the
// same process, and the gate bounds the median of the per-pair time ratios
// by a constant in its source. --reps sets the timed pairs, --warmup the
// untimed ones. A gate always runs every workload: one run alone reads
// different ratios than it does after the others, and CI judges full runs.

/// Median of `samples` (middle pair averaged for even counts).
inline double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

/// Process CPU time. A single-threaded pass timed on this clock measures
/// the work under test instead of the scheduler: on a contended host the
/// wall clock swings ±15% run-to-run on an identical binary.
inline double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// The timed passes of MeasurePaired: `seconds[p][r]` is pass p of round r.
struct PairedRun {
  std::vector<std::vector<double>> seconds;

  double MedianSeconds(size_t pass) const { return Median(seconds[pass]); }
  /// Median over rounds of seconds[path][r] / seconds[reference][r].
  double Ratio(size_t path, size_t reference) const {
    std::vector<double> ratios;
    for (size_t r = 0; r < seconds[path].size(); ++r) {
      if (seconds[reference][r] > 0) {
        ratios.push_back(seconds[path][r] / seconds[reference][r]);
      }
    }
    return Median(std::move(ratios));
  }
};

/// Runs each of `passes` once per round, in order: `warmup` untimed rounds,
/// then `rounds` timed ones. A pass returns the seconds it measured.
/// Passes of one round run back to back, under the same machine regime
/// (frequency drift, a noisy neighbour, a throttle), which then slows both
/// sides of a pair and cancels out of the pair's ratio; a preemption inside
/// one pass makes that one pair an outlier, which PairedRun::Ratio's median
/// discards. Regimes last seconds, so they do NOT cancel across long
/// unpaired passes or between processes.
inline PairedRun MeasurePaired(
    const std::vector<std::function<double()>>& passes, int warmup,
    int rounds) {
  PairedRun run;
  run.seconds.resize(passes.size());
  for (int r = 0; r < warmup + rounds; ++r) {
    for (size_t p = 0; p < passes.size(); ++p) {
      const double seconds = passes[p]();
      if (r >= warmup) run.seconds[p].push_back(seconds);
    }
  }
  return run;
}

/// Prints one gate line and returns whether `ratio` keeps its bound:
/// ratio <= bound for a ceiling, ratio >= bound for a floor.
inline bool CheckRatio(const std::string& what, double ratio, double bound,
                       bool floor) {
  const bool ok = floor ? ratio >= bound : ratio <= bound;
  std::printf("  gate %-44s %.3f (%s %.3f): %s\n", what.c_str(), ratio,
              floor ? ">=" : "<=", bound, ok ? "ok" : "REGRESSED");
  return ok;
}

struct GateFlags {
  int reps = 0;    // timed pairs
  int warmup = 1;  // untimed pairs
};

/// Parses the gate command line; exits 2 on an unknown flag, a missing or
/// non-numeric value, --reps below 1 or --warmup below 0. Without --reps,
/// reps is `default_reps`.
inline GateFlags ParseGateFlags(int argc, char** argv, int default_reps) {
  GateFlags f;
  f.reps = default_reps;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    auto count = [&](long min) {
      const char* value = next();
      char* end = nullptr;
      errno = 0;
      const long n = std::strtol(value, &end, 10);
      if (end == value || *end != '\0' || errno != 0 || n < min ||
          n > 1000000) {
        std::fprintf(stderr,
                     "%s takes an integer in [%ld, 1000000], got '%s'\n",
                     arg.c_str(), min, value);
        std::exit(2);
      }
      return static_cast<int>(n);
    };
    if (arg == "--reps") {
      f.reps = count(1);
    } else if (arg == "--warmup") {
      f.warmup = count(0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return f;
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
