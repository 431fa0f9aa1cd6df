#ifndef ASEQ_BENCH_BENCH_UTIL_H_
#define ASEQ_BENCH_BENCH_UTIL_H_

#include <ctime>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
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

/// Process CPU time. A gate that times its passes on this clock measures
/// the work under test instead of the scheduler: on a contended host the
/// wall clock swings ±15% run-to-run on an identical binary.
inline double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Feeds `events` through `warmup + reps` freshly built engines (one per
/// pass, from `make_engine`) and times the `reps` post-warm-up passes, on
/// the serial core's wall clock or, with `cpu_time`, on CpuSeconds around
/// the run loop. The stream is staged into a VectorSource once, so each
/// timed pass borrows batches straight out of the source's storage
/// (StreamSource::BorrowBatch) — the run loop never copies an event.
template <typename MakeEngine>
inline StableRun RunStable(const std::vector<Event>& events,
                           MakeEngine&& make_engine, size_t batch_size,
                           int warmup, int reps, bool cpu_time = false) {
  RunOptions options;
  options.collect_outputs = false;
  options.batch_size = batch_size;
  VectorSource source(events);
  StableRun out;
  for (int pass = 0; pass < warmup + reps; ++pass) {
    auto engine = make_engine();
    source.Reset();
    const double cpu0 = cpu_time ? CpuSeconds() : 0;
    RunResult result =
        exec::RunSerial(options, &source, engine.get(), &SharedBuffers());
    const double seconds =
        cpu_time ? CpuSeconds() - cpu0 : result.elapsed_seconds;
    if (pass < warmup) continue;
    out.seconds.push_back(seconds);
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

// ---- Perf gates: one command line, one --out writer, one --check. -----
//
// The CI perf-smoke binaries share this harness:
//
//   BIN [--quick] [--reps N] [--warmup N] [--only NAME] [--out FILE]
//       [--label NAME] [--check FILE] [--tolerance F]
//
// --out writes flat JSON, one `"<mode>/<label>/<name>": {...}` entry per
// line. --check compares each entry's gated value with the committed
// "<mode>/current/<name>" entry of FILE and fails (exit 1) when it is
// missing or below its floor: committed * (1 - tolerance), or a gate's
// own absolute floor.

struct GateFlags {
  bool quick = false;
  int reps = 0;
  int warmup = 1;
  double tolerance = 0.2;
  std::string out_path;
  std::string check_path;
  std::string label = "current";
  std::string only;  // run just this workload (profiling aid)

  std::string mode() const { return quick ? "quick" : "full"; }
  bool Wants(const std::string& name) const {
    return only.empty() || only == name;
  }
};

/// Parses the gate command line; exits 2 on an unknown flag or a missing
/// value. Without --reps, reps is `quick_reps` under --quick, else
/// `full_reps`.
inline GateFlags ParseGateFlags(int argc, char** argv, int quick_reps,
                                int full_reps) {
  GateFlags f;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      f.quick = true;
    } else if (arg == "--reps") {
      f.reps = std::atoi(next());
    } else if (arg == "--warmup") {
      f.warmup = std::atoi(next());
    } else if (arg == "--out") {
      f.out_path = next();
    } else if (arg == "--check") {
      f.check_path = next();
    } else if (arg == "--label") {
      f.label = next();
    } else if (arg == "--tolerance") {
      f.tolerance = std::strtod(next(), nullptr);
    } else if (arg == "--only") {
      f.only = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  if (f.reps == 0) f.reps = f.quick ? quick_reps : full_reps;
  return f;
}

/// One gate result.
struct GateEntry {
  std::string name;
  std::string fields;   // the JSON object's body, fields in output order
  double gated = 0;     // the value --check compares
};

/// Reads the flat JSON written by --out: key -> the value of `field`.
inline std::map<std::string, double> ReadCommitted(const std::string& path,
                                                   const std::string& field) {
  std::map<std::string, double> out;
  std::ifstream f(path);
  const std::string tag = "\"" + field + "\": ";
  std::string line;
  while (std::getline(f, line)) {
    const size_t kq0 = line.find('"');
    if (kq0 == std::string::npos) continue;
    const size_t kq1 = line.find('"', kq0 + 1);
    const size_t vp = line.find(tag);
    if (kq1 == std::string::npos || vp == std::string::npos) continue;
    out[line.substr(kq0 + 1, kq1 - kq0 - 1)] =
        std::strtod(line.c_str() + vp + tag.size(), nullptr);
  }
  return out;
}

/// Writes --out, then runs --check against `field` of the committed
/// entries: each entry's gated value must reach
/// committed * (1 - tolerance), or `absolute_floor` when it is positive.
/// Returns false on any failure.
inline bool FinishGate(const GateFlags& flags,
                       const std::vector<GateEntry>& entries,
                       const std::string& field = "events_per_sec",
                       double absolute_floor = 0) {
  const std::string mode = flags.mode();
  if (!flags.out_path.empty()) {
    std::ofstream f(flags.out_path, std::ios::trunc);
    f << "{\n";
    for (size_t i = 0; i < entries.size(); ++i) {
      f << "  \"" << mode << "/" << flags.label << "/" << entries[i].name
        << "\": {" << entries[i].fields << "}"
        << (i + 1 < entries.size() ? ",\n" : "\n");
    }
    f << "}\n";
    std::printf("wrote %s\n", flags.out_path.c_str());
  }
  if (flags.check_path.empty()) return true;
  const auto committed = ReadCommitted(flags.check_path, field);
  bool ok = true;
  for (const GateEntry& e : entries) {
    const std::string key = mode + "/current/" + e.name;
    auto it = committed.find(key);
    if (it == committed.end()) {
      std::fprintf(stderr, "FAIL: %s has no committed entry %s\n",
                   flags.check_path.c_str(), key.c_str());
      ok = false;
      continue;
    }
    const double floor = absolute_floor > 0
                             ? absolute_floor
                             : it->second * (1.0 - flags.tolerance);
    const bool pass = e.gated >= floor;
    std::printf("  check %-38s %s %.4g vs committed %.4g (floor %.4g): %s\n",
                key.c_str(), field.c_str(), e.gated, it->second, floor,
                pass ? "ok" : "REGRESSED");
    ok = ok && pass;
  }
  return ok;
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
