// Admission sweep: single-thread throughput of the Hashed Prefix Counter
// engine on predicate-heavy grouped workloads where per-event admission
// (local-predicate qualification + partition-key extraction + carrier
// load, Sec. 3.4's pushed-down filters) dominates the hot path.
//
// This is the before/after gauge for the compiled admission layer
// (src/plan/): typed branch-light comparison opcodes + fused role records
// vs the interpreted CompiledQuery::QualifiesFor / PartitionKeyFor walk.
// Workloads:
//
//   pred_grouped_count — GROUP BY COUNT behind a wall of local predicates
//                        per element, ordered so most events evaluate
//                        every term before rejecting (the acceptance
//                        gate: >= 1.2x vs the interpreted admission path)
//   pred_grouped_sum   — same shape plus a SUM carrier, so admission also
//                        validates + loads the aggregate carrier attr
//   pred_mixed_fallback— double literals against int64 attrs: every term
//                        takes the generic EvalCmp fallback, measuring
//                        the floor the typed specialization stands on
//
// Noise control: every measurement is median-of-N over fresh engines with
// discarded warm-up passes (bench/bench_util.h).
//
// Usage:
//   bench_admission [--quick] [--reps N] [--warmup N]
//                   [--only WORKLOAD] [--out FILE] [--label NAME]
//                   [--check BENCH_admission.json] [--tolerance 0.2]
//
// --out appends/writes flat JSON entries keyed "<mode>/<label>/<workload>".
// --check re-runs the sweep and fails (exit 1) if any workload's
// events_per_sec regressed more than --tolerance vs the committed
// "<mode>/current/<workload>" entry — the CI perf smoke gate. The
// committed "<mode>/interpreted/<workload>" entries preserve the
// pre-refactor interpreted-admission baseline this sweep is measured
// against.

#include <ctime>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "bench/bench_util.h"
#include "query/analyzer.h"

namespace aseq {
namespace bench {
namespace {

/// Process CPU time. The admission sweep times its passes on the CPU
/// clock instead of the wall clock: on a contended single-core host the
/// wall clock measures the scheduler (±15% run-to-run on an otherwise
/// identical binary), while CPU time isolates the work under test.
double CpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// RunStable (bench_util.h), except each pass is timed with CpuSeconds
/// around the run loop rather than taking the serial core's wall-clock
/// elapsed_seconds.
template <typename MakeEngine>
StableRun RunStableCpu(const std::vector<Event>& events,
                       MakeEngine&& make_engine, size_t batch_size, int warmup,
                       int reps) {
  RunOptions options;
  options.collect_outputs = false;
  options.batch_size = batch_size;
  VectorSource source(events);
  StableRun out;
  for (int pass = 0; pass < warmup + reps; ++pass) {
    auto engine = make_engine();
    source.Reset();
    const double t0 = CpuSeconds();
    RunResult result =
        exec::RunSerial(options, &source, engine.get(), &SharedBuffers());
    const double seconds = CpuSeconds() - t0;
    if (pass < warmup) continue;
    out.seconds.push_back(seconds);
    out.events_per_pass = result.events;
    const EngineStats& stats = engine->stats();
    out.outputs = stats.outputs;
    out.peak_objects = stats.objects.peak();
  }
  return out;
}

struct Workload {
  std::string name;
  std::string query;
  size_t num_events;
  size_t num_traders;
  int64_t max_gap_ms;
};

std::vector<Workload> MakeWorkloads(bool quick) {
  // Full mode runs 1M events so each pass is tens of milliseconds —
  // enough to push scheduler noise into the tail instead of the median;
  // quick mode trades stability for CI turnaround.
  const size_t events = quick ? 60000 : 1000000;
  const size_t traders = quick ? 2000 : 5000;
  // Predicate order matters: the near-always-true terms come first so a
  // rejected event still pays for the full term walk — the sweep measures
  // admission, not short-circuit luck.
  return {
      {"pred_grouped_count",
       "PATTERN SEQ(DELL, IPIX) "
       "WHERE DELL.price > 60.0 AND DELL.volume >= 200 AND "
       "DELL.volume <= 9800 AND DELL.volume <= 9500 AND "
       "DELL.volume >= 9000 AND IPIX.price > 60.0 AND "
       "IPIX.volume >= 200 AND IPIX.volume <= 9800 AND "
       "IPIX.volume >= 9000 "
       "GROUP BY traderId AGG COUNT WITHIN 2s",
       events, traders, 2},
      {"pred_grouped_sum",
       "PATTERN SEQ(DELL, IPIX) "
       "WHERE DELL.price > 60.0 AND DELL.volume >= 6000 AND "
       "IPIX.price > 60.0 AND IPIX.volume >= 6000 "
       "GROUP BY traderId AGG SUM(IPIX.volume) WITHIN 2s",
       events, traders, 2},
      {"pred_mixed_fallback",
       "PATTERN SEQ(DELL, IPIX) "
       "WHERE DELL.volume >= 2000.5 AND DELL.volume <= 9000.5 AND "
       "IPIX.volume >= 7000.5 "
       "GROUP BY traderId AGG COUNT WITHIN 2s",
       events, traders, 2},
  };
}

struct Measurement {
  double median_ms_per_slide = 0;
  double events_per_sec = 0;
  double min_seconds = 0;
  double max_seconds = 0;
  uint64_t events = 0;
  uint64_t outputs = 0;
  int64_t peak_objects = 0;
};

Measurement RunWorkload(const Workload& w, int warmup, int reps) {
  auto stream = MakeStockStream(w.num_events, w.max_gap_ms, /*seed=*/42,
                                w.num_traders);
  Schema schema = stream->schema;
  Analyzer analyzer(&schema);
  CompiledQuery cq = std::move(analyzer.AnalyzeText(w.query)).value();

  StableRun run = RunStableCpu(
      stream->events,
      [&] { return std::move(CreateAseqEngine(cq)).value(); },
      kDefaultBatchSize, warmup, reps);

  Measurement m;
  m.median_ms_per_slide = run.MedianMsPerSlide();
  m.events_per_sec = run.MedianEventsPerSec();
  m.min_seconds = *std::min_element(run.seconds.begin(), run.seconds.end());
  m.max_seconds = *std::max_element(run.seconds.begin(), run.seconds.end());
  m.events = run.events_per_pass;
  m.outputs = run.outputs;
  m.peak_objects = run.peak_objects;
  return m;
}

std::string FormatEntry(const std::string& key, const Measurement& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\"median_ms_per_slide\": %.6f, \"events_per_sec\": %.1f, "
      "\"min_seconds\": %.4f, \"max_seconds\": %.4f, \"events\": %llu, "
      "\"outputs\": %llu, \"peak_objects\": %lld}",
      key.c_str(), m.median_ms_per_slide, m.events_per_sec, m.min_seconds,
      m.max_seconds, static_cast<unsigned long long>(m.events),
      static_cast<unsigned long long>(m.outputs),
      static_cast<long long>(m.peak_objects));
  return buf;
}

/// Reads the flat JSON written by --out: one "<key>": {...} entry per
/// line. Returns key -> events_per_sec.
std::map<std::string, double> ReadCommitted(const std::string& path) {
  std::map<std::string, double> out;
  std::ifstream f(path);
  std::string line;
  while (std::getline(f, line)) {
    const size_t kq0 = line.find('"');
    if (kq0 == std::string::npos) continue;
    const size_t kq1 = line.find('"', kq0 + 1);
    if (kq1 == std::string::npos) continue;
    const std::string key = line.substr(kq0 + 1, kq1 - kq0 - 1);
    const char* tag = "\"events_per_sec\": ";
    const size_t vp = line.find(tag);
    if (vp == std::string::npos) continue;
    out[key] = std::strtod(line.c_str() + vp + std::strlen(tag), nullptr);
  }
  return out;
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  using aseq::bench::Measurement;
  using aseq::bench::Workload;

  bool quick = false;
  int reps = 5;
  int warmup = 1;
  double tolerance = 0.2;
  std::string out_path;
  std::string check_path;
  std::string label = "current";
  std::string only;  // run just this workload (profiling aid)
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
      quick = true;
    } else if (arg == "--reps") {
      reps = std::atoi(next());
    } else if (arg == "--warmup") {
      warmup = std::atoi(next());
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--label") {
      label = next();
    } else if (arg == "--tolerance") {
      tolerance = std::strtod(next(), nullptr);
    } else if (arg == "--only") {
      only = next();
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  const std::string mode = quick ? "quick" : "full";
  if (quick && reps == 5) reps = 3;

  std::printf("admission sweep: mode=%s reps=%d warmup=%d\n", mode.c_str(),
              reps, warmup);
  std::vector<std::pair<std::string, Measurement>> results;
  for (const Workload& w : aseq::bench::MakeWorkloads(quick)) {
    if (!only.empty() && w.name != only) continue;
    Measurement m = aseq::bench::RunWorkload(w, warmup, reps);
    std::printf(
        "  %-20s median %8.4f ms/slide  %10.0f ev/s  outputs=%llu "
        "peak_obj=%lld\n",
        w.name.c_str(), m.median_ms_per_slide, m.events_per_sec,
        static_cast<unsigned long long>(m.outputs),
        static_cast<long long>(m.peak_objects));
    results.emplace_back(w.name, m);
  }

  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::trunc);
    f << "{\n";
    for (size_t i = 0; i < results.size(); ++i) {
      f << aseq::bench::FormatEntry(mode + "/" + label + "/" +
                                        results[i].first,
                                    results[i].second)
        << (i + 1 < results.size() ? ",\n" : "\n");
    }
    f << "}\n";
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!check_path.empty()) {
    auto committed = aseq::bench::ReadCommitted(check_path);
    bool ok = true;
    for (const auto& [name, m] : results) {
      const std::string key = mode + "/current/" + name;
      auto it = committed.find(key);
      if (it == committed.end()) {
        std::fprintf(stderr, "FAIL: %s has no committed entry %s\n",
                     check_path.c_str(), key.c_str());
        ok = false;
        continue;
      }
      const double floor = it->second * (1.0 - tolerance);
      const bool pass = m.events_per_sec >= floor;
      std::printf("  check %-38s %10.0f ev/s vs committed %10.0f (floor "
                  "%10.0f): %s\n",
                  key.c_str(), m.events_per_sec, it->second, floor,
                  pass ? "ok" : "REGRESSED");
      ok = ok && pass;
    }
    if (!ok) return 1;
  }
  return 0;
}
