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
// Flags, --out and --check are the shared gate harness (bench_util.h):
// --check fails if any workload's events_per_sec regressed more than
// --tolerance vs the committed "<mode>/current/<workload>" entry of
// BENCH_admission.json — the CI perf smoke gate. The committed
// "<mode>/interpreted/<workload>" entries preserve the
// pre-refactor interpreted-admission baseline this sweep is measured
// against.

#include <cstdio>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "bench/bench_util.h"
#include "query/analyzer.h"

namespace aseq {
namespace bench {
namespace {

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

  // Timed on the CPU clock: on a contended single-core host the wall
  // clock measures the scheduler.
  StableRun run = RunStable(
      stream->events,
      [&] { return std::move(CreateAseqEngine(cq)).value(); },
      kDefaultBatchSize, warmup, reps, /*cpu_time=*/true);

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

GateEntry Entry(const std::string& name, const Measurement& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"median_ms_per_slide\": %.6f, \"events_per_sec\": %.1f, "
      "\"min_seconds\": %.4f, \"max_seconds\": %.4f, \"events\": %llu, "
      "\"outputs\": %llu, \"peak_objects\": %lld",
      m.median_ms_per_slide, m.events_per_sec, m.min_seconds, m.max_seconds,
      static_cast<unsigned long long>(m.events),
      static_cast<unsigned long long>(m.outputs),
      static_cast<long long>(m.peak_objects));
  return {name, buf, m.events_per_sec};
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  using namespace aseq::bench;
  const GateFlags flags = ParseGateFlags(argc, argv, /*quick_reps=*/3,
                                         /*full_reps=*/5);
  std::printf("admission sweep: mode=%s reps=%d warmup=%d\n",
              flags.mode().c_str(), flags.reps, flags.warmup);
  std::vector<GateEntry> entries;
  for (const Workload& w : MakeWorkloads(flags.quick)) {
    if (!flags.Wants(w.name)) continue;
    Measurement m = RunWorkload(w, flags.warmup, flags.reps);
    std::printf(
        "  %-20s median %8.4f ms/slide  %10.0f ev/s  outputs=%llu "
        "peak_obj=%lld\n",
        w.name.c_str(), m.median_ms_per_slide, m.events_per_sec,
        static_cast<unsigned long long>(m.outputs),
        static_cast<long long>(m.peak_objects));
    entries.push_back(Entry(w.name, m));
  }
  return FinishGate(flags, entries) ? 0 : 1;
}
