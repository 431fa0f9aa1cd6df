// Partition-store sweep: single-thread throughput of the Hashed Prefix
// Counter engine on grouped / equivalence workloads whose partition
// cardinality is high enough that every probe is a dependent random
// lookup (the paper's Fig. 14 scalability regime).
//
// This is the before/after gauge for the flat partition store
// (src/container/): open-addressing FlatMap + key interning + slab-pooled
// counter state vs the former node-based std::unordered_map. Workloads:
//
//   grouped_count  — GROUP BY COUNT, the O(1)-trigger hot path where the
//                    per-event constant is pure partition-map probing
//                    (the acceptance gate: >= 1.3x vs the node map)
//   equiv_count    — equivalence-only partitioning (no GROUP BY), same
//                    probe pattern, trigger scans are rare
//   grouped_sum    — GROUP BY SUM: every trigger runs ScanTotal's
//                    purge-and-erase sweep, so erase/re-insert churn and
//                    iteration both weigh in
//
// Noise control: every measurement is median-of-N over fresh engines with
// discarded warm-up passes (bench/bench_util.h).
//
// Flags, --out and --check are the shared gate harness (bench_util.h):
// --check fails if any workload's events_per_sec regressed more than
// --tolerance vs the committed "<mode>/current/<workload>" entry of
// BENCH_partition_store.json — the CI perf smoke gate.

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
  const size_t events = quick ? 60000 : 200000;
  const size_t traders = quick ? 10000 : 30000;
  return {
      {"grouped_count",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 100s",
       events, traders, 2},
      {"equiv_count",
       "PATTERN SEQ(DELL, IPIX, AMAT) "
       "WHERE DELL.traderId = IPIX.traderId = AMAT.traderId "
       "AGG COUNT WITHIN 100s",
       events, traders, 2},
      {"grouped_sum",
       "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
       "WITHIN 100s",
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
  double avg_probe_len = 0;
  double load_factor = 0;
};

Measurement RunWorkload(const Workload& w, int warmup, int reps) {
  auto stream = MakeStockStream(w.num_events, w.max_gap_ms, /*seed=*/42,
                                w.num_traders);
  Schema schema = stream->schema;
  Analyzer analyzer(&schema);
  CompiledQuery cq = std::move(analyzer.AnalyzeText(w.query)).value();

  StableRun run = RunStable(
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
  m.avg_probe_len =
      run.ht_probes == 0 ? 0
                         : static_cast<double>(run.ht_probe_steps) /
                               static_cast<double>(run.ht_probes);
  m.load_factor = run.ht_slots == 0
                      ? 0
                      : static_cast<double>(run.ht_entries) /
                            static_cast<double>(run.ht_slots);
  return m;
}

GateEntry Entry(const std::string& name, const Measurement& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"median_ms_per_slide\": %.6f, \"events_per_sec\": %.1f, "
      "\"min_seconds\": %.4f, \"max_seconds\": %.4f, \"events\": %llu, "
      "\"outputs\": %llu, \"peak_objects\": %lld, \"avg_probe_len\": %.3f, "
      "\"load_factor\": %.3f",
      m.median_ms_per_slide, m.events_per_sec, m.min_seconds, m.max_seconds,
      static_cast<unsigned long long>(m.events),
      static_cast<unsigned long long>(m.outputs),
      static_cast<long long>(m.peak_objects), m.avg_probe_len, m.load_factor);
  return {name, buf, m.events_per_sec};
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  using namespace aseq::bench;
  const GateFlags flags = ParseGateFlags(argc, argv, /*quick_reps=*/3,
                                         /*full_reps=*/5);
  std::printf("partition-store sweep: mode=%s reps=%d warmup=%d\n",
              flags.mode().c_str(), flags.reps, flags.warmup);
  std::vector<GateEntry> entries;
  for (const Workload& w : MakeWorkloads(flags.quick)) {
    if (!flags.Wants(w.name)) continue;
    Measurement m = RunWorkload(w, flags.warmup, flags.reps);
    std::printf(
        "  %-14s median %8.4f ms/slide  %10.0f ev/s  outputs=%llu "
        "peak_obj=%lld probe_len=%.2f load=%.2f\n",
        w.name.c_str(), m.median_ms_per_slide, m.events_per_sec,
        static_cast<unsigned long long>(m.outputs),
        static_cast<long long>(m.peak_objects), m.avg_probe_len,
        m.load_factor);
    entries.push_back(Entry(w.name, m));
  }
  return FinishGate(flags, entries) ? 0 : 1;
}
