// Multi-query shard sweep: the partition-parallel executor driving whole
// workloads (exec::MakeMultiPolicy) for every sharing strategy, on a
// grouped five-query workload with high trader cardinality.
//
// The scaling metric is the critical path: max over shards of per-worker
// busy seconds — the run's wall time on a machine with >= N idle cores.
// speedup_at_8 = serial busy / max-shard busy at 8 shards is
// hardware-independent (a single-core container time-slices the workers
// but busy time still splits), and the acceptance gate is >= 1.3x for
// every sharing strategy.
//
// Flags, --out and --check are the shared gate harness (bench_util.h).
// --check fails if any strategy's speedup_at_8 falls below the 1.3x
// acceptance floor, or has no committed "<mode>/current/<strategy>" entry
// in BENCH_multiquery.json — the CI perf smoke gate for the sharded
// multi-query runtime. Unlike the throughput gates, the floor is
// absolute, not committed-relative: critical-path speedup is a busy-time
// ratio, hardware-independent but noisy enough on shared CI boxes that a
// tight relative floor would flake (the committed number is printed for
// comparison). --tolerance widens nothing here.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/execution_policy.h"
#include "multi/composite_engine.h"
#include "query/analyzer.h"

namespace aseq {
namespace bench {
namespace {

/// The acceptance floor: every sharing strategy must shorten the
/// critical path by at least this factor at 8 shards.
constexpr double kSpeedupFloor = 1.3;

const size_t kShardCounts[] = {2, 4, 8};

size_t g_num_events = 0;

const BenchStream& Stream() {
  static const BenchStream* stream =
      MakeStockStream(g_num_events, /*max_gap_ms=*/2, /*seed=*/42,
                      /*num_traders=*/2000)
          .release();
  return *stream;
}

/// Five positive COUNT queries, distinct event types per pattern, one
/// shared window, all GROUP BY traderId — the shape every sharing
/// strategy (and the sharding planner) accepts.
std::vector<std::string> WorkloadTexts() {
  return {
      "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 2s",
      "PATTERN SEQ(DELL, IPIX, AMAT) GROUP BY traderId AGG COUNT WITHIN 2s",
      "PATTERN SEQ(IPIX, DELL) GROUP BY traderId AGG COUNT WITHIN 2s",
      "PATTERN SEQ(AMAT, DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 2s",
      "PATTERN SEQ(DELL, AMAT) GROUP BY traderId AGG COUNT WITHIN 2s",
  };
}

struct Measurement {
  double serial_busy_seconds = 0;   // best serial elapsed (== busy)
  double serial_ms_per_slide = 0;
  double events_per_sec = 0;        // serial, from the best pass
  std::map<size_t, double> busy_by_shards;  // best max-shard busy
  std::map<size_t, double> speedup_by_shards;
  uint64_t events = 0;
  uint64_t outputs = 0;
};

/// Min across repetitions: the least-interference estimate. Workers on a
/// time-sliced container inflate busy time whenever the scheduler parks
/// them mid-batch, so medians stay noisy where minima converge.
double Best(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

/// One policy run; returns the critical path (max shard busy) and fills
/// outputs on the first call.
double RunOnce(const std::vector<CompiledQuery>& queries,
               const exec::MultiEngineFactory& factory,
               const RunOptions& options, uint64_t* events,
               uint64_t* outputs) {
  std::string reason;
  auto policy = exec::MakeMultiPolicy(queries, factory, options, &reason);
  if (!policy.ok() || !reason.empty()) {
    std::fprintf(stderr, "FAIL: policy (%s%s)\n",
                 policy.ok() ? "" : policy.status().ToString().c_str(),
                 reason.c_str());
    std::exit(1);
  }
  if ((*policy)->num_shards() != options.num_shards) {
    std::fprintf(stderr, "FAIL: wanted %zu shards, got %zu\n",
                 options.num_shards, (*policy)->num_shards());
    std::exit(1);
  }
  MultiRunResult result = (*policy)->RunEvents(Stream().events);
  *events = result.events;
  *outputs = (*policy)->stats().outputs;
  double busy_max = 0;
  for (double busy : (*policy)->shard_busy_seconds()) {
    busy_max = std::max(busy_max, busy);
  }
  return busy_max;
}

Measurement RunStrategy(const std::string& strategy,
                        const std::vector<CompiledQuery>& queries, int warmup,
                        int reps) {
  exec::MultiEngineFactory factory =
      std::move(MakeStrategyFactory(strategy, queries)).value();
  Measurement m;

  RunOptions serial_options;
  serial_options.collect_outputs = false;
  serial_options.num_shards = 1;
  std::vector<double> serial_busy;
  for (int r = 0; r < warmup + reps; ++r) {
    const double busy =
        RunOnce(queries, factory, serial_options, &m.events, &m.outputs);
    if (r >= warmup) serial_busy.push_back(busy);
  }
  m.serial_busy_seconds = Best(serial_busy);
  m.serial_ms_per_slide = m.events == 0 ? 0
                                        : m.serial_busy_seconds * 1e3 /
                                              static_cast<double>(m.events);
  m.events_per_sec = m.serial_busy_seconds == 0
                         ? 0
                         : static_cast<double>(m.events) /
                               m.serial_busy_seconds;

  for (size_t shards : kShardCounts) {
    RunOptions options;
    options.collect_outputs = false;
    options.num_shards = shards;
    std::vector<double> busy;
    uint64_t events = 0;
    uint64_t outputs = 0;
    for (int r = 0; r < warmup + reps; ++r) {
      const double b = RunOnce(queries, factory, options, &events, &outputs);
      if (r >= warmup) busy.push_back(b);
    }
    if (outputs != m.outputs || events != m.events) {
      std::fprintf(stderr,
                   "FAIL: %s at %zu shards drifted: %llu outputs vs serial "
                   "%llu\n",
                   strategy.c_str(), shards,
                   static_cast<unsigned long long>(outputs),
                   static_cast<unsigned long long>(m.outputs));
      std::exit(1);
    }
    const double best = Best(busy);
    m.busy_by_shards[shards] = best;
    m.speedup_by_shards[shards] =
        best == 0 ? 0 : m.serial_busy_seconds / best;
  }
  return m;
}

GateEntry Entry(const std::string& name, const Measurement& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "\"serial_busy_seconds\": %.4f, \"serial_ms_per_slide\": %.6f, "
      "\"events_per_sec\": %.1f, \"busy_at_8\": %.4f, \"speedup_at_2\": "
      "%.3f, \"speedup_at_4\": %.3f, \"speedup_at_8\": %.3f, \"events\": "
      "%llu, \"outputs\": %llu",
      m.serial_busy_seconds, m.serial_ms_per_slide, m.events_per_sec,
      m.busy_by_shards.at(8), m.speedup_by_shards.at(2),
      m.speedup_by_shards.at(4), m.speedup_by_shards.at(8),
      static_cast<unsigned long long>(m.events),
      static_cast<unsigned long long>(m.outputs));
  return {name, buf, m.speedup_by_shards.at(8)};
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  using namespace aseq::bench;
  const GateFlags flags = ParseGateFlags(argc, argv, /*quick_reps=*/3,
                                         /*full_reps=*/4);
  g_num_events = flags.quick ? 60000 : 150000;
  std::printf("multi-query shard sweep: mode=%s reps=%d warmup=%d\n",
              flags.mode().c_str(), flags.reps, flags.warmup);

  aseq::Schema schema = Stream().schema;
  aseq::Analyzer analyzer(&schema);
  std::vector<aseq::CompiledQuery> queries;
  for (const std::string& text : WorkloadTexts()) {
    queries.push_back(std::move(analyzer.AnalyzeText(text)).value());
  }

  std::vector<GateEntry> entries;
  for (const char* strategy : {"nonshare", "pretree", "cc", "hybrid"}) {
    if (!flags.Wants(strategy)) continue;
    Measurement m = RunStrategy(strategy, queries, flags.warmup, flags.reps);
    std::printf(
        "  %-9s serial %7.4fs (%8.0f ev/s)  x2 %.2f  x4 %.2f  x8 %.2f  "
        "outputs=%llu\n",
        strategy, m.serial_busy_seconds, m.events_per_sec,
        m.speedup_by_shards.at(2), m.speedup_by_shards.at(4),
        m.speedup_by_shards.at(8),
        static_cast<unsigned long long>(m.outputs));
    entries.push_back(Entry(strategy, m));
  }
  // The floor is absolute: --tolerance widens nothing here.
  return FinishGate(flags, entries, "speedup_at_8", kSpeedupFloor) ? 0 : 1;
}
