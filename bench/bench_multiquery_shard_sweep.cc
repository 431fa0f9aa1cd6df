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
// Each strategy's serial run and its 2-, 4- and 8-shard runs alternate in
// interleaved rounds (MeasurePaired, bench_util.h), and speedup_at_N is the
// median of the per-round ratios serial busy / max-shard busy at N shards.
// The gate fails if any strategy's speedup_at_8 falls below the 1.3x
// acceptance floor, or if a sharded run's outputs drift from serial's.

#include <algorithm>
#include <cstdio>
#include <functional>
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

constexpr size_t kEvents = 60000;

const BenchStream& Stream() {
  static const BenchStream* stream =
      MakeStockStream(kEvents, /*max_gap_ms=*/2, /*seed=*/42,
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

/// One policy run; returns the critical path (max shard busy; a serial
/// run's elapsed is its busy) and exits 1 if the outputs drift from
/// `*outputs` once that is set.
double RunOnce(const std::vector<CompiledQuery>& queries,
               const exec::MultiEngineFactory& factory, size_t shards,
               uint64_t* outputs) {
  RunOptions options;
  options.collect_outputs = false;
  options.num_shards = shards;
  std::string reason;
  auto policy = exec::MakeMultiPolicy(queries, factory, options, &reason);
  if (!policy.ok() || !reason.empty()) {
    std::fprintf(stderr, "FAIL: policy (%s%s)\n",
                 policy.ok() ? "" : policy.status().ToString().c_str(),
                 reason.c_str());
    std::exit(1);
  }
  if ((*policy)->num_shards() != shards) {
    std::fprintf(stderr, "FAIL: wanted %zu shards, got %zu\n", shards,
                 (*policy)->num_shards());
    std::exit(1);
  }
  MultiRunResult result = (*policy)->RunEvents(Stream().events);
  const uint64_t got = (*policy)->stats().outputs;
  if (*outputs == 0) *outputs = got;
  if (got != *outputs || result.events != Stream().events.size()) {
    std::fprintf(stderr, "FAIL: %zu shards drifted: %llu outputs vs serial "
                 "%llu\n", shards, static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(*outputs));
    std::exit(1);
  }
  double busy_max = 0;
  for (double busy : (*policy)->shard_busy_seconds()) {
    busy_max = std::max(busy_max, busy);
  }
  return busy_max;
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  using namespace aseq::bench;
  const GateFlags flags = ParseGateFlags(argc, argv, /*default_reps=*/9);
  std::printf("multi-query shard sweep: events=%zu rounds=%d warmup=%d\n",
              kEvents, flags.reps, flags.warmup);

  aseq::Schema schema = Stream().schema;
  aseq::Analyzer analyzer(&schema);
  std::vector<aseq::CompiledQuery> queries;
  for (const std::string& text : WorkloadTexts()) {
    queries.push_back(std::move(analyzer.AnalyzeText(text)).value());
  }

  bool ok = true;
  for (const char* strategy : {"nonshare", "pretree", "cc", "hybrid"}) {
    const aseq::exec::MultiEngineFactory factory =
        std::move(aseq::MakeStrategyFactory(strategy, queries)).value();
    uint64_t outputs = 0;
    std::vector<std::function<double()>> passes;
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      passes.push_back([&, shards] {
        return RunOnce(queries, factory, shards, &outputs);
      });
    }
    const PairedRun run = MeasurePaired(passes, flags.warmup, flags.reps);
    const double serial = run.MedianSeconds(0);
    std::printf("  %-9s serial %7.4fs (%8.0f ev/s)  x2 %.2f  x4 %.2f  "
                "outputs=%llu\n",
                strategy, serial,
                serial == 0 ? 0 : static_cast<double>(kEvents) / serial,
                run.Ratio(0, 1), run.Ratio(0, 2),
                static_cast<unsigned long long>(outputs));
    ok = CheckRatio(std::string(strategy) + " speedup_at_8", run.Ratio(0, 3),
                    kSpeedupFloor, /*floor=*/true) &&
         ok;
  }
  return ok ? 0 : 1;
}
