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
// Usage:
//   bench_multiquery_shard_sweep [--quick] [--reps N] [--warmup N]
//                                [--only STRATEGY] [--out FILE]
//                                [--label NAME]
//                                [--check BENCH_multiquery.json]
//                                [--tolerance 0.2]
//
// --out appends/writes flat JSON entries keyed "<mode>/<label>/<strategy>".
// --check re-runs the sweep and fails (exit 1) if any strategy's
// speedup_at_8 falls below the 1.3x acceptance floor, or has no committed
// "<mode>/current/<strategy>" entry in the given file — the CI perf smoke
// gate for the sharded multi-query runtime. Unlike the throughput gates,
// the floor is absolute, not committed-relative: critical-path speedup is
// a busy-time ratio, hardware-independent but noisy enough on shared CI
// boxes that a tight relative floor would flake (the committed number is
// printed for comparison). --tolerance widens nothing here; it is
// accepted for flag-compatibility with the other gates.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "exec/execution_policy.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/hybrid_engine.h"
#include "multi/nonshared_engine.h"
#include "multi/pretree_engine.h"
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

exec::MultiEngineFactory MakeFactory(const std::string& strategy,
                                     const std::vector<CompiledQuery>& qs) {
  if (strategy == "cc") {
    return [&qs]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      ASEQ_ASSIGN_OR_RETURN(auto e,
                            ChopConnectEngine::Create(qs, PlanChopConnect(qs)));
      return std::unique_ptr<MultiQueryEngine>(std::move(e));
    };
  }
  if (strategy == "pretree") {
    return [&qs]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      ASEQ_ASSIGN_OR_RETURN(auto e, PreTreeEngine::Create(qs));
      return std::unique_ptr<MultiQueryEngine>(std::move(e));
    };
  }
  if (strategy == "hybrid") {
    return [&qs]() -> Result<std::unique_ptr<MultiQueryEngine>> {
      ASEQ_ASSIGN_OR_RETURN(auto e, HybridMultiEngine::Create(qs));
      return std::unique_ptr<MultiQueryEngine>(std::move(e));
    };
  }
  return [&qs]() -> Result<std::unique_ptr<MultiQueryEngine>> {
    ASEQ_ASSIGN_OR_RETURN(auto e, NonSharedEngine::CreateAseq(qs));
    return std::unique_ptr<MultiQueryEngine>(std::move(e));
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
  exec::MultiEngineFactory factory = MakeFactory(strategy, queries);
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

std::string FormatEntry(const std::string& key, const Measurement& m) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"%s\": {\"serial_busy_seconds\": %.4f, \"serial_ms_per_slide\": "
      "%.6f, \"events_per_sec\": %.1f, \"busy_at_8\": %.4f, \"speedup_at_2\": "
      "%.3f, \"speedup_at_4\": %.3f, \"speedup_at_8\": %.3f, \"events\": "
      "%llu, \"outputs\": %llu}",
      key.c_str(), m.serial_busy_seconds, m.serial_ms_per_slide,
      m.events_per_sec, m.busy_by_shards.at(8), m.speedup_by_shards.at(2),
      m.speedup_by_shards.at(4), m.speedup_by_shards.at(8),
      static_cast<unsigned long long>(m.events),
      static_cast<unsigned long long>(m.outputs));
  return buf;
}

/// Reads the flat JSON written by --out: one "<key>": {...} entry per
/// line. Returns key -> speedup_at_8.
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
    const char* tag = "\"speedup_at_8\": ";
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

  bool quick = false;
  int reps = 3;
  int warmup = 1;
  double tolerance = 0.2;
  std::string out_path;
  std::string check_path;
  std::string label = "current";
  std::string only;
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
  if (!quick && reps == 3) reps = 4;
  aseq::bench::g_num_events = quick ? 60000 : 150000;

  std::printf("multi-query shard sweep: mode=%s reps=%d warmup=%d\n",
              mode.c_str(), reps, warmup);

  aseq::Schema schema = aseq::bench::Stream().schema;
  aseq::Analyzer analyzer(&schema);
  std::vector<aseq::CompiledQuery> queries;
  for (const std::string& text : aseq::bench::WorkloadTexts()) {
    queries.push_back(std::move(analyzer.AnalyzeText(text)).value());
  }

  const char* const kStrategies[] = {"nonshare", "pretree", "cc", "hybrid"};
  std::vector<std::pair<std::string, Measurement>> results;
  for (const char* strategy : kStrategies) {
    if (!only.empty() && only != strategy) continue;
    Measurement m =
        aseq::bench::RunStrategy(strategy, queries, warmup, reps);
    std::printf(
        "  %-9s serial %7.4fs (%8.0f ev/s)  x2 %.2f  x4 %.2f  x8 %.2f  "
        "outputs=%llu\n",
        strategy, m.serial_busy_seconds, m.events_per_sec,
        m.speedup_by_shards.at(2), m.speedup_by_shards.at(4),
        m.speedup_by_shards.at(8),
        static_cast<unsigned long long>(m.outputs));
    results.emplace_back(strategy, m);
  }

  if (!out_path.empty()) {
    std::ofstream f(out_path, std::ios::trunc);
    f << "{\n";
    for (size_t i = 0; i < results.size(); ++i) {
      f << aseq::bench::FormatEntry(
               mode + "/" + label + "/" + results[i].first, results[i].second)
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
      (void)tolerance;
      const double floor = aseq::bench::kSpeedupFloor;
      const double got = m.speedup_by_shards.at(8);
      const bool pass = got >= floor;
      std::printf(
          "  check %-28s speedup_at_8 %.2f vs committed %.2f (floor %.2f): "
          "%s\n",
          key.c_str(), got, it->second, floor, pass ? "ok" : "REGRESSED");
      ok = ok && pass;
    }
    if (!ok) return 1;
  }
  return 0;
}
