// Fig. 16(d): Chop-Connect while the number of queries sharing a length-3
// substring grows from 2 to 6.
//
// Expected shape (Sec. 6.3.2): the gap between CC and unshared A-Seq widens
// with the number of sharing queries (~2x at 6 queries in the paper).
//
// The *3Seg series add a private tail of 2 types, so each query chops into
// three segments and every tail START runs the Fig. 11 multi-connect; they
// run at k = 2, 6 and 20 (k = 20 is the perfbench substr20_cc shape).

#include <benchmark/benchmark.h>

#include <map>
#include <utility>

#include "bench/bench_util.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/nonshared_engine.h"

namespace aseq {
namespace bench {
namespace {

const size_t kNumEvents = ScaledEvents(30000);
constexpr int64_t kMaxGapMs = 4;
constexpr Timestamp kWindowMs = 2000;
constexpr size_t kSharedLen = 3;

const MultiBench& Bench(size_t num_queries, size_t tail_len = 0) {
  static std::map<std::pair<size_t, size_t>, std::unique_ptr<MultiBench>>
      cache;
  std::unique_ptr<MultiBench>& mb = cache[{num_queries, tail_len}];
  if (mb == nullptr) {
    SharedWorkload workload = MakeSubstringSharedWorkload(
        num_queries, /*prefix_len=*/2, kSharedLen, tail_len, kWindowMs);
    mb = MakeMultiBench(workload, kNumEvents, kMaxGapMs);
  }
  return *mb;
}

void BM_NonShare(benchmark::State& state) {
  const MultiBench& mb = Bench(static_cast<size_t>(state.range(0)));
  auto engine = NonSharedEngine::CreateAseq(mb.queries);
  RunMultiAndReport(state, mb.events, engine->get());
}
BENCHMARK(BM_NonShare)
    ->DenseRange(2, 6)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ChopConnect(benchmark::State& state) {
  const MultiBench& mb = Bench(static_cast<size_t>(state.range(0)));
  ChopPlan plan = PlanChopConnect(mb.queries);
  auto engine = ChopConnectEngine::Create(mb.queries, plan);
  RunMultiAndReport(state, mb.events, engine->get());
}
BENCHMARK(BM_ChopConnect)
    ->DenseRange(2, 6)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_NonShare3Seg(benchmark::State& state) {
  const MultiBench& mb = Bench(static_cast<size_t>(state.range(0)), 2);
  auto engine = NonSharedEngine::CreateAseq(mb.queries);
  RunMultiAndReport(state, mb.events, engine->get());
}
BENCHMARK(BM_NonShare3Seg)
    ->Arg(2)
    ->Arg(6)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_ChopConnect3Seg(benchmark::State& state) {
  const MultiBench& mb = Bench(static_cast<size_t>(state.range(0)), 2);
  ChopPlan plan = PlanChopConnect(mb.queries);
  auto engine = ChopConnectEngine::Create(mb.queries, plan);
  RunMultiAndReport(state, mb.events, engine->get());
}
BENCHMARK(BM_ChopConnect3Seg)
    ->Arg(2)
    ->Arg(6)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  aseq::bench::PrintFigureBanner(
      "Fig. 16(d)",
      "Chop-Connect vs #queries sharing a length-3 substring (k = 2..6; "
      "three-segment series at k = 2, 6, 20)");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
