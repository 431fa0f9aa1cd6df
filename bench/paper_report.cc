// paper_report: reproduces every figure in Sec. 6 and the ablations.
//
// Runs each experiment, prints the paper-style comparison tables, and
// *asserts* the qualitative shapes the paper reports (who wins, growth
// direction, order-of-magnitude gaps). Exits non-zero if any shape
// expectation fails — a regression gate for the whole reproduction. The
// ablation tables at the end gate nothing.
//
//   ./build/bench/paper_report                    # scaled-down streams
//   ASEQ_BENCH_FULL=1 ./build/bench/paper_report  # the paper's 120k events
//
// Every point runs the batched pipeline (default batch size unless a table
// sweeps it). An ungated point is one pass; both sides of every gated
// comparison are the fastest of interleaved passes (FastestOf). ms/sl is
// the average execution time per window slide (the window slides on every
// arrival); objs is the peak live-object count, the paper's memory metric.

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/ecube_engine.h"
#include "baseline/stack_engine.h"
#include "bench/bench_util.h"
#include "engine/reordering_engine.h"
#include "engine/runtime.h"
#include "exec/serial_executor.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/composite_engine.h"
#include "query/analyzer.h"

namespace aseq {
namespace bench {
namespace {

struct Report {
  int checks = 0;
  int failures = 0;

  void Check(bool ok, const std::string& what) {
    ++checks;
    if (!ok) ++failures;
    std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  }
};

struct Measured {
  double ms_per_slide = 0;
  int64_t peak_objects = 0;
};

// All measurements run on the batched pipeline, the same path the CLI
// uses, with the output scratch reused across measurements.
template <class EngineT>
Measured Measure(EngineT* engine, const std::vector<Event>& events,
                 size_t batch_size = kDefaultBatchSize) {
  RunOptions options;
  options.collect_outputs = false;
  options.batch_size = batch_size;
  auto r = exec::RunSerial(options, events, engine, &SharedBuffers());
  return {r.MillisPerSlide(), engine->stats().objects.peak()};
}

/// One side of a gated comparison: `run` builds a fresh engine and times
/// one pass over its stream.
struct Side {
  std::function<Measured()> run;
  int passes;
};

/// Passes per gated side; a stack-based side that takes ~1 s a pass gets
/// kSlowPasses, which keeps the whole report within ~1.5x of one pass each.
constexpr int kGatePasses = 5;
constexpr int kSlowPasses = 2;

template <class MakeEngine>
Side SideOf(MakeEngine make, const std::vector<Event>& events,
            int passes = kGatePasses) {
  return {[make, &events] {
            auto engine = make();
            return Measure(engine.get(), events);
          },
          passes};
}

/// Fresh-engine factories for SideOf; `cq` must outlive the side.
auto StackOf(const CompiledQuery& cq) {
  return [&cq] { return std::make_unique<StackEngine>(cq); };
}
auto AseqOf(const CompiledQuery& cq) {
  return [&cq] { return std::move(CreateAseqEngine(cq)).value(); };
}

/// Times `sides` as interleaved passes — round r runs, in order, every side
/// that wants more than r passes — and returns each side's fastest pass.
/// Host contention only adds time, so a load spike slows the passes it
/// hits instead of tilting one side of a check, and the minimum of each
/// side is the estimate it disturbs least.
std::vector<Measured> FastestOf(const std::vector<Side>& sides) {
  std::vector<Measured> best(sides.size());
  int rounds = 0;
  for (const Side& side : sides) rounds = std::max(rounds, side.passes);
  for (int r = 0; r < rounds; ++r) {
    for (size_t i = 0; i < sides.size(); ++i) {
      if (r >= sides[i].passes) continue;
      const Measured m = sides[i].run();
      if (r == 0 || m.ms_per_slide < best[i].ms_per_slide) best[i] = m;
    }
  }
  return best;
}

CompiledQuery Compile(const BenchStream& stream, const Query& query) {
  Schema schema = stream.schema;  // copy: analysis must not mutate shared
  Analyzer analyzer(&schema);
  return std::move(analyzer.Analyze(query)).value();
}

CompiledQuery CompileText(const BenchStream& stream, const std::string& text) {
  Schema schema = stream.schema;
  Analyzer analyzer(&schema);
  return std::move(analyzer.AnalyzeText(text)).value();
}

// ---------------------------------------------------------------------------

void Fig12(Report* report) {
  std::printf("\nFig. 12 — time & memory vs pattern length (win=1000ms)\n");
  std::printf("  %-4s %14s %14s %10s %12s %12s\n", "l", "stack ms/sl",
              "aseq ms/sl", "speedup", "stack objs", "aseq objs");
  auto stream = MakeStockStream(ScaledEvents(3000), 8);
  std::vector<CompiledQuery> queries;
  std::vector<Side> sides;
  for (size_t l = 2; l <= 5; ++l) {
    queries.push_back(Compile(*stream, MakeTickerQuery(l, 1000)));
  }
  for (const CompiledQuery& cq : queries) {
    sides.push_back(SideOf(StackOf(cq), stream->events, kSlowPasses));
    sides.push_back(SideOf(AseqOf(cq), stream->events));
  }
  const std::vector<Measured> m = FastestOf(sides);
  std::vector<double> stack_ms, aseq_ms;
  std::vector<int64_t> stack_obj, aseq_obj;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Measured& s = m[2 * i];
    const Measured& a = m[2 * i + 1];
    stack_ms.push_back(s.ms_per_slide);
    aseq_ms.push_back(a.ms_per_slide);
    stack_obj.push_back(s.peak_objects);
    aseq_obj.push_back(a.peak_objects);
    std::printf("  %-4zu %14.6f %14.6f %9.0fx %12lld %12lld\n", i + 2,
                s.ms_per_slide, a.ms_per_slide,
                s.ms_per_slide / a.ms_per_slide,
                static_cast<long long>(s.peak_objects),
                static_cast<long long>(a.peak_objects));
  }
  report->Check(stack_ms[3] > 20 * stack_ms[1],
                "baseline grows steeply with pattern length (>20x, l=3->5)");
  report->Check(aseq_ms[3] < 3 * aseq_ms[0],
                "A-Seq stays flat with pattern length (<3x, l=2->5)");
  report->Check(stack_ms[3] / aseq_ms[3] > 500,
                "orders-of-magnitude time gap at l=5 (>500x)");
  report->Check(stack_obj[3] > 1000 * aseq_obj[3],
                "orders-of-magnitude memory gap at l=5 (>1000x)");
  report->Check(stack_obj[3] > stack_obj[0] * 50,
                "baseline memory grows steeply with length");
}

void Fig13(Report* report) {
  std::printf("\nFig. 13 — time & memory vs window size (l=3)\n");
  std::printf("  %-6s %14s %14s %12s %12s\n", "win", "stack ms/sl",
              "aseq ms/sl", "stack objs", "aseq objs");
  auto stream = MakeStockStream(ScaledEvents(3000), 8);
  std::vector<CompiledQuery> queries;
  std::vector<Side> sides;
  for (Timestamp win = 100; win <= 1000; win += 100) {
    queries.push_back(Compile(*stream, MakeTickerQuery(3, win)));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    // The checks compare the sweep's ends, win=100ms and win=1000ms.
    const int passes = i == 0 || i + 1 == queries.size() ? kGatePasses : 1;
    sides.push_back(SideOf(StackOf(queries[i]), stream->events, passes));
    sides.push_back(SideOf(AseqOf(queries[i]), stream->events, passes));
  }
  const std::vector<Measured> m = FastestOf(sides);
  std::vector<double> stack_ms, aseq_ms;
  std::vector<int64_t> aseq_obj;
  for (size_t i = 0; i < queries.size(); ++i) {
    const Measured& s = m[2 * i];
    const Measured& a = m[2 * i + 1];
    stack_ms.push_back(s.ms_per_slide);
    aseq_ms.push_back(a.ms_per_slide);
    aseq_obj.push_back(a.peak_objects);
    std::printf("  %-6lld %14.6f %14.6f %12lld %12lld\n",
                static_cast<long long>(queries[i].window_ms()),
                s.ms_per_slide, a.ms_per_slide,
                static_cast<long long>(s.peak_objects),
                static_cast<long long>(a.peak_objects));
  }
  report->Check(stack_ms.back() > 8 * stack_ms.front(),
                "baseline degrades steeply with window (>8x, 100->1000ms)");
  report->Check(aseq_ms.back() < 8 * aseq_ms.front(),
                "A-Seq grows mildly with window (<8x)");
  report->Check(aseq_obj.back() > aseq_obj.front(),
                "A-Seq state is linear in live starts (grows with window)");
  report->Check(stack_ms.back() > 20 * aseq_ms.back(),
                "baseline >20x slower at win=1000ms");
}

void Fig14a(Report* report) {
  std::printf("\nFig. 14(a) — A-Seq scalability (l=6..10, win=2000ms)\n");
  std::printf("  %-4s %14s %12s\n", "l", "aseq ms/sl", "objs");
  auto stream = MakeStockStream(ScaledEvents(30000), 6);
  std::vector<CompiledQuery> queries;
  std::vector<Side> sides;
  for (size_t l = 6; l <= 10; ++l) {
    queries.push_back(Compile(*stream, MakeTickerQuery(l, 2000)));
  }
  for (size_t i = 0; i < queries.size(); ++i) {
    const int passes = i == 0 || i + 1 == queries.size() ? kGatePasses : 1;
    sides.push_back(SideOf(AseqOf(queries[i]), stream->events, passes));
  }
  const std::vector<Measured> m = FastestOf(sides);
  std::vector<double> ms;
  for (size_t i = 0; i < m.size(); ++i) {
    ms.push_back(m[i].ms_per_slide);
    std::printf("  %-4zu %14.6f %12lld\n", i + 6, m[i].ms_per_slide,
                static_cast<long long>(m[i].peak_objects));
  }
  report->Check(ms.back() < 3 * ms.front(),
                "no significant degradation up to l=10 (<3x over l=6)");
}

void Fig14b(Report* report) {
  std::printf("\nFig. 14(b) — negation push-down vs post-filter\n");
  auto stream = MakeStockStream(ScaledEvents(3000), 8);
  Query q1;
  q1.pattern = Pattern::FromNames({"DELL", "IPIX", "AMAT"});
  q1.agg = AggregateSpec::Count();
  q1.window_ms = 1000;
  Query q2 = q1;
  q2.pattern = Pattern::FromNames({"DELL", "IPIX", "!QQQ", "AMAT"});
  CompiledQuery c1 = Compile(*stream, q1);
  CompiledQuery c2 = Compile(*stream, q2);

  const std::vector<Measured> m = FastestOf(
      {SideOf(AseqOf(c1), stream->events), SideOf(AseqOf(c2), stream->events),
       SideOf(StackOf(c1), stream->events),
       SideOf(StackOf(c2), stream->events)});
  const double am1 = m[0].ms_per_slide, am2 = m[1].ms_per_slide;
  const double sm1 = m[2].ms_per_slide, sm2 = m[3].ms_per_slide;
  std::printf("  %-12s %14s %14s\n", "engine", "q1 (pos)", "q2 (!QQQ)");
  std::printf("  %-12s %14.6f %14.6f\n", "A-Seq", am1, am2);
  std::printf("  %-12s %14.6f %14.6f\n", "StackBased", sm1, sm2);
  report->Check(am2 < 2.5 * am1,
                "negation nearly free for A-Seq (<2.5x q1)");
  report->Check(sm2 > 1.5 * sm1,
                "post-filter negation costs the baseline (>1.5x its q1)");
  report->Check(sm2 > 50 * am2, "A-Seq >50x faster on the negation query");
}

void Fig15(Report* report) {
  std::printf("\nFig. 15 — multi-query: SASE vs ECube vs A-Seq vs CC\n");
  SharedWorkload workload = MakeSubstringSharedWorkload(3, 2, 2, 0, 1000);
  auto mb = MakeMultiBench(workload, ScaledEvents(3000), 12);
  std::vector<EventTypeId> shared;
  for (const std::string& name : workload.shared_types) {
    shared.push_back(*mb->schema.FindEventType(name));
  }
  const std::vector<CompiledQuery>& queries = mb->queries;
  const ChopPlan plan = PlanChopConnect(queries);
  const std::vector<Measured> m = FastestOf(
      {SideOf([&] { return CompositeEngine::CreateSase(queries); },
              mb->events, kSlowPasses),
       SideOf([&] { return EcubeEngine::Create(queries, shared).value(); },
              mb->events, kSlowPasses),
       SideOf([&] { return CompositeEngine::CreateNonShare(queries).value(); },
              mb->events),
       SideOf([&] { return ChopConnectEngine::Create(queries, plan).value(); },
              mb->events)});
  const double sase_ms = m[0].ms_per_slide, ecube_ms = m[1].ms_per_slide;
  const double aseq_ms = m[2].ms_per_slide, cc_ms = m[3].ms_per_slide;
  std::printf("  %-12s %14s\n", "engine", "ms/sl");
  std::printf("  %-12s %14.6f\n", "SASE", sase_ms);
  std::printf("  %-12s %14.6f\n", "ECube", ecube_ms);
  std::printf("  %-12s %14.6f\n", "A-Seq", aseq_ms);
  std::printf("  %-12s %14.6f\n", "ChopConnect", cc_ms);
  report->Check(ecube_ms < sase_ms, "ECube beats SASE by sharing construction");
  report->Check(ecube_ms > 30 * aseq_ms,
                "ECube still >30x slower than A-Seq (match materialization)");
  report->Check(cc_ms < 3 * aseq_ms && aseq_ms < 3 * cc_ms,
                "A-Seq and Chop-Connect lines overlap (within 3x)");
}

// Fig. 16 rows: unshared A-Seq vs one sharing strategy on one workload.
void GainHeader(const char* title, const char* strategy) {
  std::printf("\n%s\n", title);
  std::printf("  %-22s %12s %12s %8s\n", "workload", "nonshare", strategy,
              "gain");
}

/// Measures `workload` on an 8000-event stream, prints the row and returns
/// the gain (nonshare time / `strategy` time). A gated row passes
/// kGatePasses.
double GainRow(const std::string& label, const SharedWorkload& workload,
               const char* strategy, int passes = 1) {
  auto mb = MakeMultiBench(workload, ScaledEvents(8000), 4);
  auto side = [&](const char* name) {
    exec::MultiEngineFactory factory =
        MakeStrategyFactory(name, mb->queries).value();
    return SideOf([factory] { return factory().value(); }, mb->events,
                  passes);
  };
  const std::vector<Measured> m = FastestOf({side("nonshare"), side(strategy)});
  const double ns_ms = m[0].ms_per_slide;
  const double shared_ms = m[1].ms_per_slide;
  const double gain = ns_ms / shared_ms;
  std::printf("  %-22s %12.6f %12.6f %7.2fx\n", label.c_str(), ns_ms,
              shared_ms, gain);
  return gain;
}

// The gated rows come first, each the fastest of kGatePasses interleaved
// passes per side; the sweeps follow ungated, one pass a point.

void Fig16Prefix(Report* report) {
  GainHeader("Fig. 16(a)/(b) — prefix sharing", "pretree");
  const double gain_small =
      GainRow("3 queries, prefix 2", MakePrefixSharedWorkload(3, 2, 4, 2000),
              "pretree", kGatePasses);
  const double gain_large =
      GainRow("6 queries, prefix 5", MakePrefixSharedWorkload(6, 5, 7, 2000),
              "pretree", kGatePasses);
  report->Check(gain_small > 1.3, "prefix sharing wins on the small workload");
  report->Check(gain_large > gain_small,
                "gain grows with more sharing (queries x prefix length)");
  GainHeader("Fig. 16(a) — prefix sharing vs #queries (prefix 3, |pattern| 5)",
             "pretree");
  for (size_t k = 2; k <= 6; ++k) {
    GainRow(std::to_string(k) + " queries",
            MakePrefixSharedWorkload(k, 3, 5, 2000), "pretree");
  }
  GainHeader("Fig. 16(b) — prefix sharing vs prefix length (3 queries, "
             "|pattern| = prefix + 2)",
             "pretree");
  for (size_t prefix = 2; prefix <= 6; ++prefix) {
    GainRow("3 queries, prefix " + std::to_string(prefix),
            MakePrefixSharedWorkload(3, prefix, prefix + 2, 2000), "pretree");
  }
}

void Fig16CC(Report* report) {
  GainHeader("Fig. 16(c)/(d) — Chop-Connect sharing", "cc");
  const double gain_short = GainRow(
      "3 queries, shared 2", MakeSubstringSharedWorkload(3, 2, 2, 0, 2000),
      "cc", kGatePasses);
  const double gain_long = GainRow(
      "3 queries, shared 6", MakeSubstringSharedWorkload(3, 2, 6, 0, 2000),
      "cc", kGatePasses);
  report->Check(gain_long > gain_short,
                "CC gain grows with the shared-substring length");
  report->Check(gain_long > 1.1, "CC wins for long shared substrings");
  GainHeader("Fig. 16(c) — Chop-Connect vs shared-substring length "
             "(3 queries, private prefix 2)",
             "cc");
  for (size_t shared = 2; shared <= 6; ++shared) {
    GainRow("3 queries, shared " + std::to_string(shared),
            MakeSubstringSharedWorkload(3, 2, shared, 0, 2000), "cc");
  }
  GainHeader("Fig. 16(d) — Chop-Connect vs #queries sharing a length-3 "
             "substring",
             "cc");
  for (size_t k = 2; k <= 6; ++k) {
    GainRow(std::to_string(k) + " queries",
            MakeSubstringSharedWorkload(k, 2, 3, 0, 2000), "cc");
  }
  // A private tail of 2 types chops each query into three segments, so
  // every tail START runs the Fig. 11 multi-connect. Its cost grows with
  // the live upstream entries, and the saving with k: CC loses at small k
  // (k = 20 is the perfbench substr20_cc shape). The k = 2 and k = 20 gains
  // differ ~6x, far more than host load moves one row.
  double gain_k2 = 0, gain_k20 = 0;
  for (size_t k : {2, 6, 20}) {
    const double gain = GainRow(
        std::to_string(k) + " queries, 3 segs",
        MakeSubstringSharedWorkload(k, 2, 3, 2, 2000), "cc",
        k == 6 ? 1 : kGatePasses);
    if (k == 2) gain_k2 = gain;
    if (k == 20) gain_k20 = gain;
  }
  report->Check(gain_k2 < 0.6,
                "three-segment CC loses to NonShare at k=2 (<0.6x)");
  report->Check(gain_k20 > 3 * gain_k2,
                "three-segment CC gain grows with k (k=20 >3x k=2)");
}

// ---- Ablations: our extensions and design choices; no checks. -----------

void AblationAggregates() {
  std::printf("\nAblation — aggregate function (SEQ(DELL, IPIX, AMAT), "
              "win=1s, 20k events)\n");
  std::printf("  %-18s %14s %14s\n", "agg", "aseq ms/sl", "stack ms/sl");
  auto stream = MakeStockStream(20000, 6);
  for (const char* agg : {"COUNT", "SUM(IPIX.volume)", "AVG(IPIX.volume)",
                          "MIN(IPIX.price)", "MAX(IPIX.price)"}) {
    CompiledQuery cq = CompileText(
        *stream,
        std::string("PATTERN SEQ(DELL, IPIX, AMAT) AGG ") + agg + " WITHIN 1s");
    auto aseq = CreateAseqEngine(cq);
    StackEngine stack(cq);
    std::printf("  %-18s %14.6f %14.6f\n", agg,
                Measure(aseq->get(), stream->events).ms_per_slide,
                Measure(&stack, stream->events).ms_per_slide);
  }
}

void AblationPartitions() {
  std::printf("\nAblation — HPC partitioning vs distinct traderId values "
              "(equivalence query, 20k events)\n");
  std::printf("  %-8s %14s %14s %12s\n", "traders", "aseq ms/sl",
              "stack ms/sl", "aseq objs");
  for (size_t traders : {1, 4, 16, 64, 256}) {
    auto stream = MakeStockStream(20000, 6, 42, traders);
    CompiledQuery cq = CompileText(
        *stream,
        "PATTERN SEQ(DELL, IPIX, AMAT) "
        "WHERE DELL.traderId = IPIX.traderId = AMAT.traderId "
        "AGG COUNT WITHIN 1s");
    auto aseq = CreateAseqEngine(cq);
    StackEngine stack(cq);
    Measured a = Measure(aseq->get(), stream->events);
    std::printf("  %-8zu %14.6f %14.6f %12lld\n", traders, a.ms_per_slide,
                Measure(&stack, stream->events).ms_per_slide,
                static_cast<long long>(a.peak_objects));
  }
}

void AblationReorder() {
  std::printf("\nAblation — K-slack reorder front-end (A-Seq, 120k events)\n");
  std::printf("  %-10s %14s %12s\n", "slack", "aseq ms/sl", "objs");
  auto stream = MakeStockStream(120000, 6);
  CompiledQuery cq = CompileText(
      *stream, "PATTERN SEQ(DELL, IPIX, AMAT) AGG COUNT WITHIN 1s");
  auto raw = CreateAseqEngine(cq);
  Measured r = Measure(raw->get(), stream->events);
  std::printf("  %-10s %14.6f %12lld\n", "raw", r.ms_per_slide,
              static_cast<long long>(r.peak_objects));
  for (Timestamp slack : {10, 100, 1000}) {
    ReorderingEngine engine(std::move(CreateAseqEngine(cq)).value(), slack);
    Measured m = Measure(&engine, stream->events);
    // The drain of the reorder buffer is part of the run.
    std::vector<Output> tail;
    StopWatch watch;
    engine.Finish(&tail);
    m.ms_per_slide += watch.ElapsedSeconds() * 1e3 /
                      static_cast<double>(stream->events.size());
    std::printf("  %-10s %14.6f %12lld\n",
                (std::to_string(slack) + "ms").c_str(), m.ms_per_slide,
                static_cast<long long>(engine.stats().objects.peak()));
  }
}

void AblationBatchSize() {
  std::printf("\nAblation — OnBatch granularity (HPC: equivalence query, "
              "30k traders, win=100s; SEM/stack: l=3, win=1s)\n");
  std::printf("  %-6s %14s %14s %14s\n", "batch", "hpc ms/sl", "sem ms/sl",
              "stack ms/sl");
  auto hpc_stream = MakeStockStream(ScaledEvents(200000), 2, 42, 30000);
  auto stream = MakeStockStream(ScaledEvents(20000), 6);
  CompiledQuery hpc = CompileText(
      *hpc_stream,
      "PATTERN SEQ(DELL, IPIX, AMAT) "
      "WHERE DELL.traderId = IPIX.traderId = AMAT.traderId "
      "AGG COUNT WITHIN 100s");
  CompiledQuery sem = Compile(*stream, MakeTickerQuery(3, 1000));
  for (size_t batch = 1; batch <= 4096; batch *= 4) {
    auto hpc_engine = CreateAseqEngine(hpc);
    auto sem_engine = CreateAseqEngine(sem);
    StackEngine stack(sem);
    std::printf(
        "  %-6zu %14.6f %14.6f %14.6f\n", batch,
        Measure(hpc_engine->get(), hpc_stream->events, batch).ms_per_slide,
        Measure(sem_engine->get(), stream->events, batch).ms_per_slide,
        Measure(&stack, stream->events, batch).ms_per_slide);
  }
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main() {
  using namespace aseq::bench;
  std::printf("A-Seq reproduction report (%s)\n",
              FullScale() ? "ASEQ_BENCH_FULL: 120k-event streams"
                          : "scaled-down streams");
  Report report;
  Fig12(&report);
  Fig13(&report);
  Fig14a(&report);
  Fig14b(&report);
  Fig15(&report);
  Fig16Prefix(&report);
  Fig16CC(&report);
  AblationAggregates();
  AblationPartitions();
  AblationReorder();
  AblationBatchSize();
  std::printf("\n%d/%d shape checks passed\n", report.checks - report.failures,
              report.checks);
  return report.failures == 0 ? 0 : 1;
}
