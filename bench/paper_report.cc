// paper_report: one-shot reproduction check for every figure in Sec. 6.
//
// Runs a scaled-down version of each experiment, prints the paper-style
// comparison tables, and *asserts* the qualitative shapes the paper
// reports (who wins, growth direction, order-of-magnitude gaps). Exits
// non-zero if any shape expectation fails — a regression gate for the
// whole reproduction.
//
//   ./build/bench/paper_report
//
// The per-figure binaries (bench_fig*) measure the same setups at full
// scale with google-benchmark; this binary favors fast, robust checks.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "baseline/ecube_engine.h"
#include "baseline/stack_engine.h"
#include "bench/bench_util.h"
#include "engine/runtime.h"
#include "exec/serial_executor.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "multi/nonshared_engine.h"
#include "multi/pretree_engine.h"
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

// All measurements run on the batched pipeline (default batch size), the
// same path the CLI and the benchmark harnesses use, with the output
// scratch reused across measurements.
template <class EngineT>
Measured Measure(EngineT* engine, const std::vector<Event>& events) {
  static SerialBuffers buffers;
  RunOptions options;
  options.collect_outputs = false;
  auto r = exec::RunSerial(options, events, engine, &buffers);
  return {r.MillisPerSlide(), engine->stats().objects.peak()};
}

CompiledQuery CompileTicker(const BenchStream& stream, size_t length,
                            Timestamp window_ms) {
  Schema schema = stream.schema;
  Analyzer analyzer(&schema);
  return std::move(analyzer.Analyze(MakeTickerQuery(length, window_ms)))
      .value();
}

// ---------------------------------------------------------------------------

void Fig12(Report* report) {
  std::printf("\nFig. 12 — time & memory vs pattern length (win=1000ms)\n");
  std::printf("  %-4s %14s %14s %10s %12s %12s\n", "l", "stack ms/sl",
              "aseq ms/sl", "speedup", "stack objs", "aseq objs");
  auto stream = MakeStockStream(3000, 8);
  std::vector<double> stack_ms, aseq_ms;
  std::vector<int64_t> stack_obj, aseq_obj;
  for (size_t l = 2; l <= 5; ++l) {
    CompiledQuery cq = CompileTicker(*stream, l, 1000);
    StackEngine stack(cq);
    Measured s = Measure(&stack, stream->events);
    auto engine = CreateAseqEngine(cq);
    Measured a = Measure(engine->get(), stream->events);
    stack_ms.push_back(s.ms_per_slide);
    aseq_ms.push_back(a.ms_per_slide);
    stack_obj.push_back(s.peak_objects);
    aseq_obj.push_back(a.peak_objects);
    std::printf("  %-4zu %14.6f %14.6f %9.0fx %12lld %12lld\n", l,
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
  auto stream = MakeStockStream(3000, 8);
  std::vector<double> stack_ms, aseq_ms;
  std::vector<int64_t> aseq_obj;
  for (Timestamp win : {100, 400, 700, 1000}) {
    CompiledQuery cq = CompileTicker(*stream, 3, win);
    StackEngine stack(cq);
    Measured s = Measure(&stack, stream->events);
    auto engine = CreateAseqEngine(cq);
    Measured a = Measure(engine->get(), stream->events);
    stack_ms.push_back(s.ms_per_slide);
    aseq_ms.push_back(a.ms_per_slide);
    aseq_obj.push_back(a.peak_objects);
    std::printf("  %-6lld %14.6f %14.6f %12lld %12lld\n",
                static_cast<long long>(win), s.ms_per_slide, a.ms_per_slide,
                static_cast<long long>(s.peak_objects),
                static_cast<long long>(a.peak_objects));
  }
  report->Check(stack_ms[3] > 8 * stack_ms[0],
                "baseline degrades steeply with window (>8x, 100->1000ms)");
  report->Check(aseq_ms[3] < 8 * aseq_ms[0],
                "A-Seq grows mildly with window (<8x)");
  report->Check(aseq_obj[3] > aseq_obj[0],
                "A-Seq state is linear in live starts (grows with window)");
  report->Check(stack_ms[3] > 20 * aseq_ms[3],
                "baseline >20x slower at win=1000ms");
}

void Fig14a(Report* report) {
  std::printf("\nFig. 14(a) — A-Seq scalability (l=6..10, win=2000ms)\n");
  std::printf("  %-4s %14s %12s\n", "l", "aseq ms/sl", "objs");
  auto stream = MakeStockStream(30000, 6);
  std::vector<double> ms;
  for (size_t l = 6; l <= 10; l += 2) {
    Schema schema = stream->schema;
    Analyzer analyzer(&schema);
    auto cq = analyzer.Analyze(MakeTickerQuery(l, 2000));
    auto engine = CreateAseqEngine(*cq);
    Measured a = Measure(engine->get(), stream->events);
    ms.push_back(a.ms_per_slide);
    std::printf("  %-4zu %14.6f %12lld\n", l, a.ms_per_slide,
                static_cast<long long>(a.peak_objects));
  }
  report->Check(ms[2] < 3 * ms[0],
                "no significant degradation up to l=10 (<3x over l=6)");
}

void Fig14b(Report* report) {
  std::printf("\nFig. 14(b) — negation push-down vs post-filter\n");
  auto stream = MakeStockStream(3000, 8);
  Schema schema = stream->schema;
  Analyzer analyzer(&schema);
  Query q1;
  q1.pattern = Pattern::FromNames({"DELL", "IPIX", "AMAT"});
  q1.agg = AggregateSpec::Count();
  q1.window_ms = 1000;
  Query q2 = q1;
  q2.pattern = Pattern::FromNames({"DELL", "IPIX", "!QQQ", "AMAT"});
  CompiledQuery c1 = std::move(analyzer.Analyze(q1)).value();
  CompiledQuery c2 = std::move(analyzer.Analyze(q2)).value();

  auto a1 = CreateAseqEngine(c1);
  auto a2 = CreateAseqEngine(c2);
  StackEngine s1(c1), s2(c2);
  double am1 = Measure(a1->get(), stream->events).ms_per_slide;
  double am2 = Measure(a2->get(), stream->events).ms_per_slide;
  double sm1 = Measure(&s1, stream->events).ms_per_slide;
  double sm2 = Measure(&s2, stream->events).ms_per_slide;
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
  auto mb = MakeMultiBench(workload, 3000, 12);
  std::vector<EventTypeId> shared;
  for (const std::string& name : workload.shared_types) {
    shared.push_back(*mb->schema.FindEventType(name));
  }
  auto sase = NonSharedEngine::CreateStackBased(mb->queries);
  auto ecube = EcubeEngine::Create(mb->queries, shared);
  auto aseq = NonSharedEngine::CreateAseq(mb->queries);
  auto cc = ChopConnectEngine::Create(mb->queries, PlanChopConnect(mb->queries));
  double sase_ms = Measure(sase.get(), mb->events).ms_per_slide;
  double ecube_ms = Measure(ecube->get(), mb->events).ms_per_slide;
  double aseq_ms = Measure(aseq->get(), mb->events).ms_per_slide;
  double cc_ms = Measure(cc->get(), mb->events).ms_per_slide;
  std::printf("  %-12s %14.6f ms/slide\n", "SASE", sase_ms);
  std::printf("  %-12s %14.6f\n", "ECube", ecube_ms);
  std::printf("  %-12s %14.6f\n", "A-Seq", aseq_ms);
  std::printf("  %-12s %14.6f\n", "ChopConnect", cc_ms);
  report->Check(ecube_ms < sase_ms, "ECube beats SASE by sharing construction");
  report->Check(ecube_ms > 30 * aseq_ms,
                "ECube still >30x slower than A-Seq (match materialization)");
  report->Check(cc_ms < 3 * aseq_ms && aseq_ms < 3 * cc_ms,
                "A-Seq and Chop-Connect lines overlap (within 3x)");
}

void Fig16Prefix(Report* report) {
  std::printf("\nFig. 16(a)/(b) — prefix sharing\n");
  std::printf("  %-22s %12s %12s %8s\n", "workload", "nonshare", "pretree",
              "gain");
  double gain_small = 0, gain_large = 0;
  for (auto [k, prefix, label] :
       {std::tuple<size_t, size_t, const char*>{3, 2, "3 queries, prefix 2"},
        std::tuple<size_t, size_t, const char*>{6, 5, "6 queries, prefix 5"}}) {
    SharedWorkload workload =
        MakePrefixSharedWorkload(k, prefix, prefix + 2, 2000);
    auto mb = MakeMultiBench(workload, 8000, 4);
    auto ns = NonSharedEngine::CreateAseq(mb->queries);
    auto pt = PreTreeEngine::Create(mb->queries);
    double ns_ms = Measure(ns->get(), mb->events).ms_per_slide;
    double pt_ms = Measure(pt->get(), mb->events).ms_per_slide;
    double gain = ns_ms / pt_ms;
    (prefix == 2 ? gain_small : gain_large) = gain;
    std::printf("  %-22s %12.6f %12.6f %7.2fx\n", label, ns_ms, pt_ms, gain);
  }
  report->Check(gain_small > 1.3, "prefix sharing wins on the small workload");
  report->Check(gain_large > gain_small,
                "gain grows with more sharing (queries x prefix length)");
}

void Fig16CC(Report* report) {
  std::printf("\nFig. 16(c)/(d) — Chop-Connect sharing\n");
  std::printf("  %-22s %12s %12s %8s\n", "workload", "nonshare", "cc",
              "gain");
  double gain_short = 0, gain_long = 0;
  for (auto [shared, label] :
       {std::pair<size_t, const char*>{2, "3 queries, shared 2"},
        std::pair<size_t, const char*>{6, "3 queries, shared 6"}}) {
    SharedWorkload workload =
        MakeSubstringSharedWorkload(3, 2, shared, 0, 2000);
    auto mb = MakeMultiBench(workload, 8000, 4);
    auto ns = NonSharedEngine::CreateAseq(mb->queries);
    auto cc =
        ChopConnectEngine::Create(mb->queries, PlanChopConnect(mb->queries));
    double ns_ms = Measure(ns->get(), mb->events).ms_per_slide;
    double cc_ms = Measure(cc->get(), mb->events).ms_per_slide;
    double gain = ns_ms / cc_ms;
    (shared == 2 ? gain_short : gain_long) = gain;
    std::printf("  %-22s %12.6f %12.6f %7.2fx\n", label, ns_ms, cc_ms, gain);
  }
  report->Check(gain_long > gain_short,
                "CC gain grows with the shared-substring length");
  report->Check(gain_long > 1.1, "CC wins for long shared substrings");
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main() {
  using namespace aseq::bench;
  std::printf("A-Seq reproduction report (scaled-down; see bench_fig* for "
              "full-scale runs)\n");
  Report report;
  Fig12(&report);
  Fig13(&report);
  Fig14a(&report);
  Fig14b(&report);
  Fig15(&report);
  Fig16Prefix(&report);
  Fig16CC(&report);
  std::printf("\n%d/%d shape checks passed\n", report.checks - report.failures,
              report.checks);
  return report.failures == 0 ? 0 : 1;
}
