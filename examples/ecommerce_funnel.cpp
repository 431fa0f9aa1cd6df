// Application II of the paper (Sec. 1): e-commerce click analytics.
//
//   PATTERN SEQ(Kindle, KindleCase, Stylus)
//   WHERE   Kindle.userId = KindleCase.userId = Stylus.userId
//   AGG COUNT WITHIN 1hour
//
// "How many users buy a Kindle, then a Kindle case, then a stylus within
// one hour?" The equivalence predicate partitions the stream per user
// (Hashed Prefix Counter, Sec. 3.4). For contrast, the same query also runs
// on the stack-based two-step baseline — same answers, orders of magnitude
// more work.

#include <cstdio>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "exec/serial_executor.h"
#include "query/analyzer.h"
#include "stream/generator.h"

using namespace aseq;

int main() {
  Schema schema;

  // Purchase stream: buys of three products plus unrelated noise clicks,
  // stamped with the purchasing user.
  StreamConfig config;
  config.seed = 7;
  config.num_events = 30000;
  config.min_gap_ms = 0;
  config.max_gap_ms = 2000;  // ~1 purchase/second across the site
  config.types = {{"Kindle", 1.0},
                  {"KindleCase", 1.0},
                  {"Stylus", 1.0},
                  {"Browse", 12.0}};
  config.attrs.push_back(AttrSpec::IntUniform("userId", 0, 199));
  config.attrs.push_back(AttrSpec::DoubleUniform("price", 5.0, 120.0));
  StreamGenerator gen(config, &schema);
  std::vector<Event> events = gen.Generate();
  AssignSeqNums(&events);

  Analyzer analyzer(&schema);
  auto query = analyzer.AnalyzeText(
      "PATTERN SEQ(Kindle, KindleCase, Stylus) "
      "WHERE Kindle.userId = KindleCase.userId = Stylus.userId "
      "AGG COUNT WITHIN 1hour");
  if (!query.ok()) {
    std::fprintf(stderr, "%s\n", query.status().ToString().c_str());
    return 1;
  }

  auto aseq_engine = CreateAseqEngine(*query);
  RunResult aseq_run =
      exec::RunSerial(RunOptions(), events, aseq_engine->get());

  StackEngine stack_engine(*query);
  RunResult stack_run = exec::RunSerial(RunOptions(), events, &stack_engine);

  // Both engines deliver a result on every Stylus purchase; show the last
  // few and confirm full agreement.
  size_t disagreements = 0;
  for (size_t i = 0; i < aseq_run.outputs.size(); ++i) {
    if (!aseq_run.outputs[i].value.Equals(stack_run.outputs[i].value)) {
      ++disagreements;
    }
  }
  std::printf("funnel completions within the last hour (latest results):\n");
  size_t shown = 0;
  for (size_t i = aseq_run.outputs.size(); i > 0 && shown < 5; --i, ++shown) {
    const Output& output = aseq_run.outputs[i - 1];
    std::printf("  t=%-9lld count=%s\n", static_cast<long long>(output.ts),
                output.value.ToString().c_str());
  }

  std::printf("\n%-22s %12s %14s\n", "engine", "ms/slide", "peak objects");
  std::printf("%-22s %12.5f %14lld\n", aseq_engine->get()->name().c_str(),
              aseq_run.MillisPerSlide(),
              static_cast<long long>(
                  aseq_engine->get()->stats().objects.peak()));
  std::printf("%-22s %12.5f %14lld\n", stack_engine.name().c_str(),
              stack_run.MillisPerSlide(),
              static_cast<long long>(stack_engine.stats().objects.peak()));
  std::printf("\noutputs: %zu, disagreements: %zu\n",
              aseq_run.outputs.size(), disagreements);
  return disagreements == 0 ? 0 : 1;
}
