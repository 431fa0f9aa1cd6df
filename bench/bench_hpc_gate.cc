// HPC gate: the Hashed Prefix Counter engine's admission layer and its
// partition store, each timed against a reference in the same process.
//
// A workload is a pair of single-thread runs over deterministic stock
// streams: the path under test and a reference that does the same work
// except the part the path gates. An engine pass is a fresh engine over the
// serial core (exec::RunSerial, batches borrowed straight out of a
// VectorSource), timed on the process CPU clock; path and reference
// passes alternate (MeasurePaired, bench_util.h), and the gate bounds the
// median of the per-pair time ratios path / reference.
//
//   pred_*      compiled admission (src/plan/): each query behind a wall of
//               local predicates against the same query without its WHERE
//               clause, on one 2,000-trader stream. The predicates come
//               near-always-true first, so a rejected event pays for the
//               whole term walk; the ratio is admission's cost over the
//               unfiltered engine's.
//                 pred_grouped_count  GROUP BY COUNT
//                 pred_grouped_sum    plus a SUM carrier to validate + load
//                 pred_mixed_fallback double literals against int64 attrs:
//                                     every term takes the generic EvalCmp
//   grouped_*,  the flat partition store (src/container/, src/state/): each
//   equiv_count query on a 10,000-trader stream, where every probe is a
//               dependent random lookup into a store that grows to ~6,000
//               live partitions (the paper's Fig. 14 regime), against the
//               same query run over a store of plain std containers
//               (Side::PlainStorePass): the same counters, with a
//               std::unordered_map index into a std::vector in place of
//               interner, slot index and slab.
//                 grouped_count  GROUP BY COUNT, the O(1)-trigger hot path
//                 equiv_count    equivalence-only partitioning
//                 grouped_sum    GROUP BY SUM: the same window-clock
//                                expiry, and a trigger reads its group's
//                                partition total
//
// The bounds sit above the ratios this code reads (EXPERIMENTS.md) and
// below what a ~25% slowdown of the gated path reads.

#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "aseq/aseq_engine.h"
#include "aseq/counter_set.h"
#include "bench/bench_util.h"
#include "query/analyzer.h"

namespace aseq {
namespace bench {
namespace {

constexpr size_t kEvents = 60000;

struct Workload {
  const char* name;
  const char* path;       // the query under test
  const char* reference;  // the query it is timed against; nullptr: the
                          // path's query run by PlainStorePass
  size_t traders;
  double bound;  // ceiling on the median time ratio path / reference
};

const Workload kWorkloads[] = {
    {"pred_grouped_count",
     "PATTERN SEQ(DELL, IPIX) "
     "WHERE DELL.price > 60.0 AND DELL.volume >= 200 AND "
     "DELL.volume <= 9800 AND DELL.volume <= 9500 AND "
     "DELL.volume >= 9000 AND IPIX.price > 60.0 AND "
     "IPIX.volume >= 200 AND IPIX.volume <= 9800 AND "
     "IPIX.volume >= 9000 "
     "GROUP BY traderId AGG COUNT WITHIN 2s",
     "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 2s", 2000,
     0.55},
    {"pred_grouped_sum",
     "PATTERN SEQ(DELL, IPIX) "
     "WHERE DELL.price > 60.0 AND DELL.volume >= 6000 AND "
     "IPIX.price > 60.0 AND IPIX.volume >= 6000 "
     "GROUP BY traderId AGG SUM(IPIX.volume) WITHIN 2s",
     "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
     "WITHIN 2s",
     2000, 0.76},
    {"pred_mixed_fallback",
     "PATTERN SEQ(DELL, IPIX) "
     "WHERE DELL.volume >= 2000.5 AND DELL.volume <= 9000.5 AND "
     "IPIX.volume >= 7000.5 "
     "GROUP BY traderId AGG COUNT WITHIN 2s",
     "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 2s", 2000,
     0.95},
    {"grouped_count",
     "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG COUNT WITHIN 100s",
     nullptr, 10000, 1.36},
    {"equiv_count",
     "PATTERN SEQ(DELL, IPIX, AMAT) "
     "WHERE DELL.traderId = IPIX.traderId = AMAT.traderId "
     "AGG COUNT WITHIN 100s",
     nullptr, 10000, 1.45},
    {"grouped_sum",
     "PATTERN SEQ(DELL, IPIX) GROUP BY traderId AGG SUM(IPIX.volume) "
     "WITHIN 100s",
     nullptr, 10000, 1.33},
};

/// The stock stream with `traders` traders, built once per process.
const BenchStream& StreamOf(size_t traders) {
  static std::map<size_t, std::unique_ptr<BenchStream>> streams;
  auto& stream = streams[traders];
  if (stream == nullptr) {
    stream = MakeStockStream(kEvents, /*max_gap_ms=*/2, /*seed=*/42, traders);
  }
  return *stream;
}

/// One side of a pair: a compiled query over one stream, run by the engine
/// or by PlainStorePass.
struct Side {
  const BenchStream* stream = nullptr;
  CompiledQuery query;
  std::unique_ptr<VectorSource> source;
  bool plain_store = false;  // run by PlainStorePass, not the engine
  uint64_t outputs = 0;  // of the last pass

  /// One pass over the whole stream, in CPU seconds.
  double Pass() { return plain_store ? PlainStorePass() : EnginePass(); }

  /// A fresh engine over the serial core.
  double EnginePass() {
    RunOptions options;
    options.collect_outputs = false;
    auto engine = std::move(CreateAseqEngine(query)).value();
    source->Reset();
    const double cpu0 = CpuSeconds();
    exec::RunSerial(options, source.get(), engine.get(), &SharedBuffers());
    const double seconds = CpuSeconds() - cpu0;
    outputs = engine->stats().outputs;
    return seconds;
  }

  /// The partition-store reference: the path's query without the engine,
  /// over a store of plain std containers. A std::unordered_map (the node
  /// map the flat store replaced) maps the trader Value to a position in a
  /// std::vector of the engine's own CounterSets. A start upserts its
  /// partition, an update probes it, and a trigger reads its partition's
  /// total. The counters are shared with the engine and the store is not,
  /// so a slower store probe moves only the path side of the ratio.
  double PlainStorePass() {
    const std::vector<EventTypeId>& types = query.positive_types();
    const size_t length = types.size();
    const AggFunc func = query.agg().func;
    const size_t carrier = static_cast<size_t>(query.agg_positive_pos() + 1);
    const AttrId trader = stream->schema.FindAttribute("traderId").value();
    std::unordered_map<Value, uint32_t, ValueHash> index;
    std::vector<CounterSet> parts;
    AggAccum total;
    outputs = 0;
    const double cpu0 = CpuSeconds();
    for (const Event& e : stream->events) {
      const size_t pos =
          std::find(types.begin(), types.end(), e.type()) - types.begin() + 1;
      if (pos > length) continue;
      const double value =
          pos == carrier ? e.GetAttr(query.agg().attr).ToDouble() : 0;
      const Value& key = e.GetAttr(trader);
      auto it = index.find(key);
      if (pos == 1 && it == index.end()) {
        it = index.emplace(key, static_cast<uint32_t>(parts.size())).first;
        parts.emplace_back(length, func, carrier, query.window_ms(), nullptr);
      }
      CounterSet* part = it != index.end() ? &parts[it->second] : nullptr;
      if (part != nullptr) {
        part->Purge(e.ts());
        if (pos == 1) {
          part->OnStart(e, value);
        } else {
          part->ApplyUpdate(pos, value);
        }
      }
      if (pos < length) continue;
      ++outputs;
      if (part != nullptr) total.Merge(part->Total(), func);
    }
    const double seconds = CpuSeconds() - cpu0;
    if (total.count == 1) std::fprintf(stderr, "impossible\n");  // keep totals
    return seconds;
  }
};

std::unique_ptr<Side> MakeSide(const char* text, size_t traders,
                               bool plain_store) {
  auto side = std::make_unique<Side>();
  side->stream = &StreamOf(traders);
  Schema schema = side->stream->schema;  // analysis must not mutate it
  Analyzer analyzer(&schema);
  side->query = std::move(analyzer.AnalyzeText(text)).value();
  side->source = std::make_unique<VectorSource>(side->stream->events);
  side->plain_store = plain_store;
  return side;
}

}  // namespace
}  // namespace bench
}  // namespace aseq

int main(int argc, char** argv) {
  using namespace aseq::bench;
  const GateFlags flags = ParseGateFlags(argc, argv, /*default_reps=*/48);
  std::printf("HPC gate: events=%zu pairs=%d warmup=%d\n", kEvents,
              flags.reps, flags.warmup);
  // Pin glibc's mmap threshold at its default (128 KiB). Left dynamic, it
  // rises whenever a large block is freed, so where an engine's arrays
  // land, and what a pass costs, depended on the workloads that ran before:
  // grouped_sum once read half again as high after the other workloads as
  // it did alone.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  bool ok = true;
  for (const Workload& w : kWorkloads) {
    auto path = MakeSide(w.path, w.traders, /*plain_store=*/false);
    auto reference =
        w.reference != nullptr
            ? MakeSide(w.reference, w.traders, /*plain_store=*/false)
            : MakeSide(w.path, w.traders, /*plain_store=*/true);
    const PairedRun run = MeasurePaired(
        {[&] { return path->Pass(); }, [&] { return reference->Pass(); }},
        flags.warmup, flags.reps);
    std::printf("  %-20s path %7.3f ms (%llu outputs)  reference %7.3f ms "
                "(%llu outputs)\n",
                w.name, run.MedianSeconds(0) * 1e3,
                static_cast<unsigned long long>(path->outputs),
                run.MedianSeconds(1) * 1e3,
                static_cast<unsigned long long>(reference->outputs));
    ok = CheckRatio(std::string(w.name) + " path/reference", run.Ratio(0, 1),
                    w.bound, /*floor=*/false) &&
         ok;
  }
  return ok ? 0 : 1;
}
