// Helper tool of the end-to-end benchmark (perfbench/run.py).
//
//   perfbench_tool gen-substr --events N --seed S --out TRACE
//       --queries-out FILE
//       The substr20_cc input: MakeSubstringSharedWorkload(20, 2, 3, 2,
//       2000ms) and a MakeWorkloadStreamConfig(workload, S, N, 0, 2)
//       stream. Writes the trace and the queries as query text, one per
//       line (the `aseq workload --queries` format).
//   perfbench_tool layers --mode cli|probe --spans FILE --run-id ID
//       (--query TEXT | --queries FILE) --trace FILE [--shards N]
//       `cli` repeats the CLI's `run` path (--query) or `workload
//       --strategy cc` path (--queries) call by call: compile, read,
//       parse, policy build, RunEvents, result lines, teardown. It puts a
//       span around each layer call and prints the result lines the CLI
//       prints. `probe` runs isolated admission and engine passes over the
//       parsed trace. Both use the CLI's default batch size. Spans stay in
//       memory and are written as JSON lines when the run ends, followed by
//       one "counts" line.

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "aseq/aseq_engine.h"
#include "cli/flags.h"
#include "common/string_util.h"
#include "container/key_interner.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "exec/multi_execution_policy.h"
#include "multi/chop_connect_engine.h"
#include "multi/chop_plan.h"
#include "plan/admission.h"
#include "query/analyzer.h"
#include "stream/generator.h"
#include "stream/trace_io.h"
#include "stream/workload.h"

namespace aseq {
namespace {

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Resident set size of this process in bytes (Linux /proc; 0 elsewhere).
int64_t RssBytes() {
  std::ifstream statm("/proc/self/statm");
  int64_t pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return 0;
  return resident * static_cast<int64_t>(sysconf(_SC_PAGESIZE));
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// In-memory span recorder: one span per layer call, nested by open order.
class Tracer {
 public:
  explicit Tracer(bool probe) : probe_(probe) {}

  class Scope {
   public:
    Scope(Tracer* tracer, int id) : tracer_(tracer), id_(id) {}
    ~Scope() { tracer_->End(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int id_;
  };

  /// Opens a span as a child of the innermost open one; Scope closes it.
  int Begin(std::string name) {
    spans_.push_back({std::move(name), NowNanos(), 0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  void End(int id) {
    spans_[id].end_ns = NowNanos();
    current_ = spans_[id].parent;
  }
  Scope Open(std::string name) { return Scope(this, Begin(std::move(name))); }

  /// Counts recorded at the layer boundaries, written after the spans.
  void Count(const std::string& name, double value) {
    counts_ += (counts_.empty() ? "" : ",") + JsonString(name) + ":" +
               FormatDouble(value);
  }
  void Note(const std::string& name, const std::string& value) {
    counts_ += (counts_.empty() ? "" : ",") + JsonString(name) + ":" +
               JsonString(value);
  }

  bool Write(const std::string& path, const std::string& run_id) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      out << "{\"run\":" << JsonString(run_id) << ",\"id\":" << i
          << ",\"name\":" << JsonString(s.name) << ",\"parent\":" << s.parent
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"probe\":" << (probe_ ? "true" : "false") << "}\n";
    }
    out << "{\"run\":" << JsonString(run_id) << ",\"counts\":{" << counts_
        << "}}\n";
    return static_cast<bool>(out);
  }

 private:
  struct SpanRecord {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };

  static std::string FormatDouble(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  bool probe_;
  std::vector<SpanRecord> spans_;
  std::string counts_;
  int current_ = -1;
};

int Fail(const Status& status) {
  std::cerr << status.ToString() << "\n";
  return 1;
}

Result<size_t> PositiveFlag(const FlagSet& flags, const std::string& name,
                            int64_t def) {
  ASEQ_ASSIGN_OR_RETURN(int64_t v, flags.GetInt(name, def));
  if (v <= 0) return Status::InvalidArgument("--" + name + " expects N > 0");
  return static_cast<size_t>(v);
}

int CmdGenSubstr(const FlagSet& flags) {
  auto events = PositiveFlag(flags, "events", 0);
  auto seed = flags.GetInt("seed", 42);
  if (!events.ok()) return Fail(events.status());
  if (!seed.ok()) return Fail(seed.status());
  SharedWorkload workload = MakeSubstringSharedWorkload(
      /*num_queries=*/20, /*prefix_len=*/2, /*shared_len=*/3, /*tail_len=*/2,
      /*window_ms=*/2000);
  Schema schema;
  StreamGenerator generator(
      MakeWorkloadStreamConfig(workload, static_cast<uint64_t>(*seed), *events,
                               /*min_gap_ms=*/0, /*max_gap_ms=*/2),
      &schema);
  std::vector<Event> stream = generator.Generate();
  AssignSeqNums(&stream);
  Status st = WriteTraceFile(flags.GetString("out"), stream, schema);
  if (!st.ok()) return Fail(st);
  std::ofstream queries(flags.GetString("queries-out"));
  for (const Query& q : workload.queries) queries << q.ToString() << "\n";
  return queries ? 0 : Fail(Status::IoError("cannot write --queries-out"));
}

/// The query texts of a run: --query, or the non-comment lines of
/// --queries (the `aseq workload` file format).
Result<std::vector<std::string>> QueryTexts(const FlagSet& flags) {
  if (flags.Has("query")) return std::vector<std::string>{flags.GetString("query")};
  std::ifstream in(flags.GetString("queries"));
  if (!in) return Status::IoError("cannot open --queries file");
  std::vector<std::string> texts;
  std::string line;
  while (std::getline(in, line)) {
    std::string_view trimmed = TrimWhitespace(line);
    if (!trimmed.empty() && trimmed[0] != '#') texts.emplace_back(trimmed);
  }
  return texts;
}

Result<std::string> ReadBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open trace file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The `aseq workload --strategy cc` engine factory.
exec::MultiEngineFactory ChopConnectFactory(
    const std::vector<CompiledQuery>& queries) {
  return [&queries]() -> Result<std::unique_ptr<MultiQueryEngine>> {
    ASEQ_ASSIGN_OR_RETURN(
        auto e, ChopConnectEngine::Create(queries, PlanChopConnect(queries)));
    return std::unique_ptr<MultiQueryEngine>(std::move(e));
  };
}

/// The CLI's per-result line (`aseq run`).
void PrintOutput(std::ostream& out, const Output& output) {
  out << "t=" << output.ts;
  if (output.group.has_value()) {
    out << " [" << output.group->ToString() << "]";
  }
  out << " -> " << output.value.ToString() << "\n";
}

void RecordShardCounts(Tracer* tracer, const RunResultBase& result,
                       const EngineStats& stats,
                       std::span<const double> busy) {
  tracer->Count("num_shards", static_cast<double>(result.num_shards));
  tracer->Count("exec_ms_per_slide", result.MillisPerSlide());
  tracer->Count("pub_batches", static_cast<double>(stats.pub_batches));
  tracer->Count("ring_full_waits", static_cast<double>(stats.ring_full_waits));
  tracer->Count("ring_spins", static_cast<double>(stats.ring_spins));
  std::string list;
  for (double b : busy) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.9f", list.empty() ? "" : " ", b);
    list += buf;
  }
  tracer->Note("shard_busy_s", list);
}

/// The CLI's steps after building its policy: RunEvents, the result lines,
/// then freeing the events and tearing the policy down, one span each.
/// `emit` prints the result lines and returns how many it printed.
template <typename Policy, typename Emit>
void RunAndEmit(Tracer* tracer, std::unique_ptr<Policy> policy,
                std::vector<Event>* events, const Emit& emit) {
  decltype(policy->RunEvents(*events)) result;
  {
    auto scope = tracer->Open("exec.run");
    result = policy->RunEvents(*events);
  }
  RecordShardCounts(tracer, result, policy->stats(),
                    policy->shard_busy_seconds());
  {
    auto scope = tracer->Open("emit.format");
    const size_t lines = emit(result);
    std::cout.flush();
    tracer->Count("emit_lines", static_cast<double>(lines));
  }
  {
    auto scope = tracer->Open("stream.free");
    std::vector<Event>().swap(*events);
  }
  auto scope = tracer->Open("exec.teardown");
  result = {};
  policy.reset();
}

/// Feeds the events to `engine` in batches of `batch_size`; returns the
/// number of outputs.
template <typename Engine, typename Out>
uint64_t DriveBatches(Engine* engine, const std::vector<Event>& events,
                      size_t batch_size, std::vector<Out>* out) {
  uint64_t outputs = 0;
  for (size_t off = 0; off < events.size(); off += batch_size) {
    engine->OnBatch({events.data() + off,
                     std::min(batch_size, events.size() - off)},
                    out);
    outputs += out->size();
    out->clear();
  }
  return outputs;
}

/// `layers --mode cli|probe`. Both modes compile, read and parse first; the
/// cli mode then follows the CLI, the probe mode runs the isolated passes.
int CmdLayers(const FlagSet& flags) {
  const std::string mode = flags.GetString("mode", "cli");
  if (mode != "cli" && mode != "probe") {
    return Fail(Status::InvalidArgument("--mode must be cli or probe"));
  }
  const bool probe = mode == "probe";
  const bool multi = flags.Has("queries");
  RunOptions options;
  auto shards = PositiveFlag(flags, "shards", 1);
  if (!shards.ok()) return Fail(shards.status());
  options.num_shards = *shards;

  Tracer tracer(probe);
  const int root = tracer.Begin(probe ? "probe" : "cli");
  Schema schema;
  std::vector<CompiledQuery> queries;
  {
    auto scope = tracer.Open("query.compile");
    auto texts = QueryTexts(flags);
    if (!texts.ok()) return Fail(texts.status());
    Analyzer analyzer(&schema);
    for (const std::string& text : *texts) {
      auto cq = analyzer.AnalyzeText(text);
      if (!cq.ok()) return Fail(cq.status());
      queries.push_back(std::move(cq).value());
    }
  }
  if (queries.empty()) return Fail(Status::InvalidArgument("no queries"));
  std::string bytes;
  {
    auto scope = tracer.Open("stream.read");
    auto read = ReadBytes(flags.GetString("trace"));
    if (!read.ok()) return Fail(read.status());
    bytes = std::move(read).value();
  }
  std::vector<Event> events;
  {
    // ReadTraceFile = read + ParseTrace; its byte buffer dies on return.
    auto scope = tracer.Open("stream.parse");
    const int64_t rss_before = RssBytes();
    auto parsed = ParseTrace(bytes, &schema);
    if (!parsed.ok()) return Fail(parsed.status());
    events = std::move(parsed).value();
    AssignSeqNums(&events);
    tracer.Count("rss_parse_growth_bytes",
                 static_cast<double>(RssBytes() - rss_before));
    tracer.Count("trace_bytes", static_cast<double>(bytes.size()));
    std::string().swap(bytes);
  }
  const size_t n = events.size();
  tracer.Count("events", static_cast<double>(n));

  if (probe) {
    {
      auto scope = tracer.Open("plan.admit");
      std::vector<plan::AdmissionProgram> programs;
      std::vector<container::KeyInterner> interners(queries.size());
      for (const CompiledQuery& q : queries) programs.emplace_back(q);
      plan::BatchPrefilter prefilter;
      plan::BatchAdmitter admitter;
      EngineStats stats;
      uint64_t admitted = 0;
      for (size_t off = 0; off < n; off += options.batch_size) {
        std::span<const Event> chunk(events.data() + off,
                                     std::min(options.batch_size, n - off));
        for (size_t p = 0; p < programs.size(); ++p) {
          prefilter.Scan(programs[p], chunk);
          admitter.AdmitBatch(
              programs[p], chunk,
              programs[p].partitioned() ? &interners[p] : nullptr, &stats,
              &prefilter);
          admitted += admitter.records().size();
        }
      }
      tracer.Count("admitted_records", static_cast<double>(admitted));
    }
    auto scope = tracer.Open("engine.batch");
    uint64_t outputs = 0;
    int64_t peak = 0;
    if (multi) {
      auto engine = ChopConnectFactory(queries)();
      if (!engine.ok()) return Fail(engine.status());
      std::vector<MultiOutput> out;
      outputs = DriveBatches(engine->get(), events, options.batch_size, &out);
      peak = (*engine)->stats().objects.peak();
    } else {
      auto engine = CreateAseqEngine(queries[0]);
      if (!engine.ok()) return Fail(engine.status());
      std::vector<Output> out;
      outputs = DriveBatches(engine->get(), events, options.batch_size, &out);
      peak = (*engine)->stats().objects.peak();
    }
    tracer.Count("engine_outputs", static_cast<double>(outputs));
    tracer.Count("engine_peak_objects", static_cast<double>(peak));
  } else if (multi) {
    std::string fallback;
    const int scope = tracer.Begin("exec.build");
    auto policy = exec::MakeMultiPolicy(queries, ChopConnectFactory(queries),
                                        options, &fallback);
    tracer.End(scope);
    if (!policy.ok()) return Fail(policy.status());
    tracer.Note("fallback", fallback);
    // The CLI's per-query summary lines (`aseq workload`).
    RunAndEmit(&tracer, std::move(policy).value(), &events,
               [&](const MultiRunResult& result) {
                 std::vector<size_t> per_query(queries.size(), 0);
                 std::vector<Value> last(queries.size());
                 for (const MultiOutput& mo : result.outputs) {
                   ++per_query[mo.query_index];
                   last[mo.query_index] = mo.output.value;
                 }
                 for (size_t qi = 0; qi < queries.size(); ++qi) {
                   std::cout << "  Q" << (qi + 1) << ": " << per_query[qi]
                             << " results, last=" << last[qi].ToString()
                             << "  — " << queries[qi].ToString() << "\n";
                 }
                 return queries.size();
               });
  } else {
    std::string fallback;
    const int scope = tracer.Begin("exec.build");
    auto policy = exec::MakePolicy(
        queries[0], [&] { return CreateAseqEngine(queries[0]); }, options,
        &fallback);
    tracer.End(scope);
    if (!policy.ok()) return Fail(policy.status());
    tracer.Note("fallback", fallback);
    RunAndEmit(&tracer, std::move(policy).value(), &events,
               [](const RunResult& result) {
                 for (const Output& o : result.outputs) PrintOutput(std::cout, o);
                 return result.outputs.size();
               });
  }
  tracer.End(root);
  if (!tracer.Write(flags.GetString("spans"), flags.GetString("run-id"))) {
    return Fail(Status::IoError("cannot write --spans file"));
  }
  return 0;
}

}  // namespace
}  // namespace aseq

int main(int argc, char** argv) {
  auto flags = aseq::FlagSet::Parse(std::vector<std::string>(argv + 1, argv + argc));
  if (!flags.ok() || flags->positional().size() != 1) {
    std::cerr << "usage: perfbench_tool gen-substr|layers [flags]\n";
    return 2;
  }
  const std::string& cmd = flags->positional()[0];
  if (cmd == "gen-substr") return aseq::CmdGenSubstr(*flags);
  if (cmd == "layers") return aseq::CmdLayers(*flags);
  std::cerr << "unknown command '" << cmd << "'\n";
  return 2;
}
