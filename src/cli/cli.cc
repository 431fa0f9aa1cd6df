#include "cli/cli.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string_view>
#include <thread>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "common/string_util.h"
#include "common/version.h"
#include "multi/chop_plan.h"
#include "multi/composite_engine.h"
#include "cli/flags.h"
#include "engine/change_detector.h"
#include "engine/reordering_engine.h"
#include "engine/runtime.h"
#include "exec/execution_policy.h"
#include "exec/serial_executor.h"
#include "fault/fault.h"
#include "obs/emitter.h"
#include "obs/stats_json.h"
#include "obs/telemetry.h"
#include "obs/trace_writer.h"
#include "query/analyzer.h"
#include "stream/clickstream.h"
#include "stream/stock_stream.h"
#include "stream/trace_io.h"

namespace aseq {

std::atomic<bool>& CliStopFlag() {
  static std::atomic<bool> flag{false};
  return flag;
}

namespace {

// ---- The flag table --------------------------------------------------------
//
// Every flag of every command is one row of kFlags. The per-command
// unknown-flag check, the typed and range-checked reads, the "requires"
// pairs (which include --supervise and a non-block --overload-policy
// needing --shards >= 2) and the usage text all derive from it. Rules that
// span more flags or need outside state stay plain code: exactly one
// source (in CheckFlags), the --restore-from file probe, and the required
// --query, --queries and --out.

/// The commands that read a stream.
constexpr const char* kSources = "run generate compare workload";
/// The long-running commands: sharding, supervision, checkpoints,
/// telemetry.
constexpr const char* kRuns = "run workload";

enum Kind { kInt, kBool, kString, kEnum };

constexpr int64_t kNoMax = INT64_MAX;
/// Size caps that reject what no host could allocate before anything is
/// allocated: --batch-size sizes the reused batch buffer, --stock and
/// --clicks the generated stream, which is held in memory.
constexpr int64_t kMaxBatchSize = int64_t{1} << 20;
constexpr int64_t kMaxGenerated = 100'000'000;
/// A day: kMaxGenerated events this far apart still fit int64 timestamps.
constexpr int64_t kMaxGapMs = 86'400'000;

/// One row of the flag table.
struct FlagSpec {
  const char* name;
  Kind kind;
  /// Usage placeholder (N, FILE, ...); for kEnum the '|'-separated choices.
  const char* arg;
  /// What an absent flag reads as ("" = nothing).
  const char* def;
  /// The commands that accept it, space-separated.
  const char* commands;
  const char* help;
  /// kInt: the accepted range.
  int64_t min = 0;
  int64_t max = 0;
  /// A flag that must be set whenever this one is. A flag counts as set
  /// when given with a value other than its default.
  const char* needs = nullptr;
};

constexpr FlagSpec kFlags[] = {
    {"query", kString, "TEXT", "", "run explain compare",
     "the query, e.g. \"PATTERN SEQ(A,B) AGG COUNT WITHIN 1s\""},
    {"queries", kString, "FILE", "", "workload",
     "the workload: one query per line, # comments"},
    {"trace", kString, "FILE", "", "run compare workload",
     "source: a CSV trace (src/stream/trace_io.h)"},
    {"stock", kInt, "N", "", kSources,
     "source: a synthetic stock stream of N events", 1, kMaxGenerated},
    {"clicks", kInt, "N", "", kSources,
     "source: a synthetic clickstream of N events", 1, kMaxGenerated},
    {"seed", kInt, "S", "42", kSources, "generator seed", INT64_MIN, kNoMax},
    {"gap", kInt, "MS", "6", kSources,
     "maximum inter-event gap of generated streams", 0, kMaxGapMs},
    {"out", kString, "FILE", "", "generate", "the trace file to write"},
    {"engine", kEnum, "aseq|stack", "aseq", "run",
     "A-Seq, or the stack-based baseline"},
    {"slack", kInt, "MS", "0", "run",
     "K-slack disorder bound for out-of-order input (0 = off)", 0, kNoMax},
    {"limit", kInt, "N", "20", "run", "print the last N results", 0, kNoMax},
    {"quiet", kBool, "", "false", "run", "print no result lines"},
    {"emit-on-change", kBool, "", "false", "run",
     "report whenever the value changes, also when window expiry drops it"},
    {"strategy", kEnum, "nonshare|sase|pretree|cc|hybrid", "nonshare",
     "workload", "how the workload's queries share work"},
    {"batch-size", kInt, "N", "256", "run compare workload",
     "events per OnBatch call (1 = per-event)", 1, kMaxBatchSize},
    {"shards", kInt, "N", "1", kRuns,
     "engine shards, hash-routed by GROUP BY key (1 = serial)", 1, 64},
    {"pin-threads", kBool, "", "false", kRuns,
     "pin each shard worker to a core (Linux; else a warning)"},
    {"checkpoint-every", kInt, "N", "0", kRuns,
     "snapshot engine state every N events", 0, kNoMax, "checkpoint-dir"},
    {"checkpoint-dir", kString, "DIR", "", kRuns,
     "where snapshots go (ckpt-<offset>.aseqckpt)", 0, 0, "checkpoint-every"},
    {"restore-from", kString, "SNAPSHOT", "", kRuns,
     "resume from a snapshot, replaying the stream from its offset"},
    {"supervise", kBool, "", "false", kRuns,
     "restart dead or stalled shard workers, replaying their slice", 0, 0,
     "shards"},
    {"watchdog-timeout-ms", kInt, "MS", "1000", kRuns,
     "silence after which a busy shard is restarted", 1, kNoMax},
    {"recovery-every", kInt, "N", "4096", kRuns,
     "events between in-memory recovery points (0 = first only)", 0, kNoMax},
    {"max-restarts", kInt, "N", "4", kRuns,
     "restarts per shard per recovery interval", 0, kNoMax},
    {"overload-policy", kEnum, "block|degrade-serial|shed", "block", kRuns,
     "at the watermark: wait, drain all queues, or drop the partition", 0, 0,
     "shards"},
    {"overload-watermark", kInt, "N", "12", kRuns,
     "queued items per shard at which the overload policy acts", 1, kNoMax},
    {"fault-spec", kString, "SPEC", "", kRuns,
     "inject faults: point[@lane]:trigger[:kind[:repeat]],... (fault.h)"},
    {"fault-seed", kInt, "S", "42", kRuns, "fault injection seed", INT64_MIN,
     kNoMax, "fault-spec"},
    {"metrics-out", kString, "FILE", "", kRuns,
     "append JSON-lines telemetry (counters, latencies, ring gauges)"},
    {"metrics-every-ms", kInt, "MS", "1000", kRuns,
     "interval between metric snapshots", 1, kNoMax, "metrics-out"},
    {"trace-out", kString, "FILE", "", kRuns,
     "write a chrome://tracing file of spans and supervisor instants"},
    {"stats-json", kString, "FILE", "", kRuns, "end-of-run stats as JSON"},
};

/// The row of flag `name`, or null when no flag has that name.
const FlagSpec* Find(std::string_view name) {
  for (const FlagSpec& f : kFlags) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

/// A flag's value, or its default when absent.
std::string Str(const FlagSet& flags, const char* name) {
  return flags.GetString(name, Find(name)->def);
}

/// An int flag's value (CheckFlags range-checked it), or its default.
int64_t Int(const FlagSet& flags, const char* name) {
  return std::strtoll(Str(flags, name).c_str(), nullptr, 10);
}

/// Set: given with a value other than its default; a bool flag is set
/// when true. CheckFlags has checked the value.
bool IsSet(const FlagSet& flags, const char* name) {
  const FlagSpec& f = *Find(name);
  const std::string value = Str(flags, name);
  if (f.kind == kBool) return value == "true" || value == "1";
  return f.kind == kInt ? Int(flags, name) != std::strtoll(f.def, nullptr, 10)
                        : value != f.def;
}

/// An int flag's accepted range, as text.
std::string RangeText(const FlagSpec& f) {
  if (f.min == INT64_MIN) return "in the int64 range";
  if (f.max == kNoMax) return ">= " + std::to_string(f.min);
  return "in [" + std::to_string(f.min) + ", " + std::to_string(f.max) + "]";
}

/// Checks the value of the given flag `f` against its row.
Status CheckValue(const FlagSet& flags, const FlagSpec& f) {
  const std::string value = flags.GetString(f.name);
  const std::string choices = f.kind == kBool ? "true|false|1|0" : f.arg;
  std::string expects = "one of " + choices;
  if (f.kind == kInt) {
    auto v = flags.GetInt(f.name, 0);
    if (v.ok() && *v >= f.min && *v <= f.max) return Status::OK();
    expects = "an integer " + RangeText(f);
  } else if (f.kind == kString ||
             (value.find('|') == std::string::npos &&
              ("|" + choices + "|").find("|" + value + "|") !=
                  std::string::npos)) {
    return Status::OK();
  }
  return Status::InvalidArgument("--" + std::string(f.name) + " expects " +
                                 expects + ", got '" + value + "'");
}

/// Prints `status` as the command's error line; returns `exit_code`.
int Fail(std::ostream& err, const Status& status, int exit_code = 1) {
  err << status.ToString() << "\n";
  return exit_code;
}

/// Whether the flag `f` is one the command `command` takes.
bool TakenBy(const FlagSpec& f, const std::string& command) {
  return (" " + std::string(f.commands) + " ").find(" " + command + " ") !=
         std::string::npos;
}

/// Checks `flags` against the flag table for `command`, before the
/// command does any work: an unknown flag exits 2; a malformed or
/// out-of-range value, a set flag whose required flag is not set, or not
/// exactly one source for a command that reads one, exits 1. Returns 0
/// when the flags pass.
int CheckFlags(const FlagSet& flags, const std::string& command,
               std::ostream& err) {
  for (const auto& [name, value] : flags.given()) {
    const FlagSpec* f = Find(name);
    if (f == nullptr || !TakenBy(*f, command)) {
      return Fail(err, Status::InvalidArgument("unknown flag --" + name), 2);
    }
  }
  for (const auto& [name, value] : flags.given()) {
    if (Status st = CheckValue(flags, *Find(name)); !st.ok()) {
      return Fail(err, st);
    }
  }
  for (const auto& [name, value] : flags.given()) {
    const FlagSpec& f = *Find(name);
    const FlagSpec* needs = f.needs ? Find(f.needs) : nullptr;
    if (needs != nullptr && IsSet(flags, f.name) &&
        !IsSet(flags, needs->name)) {
      std::string wants = "--" + std::string(needs->name) + " " + needs->arg;
      if (*needs->def != '\0') {
        wants += std::string(" (not ") + needs->def + ")";
      }
      return Fail(err, Status::InvalidArgument(
                           "--" + name + (f.kind == kBool ? "" : " " + value) +
                           " requires " + wants));
    }
  }
  if (TakenBy(*Find("stock"), command) &&
      flags.Has("trace") + flags.Has("stock") + flags.Has("clicks") != 1) {
    return Fail(err, Status::InvalidArgument(
                         "pick exactly one source: --trace FILE, --stock N, "
                         "or --clicks N"));
  }
  return 0;
}

/// The RunOptions the flags select; a flag the command does not take reads
/// as its default.
RunOptions OptionsFromFlags(const FlagSet& flags) {
  RunOptions options;
  options.batch_size = Int(flags, "batch-size");
  options.num_shards = Int(flags, "shards");
  // Harmless for serial runs (the executor ignores it), so no --shards
  // coupling to validate.
  options.pin_threads = IsSet(flags, "pin-threads");
  options.checkpoint_every = Int(flags, "checkpoint-every");
  options.checkpoint_dir = flags.GetString("checkpoint-dir");
  options.supervise = IsSet(flags, "supervise");
  options.watchdog_timeout_ms = Int(flags, "watchdog-timeout-ms");
  options.recovery_every = Int(flags, "recovery-every");
  options.max_restarts = Int(flags, "max-restarts");
  const std::string policy = Str(flags, "overload-policy");
  options.overload_policy = policy == "shed" ? OverloadPolicy::kShed
                            : policy == "degrade-serial"
                                ? OverloadPolicy::kDegradeSerial
                                : OverloadPolicy::kBlock;
  options.overload_high_watermark = Int(flags, "overload-watermark");
  return options;
}

/// Generates the --stock/--clicks stream.
std::vector<Event> GenerateEvents(const FlagSet& flags, Schema* schema) {
  auto options = [&](auto generator, const char* count) {
    generator.seed = static_cast<uint64_t>(Int(flags, "seed"));
    generator.num_events = Int(flags, count);
    generator.max_gap_ms = Int(flags, "gap");
    return generator;
  };
  return flags.Has("stock")
             ? GenerateStockStream(options(StockStreamOptions{}, "stock"),
                                   schema)
             : GenerateClickstream(options(ClickstreamOptions{}, "clicks"),
                                   schema);
}

/// Loads the whole event stream named by the source flags into memory
/// (generate and compare, which need the events as a vector).
Result<std::vector<Event>> LoadEvents(const FlagSet& flags, Schema* schema) {
  std::vector<Event> events;
  if (flags.Has("trace")) {
    ASEQ_ASSIGN_OR_RETURN(events,
                          ReadTraceFile(flags.GetString("trace"), schema));
  } else {
    events = GenerateEvents(flags, schema);
  }
  AssignSeqNums(&events);
  return events;
}

/// Opens the event stream named by the source flags for run/workload: a
/// trace streams through a TraceFileSource (registering names in `*schema`
/// as it reads them) parsed on `parse_threads` threads, storing only the
/// values `queries` read; a generated stream is lent from a VectorSource.
Result<std::unique_ptr<StreamSource>> OpenSource(
    const FlagSet& flags, Schema* schema, size_t parse_threads,
    std::span<const CompiledQuery> queries) {
  if (flags.Has("trace")) {
    const TraceReadSet reads = TraceReadSet::Of(queries);
    ASEQ_ASSIGN_OR_RETURN(
        auto source, TraceFileSource::Open(flags.GetString("trace"), schema,
                                           parse_threads, 0, &reads));
    return std::unique_ptr<StreamSource>(std::move(source));
  }
  return std::unique_ptr<StreamSource>(
      std::make_unique<VectorSource>(GenerateEvents(flags, schema)));
}

/// Skips the first `offset` events of `source`: a run restored from
/// `snapshot` replays only the stream tail.
Status SkipToOffset(StreamSource* source, uint64_t offset,
                    const std::string& snapshot) {
  uint64_t skipped = 0;
  while (skipped < offset) {
    const size_t n =
        source
            ->BorrowBatch(static_cast<size_t>(std::min<uint64_t>(
                offset - skipped, kDefaultBatchSize)))
            .size();
    if (n == 0) break;
    skipped += n;
  }
  ASEQ_RETURN_NOT_OK(source->status());
  if (skipped < offset) {
    return Status::InvalidArgument(
        "snapshot '" + snapshot + "' was taken at stream offset " +
        std::to_string(offset) + " but this source has only " +
        std::to_string(skipped) + " events");
  }
  return Status::OK();
}

Result<CompiledQuery> CompileQuery(const FlagSet& flags, Schema* schema) {
  std::string text = flags.GetString("query");
  if (text.empty()) {
    return Status::InvalidArgument("--query is required");
  }
  Analyzer analyzer(schema);
  return analyzer.AnalyzeText(text);
}

Result<std::unique_ptr<QueryEngine>> MakeEngine(const FlagSet& flags,
                                                const CompiledQuery& query) {
  std::unique_ptr<QueryEngine> engine;
  if (Str(flags, "engine") == "stack") {
    engine = std::make_unique<StackEngine>(query);
  } else {
    ASEQ_ASSIGN_OR_RETURN(engine, CreateAseqEngine(query));
  }
  if (IsSet(flags, "emit-on-change")) {
    engine = std::make_unique<ChangeDetectingEngine>(std::move(engine));
  }
  if (const int64_t slack = Int(flags, "slack"); slack > 0) {
    engine = std::make_unique<ReorderingEngine>(std::move(engine), slack);
  }
  return engine;
}

/// Per-run observability objects behind --metrics-out / --trace-out /
/// --stats-json, plus the process-global fault-fire observer. The
/// destructor stops the emitter, closes the trace, and clears the
/// observer, so every exit path — including aborted runs — leaves valid
/// files and no dangling globals.
struct Observability {
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<obs::TraceWriter> trace;
  std::unique_ptr<obs::MetricsEmitter> emitter;
  std::string stats_json_path;
  bool fire_observer_registered = false;
  bool finished = false;

  ~Observability() {
    Finish();
    if (fire_observer_registered) fault::Injector::Global().SetFireObserver({});
  }

  /// Final flush: one last metrics interval, the utilization summary line
  /// (when the run produced per-shard busy spans), and the trace's closing
  /// bracket. Idempotent; the destructor calls it with no utilization.
  void Finish(std::span<const double> busy_seconds = {}) {
    if (finished) return;
    finished = true;
    if (emitter != nullptr) {
      emitter->Stop();  // final interval rows first, then the summary line
      if (!busy_seconds.empty()) {
        emitter->AppendLine("{\"type\":\"utilization\",\"data\":" +
                            obs::UtilizationJson(busy_seconds) + "}");
      }
    }
    if (trace != nullptr) trace->Close();
  }
};

/// Parses --metrics-out/--metrics-every-ms/--trace-out/--stats-json and
/// builds the run's telemetry registry + sinks. `label` names the run in
/// the metrics header (engine kind or workload strategy — the policy
/// object does not exist yet when the registry must be built, since
/// executors copy RunOptions at construction).
Status SetupObservability(const FlagSet& flags, const RunOptions& options,
                          const std::string& label, Observability* o) {
  const std::string metrics_path = flags.GetString("metrics-out");
  const std::string trace_path = flags.GetString("trace-out");
  o->stats_json_path = flags.GetString("stats-json");
  if (metrics_path.empty() && trace_path.empty()) return Status::OK();

  o->telemetry = std::make_unique<obs::Telemetry>(options.num_shards);
  if (!trace_path.empty()) {
    o->trace = std::make_unique<obs::TraceWriter>(
        trace_path, o->telemetry->start_ns(), options.num_shards);
    if (!o->trace->ok()) {
      return Status::IoError("cannot open --trace-out file '" + trace_path +
                             "'");
    }
    o->telemetry->set_trace(o->trace.get());
  }
  if (!metrics_path.empty()) {
    o->emitter = std::make_unique<obs::MetricsEmitter>(
        metrics_path, static_cast<uint64_t>(Int(flags, "metrics-every-ms")),
        o->telemetry.get(), "\"label\":\"" + label + "\"");
    if (!o->emitter->ok()) {
      return Status::IoError("cannot open --metrics-out file '" +
                             metrics_path + "'");
    }
    o->telemetry->set_emitter(o->emitter.get());
  }

  obs::Telemetry* tel = o->telemetry.get();
  fault::Injector::Global().SetFireObserver(
      [tel](fault::Point point, fault::Kind kind, size_t lane) {
        if (tel->trace() == nullptr) return;
        // Worker faults land on the shard's own trace row; coordinator
        // points on the coordinator row.
        const int64_t tid = point == fault::Point::kWorkerOp
                                ? static_cast<int64_t>(lane)
                                : obs::TraceWriter::kCoordTid;
        tel->trace()->Instant(
            "fault-injected", tid, obs::MonotonicNanos(),
            {{"point", fault::PointName(point)},
             {"kind", fault::KindName(kind)},
             obs::TraceWriter::NumArg("lane", lane)});
      });
  o->fire_observer_registered = true;
  return Status::OK();
}

/// Prints the end-of-run stats block shared by `run` and `workload` in ONE
/// stable, documented order (docs/internals.md §17; the golden test in
/// cli_test.cc locks it):
///   events, batch size, shards*, results*, ms/slide, peak objects,
///   admission*, utilization*, dataplane*, supervisor*, overload*,
///   faults*, checkpoints*
/// Starred lines print only when their feature is active: shards when
/// sharding was requested; results for single-query runs; admission when
/// the engine keeps the adm_* counters (`admission_counted`); utilization
/// and dataplane when the run actually sharded; supervisor under --supervise;
/// overload under a non-block policy; faults when the injector is armed;
/// checkpoints when periodic checkpointing is on.
void PrintStatsBlock(std::ostream& out, const RunOptions& options,
                     const RunResultBase& result, const EngineStats& stats,
                     std::span<const double> busy_seconds,
                     const size_t* results_count, bool admission_counted) {
  out << "events:        " << result.events << "\n";
  out << "batch size:    " << result.batch_size << "\n";
  if (options.num_shards > 1) {
    out << "shards:        " << result.num_shards << "\n";
  }
  if (results_count != nullptr) {
    out << "results:       " << *results_count << "\n";
  }
  out << "ms/slide:      " << result.MillisPerSlide() << "\n";
  out << "peak objects:  " << stats.objects.peak() << "\n";
  if (admission_counted) {
    out << "admission:     " << stats.adm_admitted << " admitted, "
        << stats.adm_rejected_local << " rejected, " << stats.adm_missing_attr
        << " missing-attr, " << stats.adm_generic_cmps << " generic cmps\n";
  }
  if (result.num_shards > 1 && !busy_seconds.empty()) {
    const obs::BusySummary busy = obs::SummarizeBusy(busy_seconds);
    char line[160];
    std::snprintf(line, sizeof(line),
                  "utilization:   shard busy %.3fs min / %.3fs max "
                  "(imbalance %.2fx)\n",
                  busy.min, busy.max, busy.imbalance);
    out << line;
  }
  if (result.num_shards > 1) {
    out << "dataplane:     " << stats.pub_batches << " publications, "
        << stats.ring_full_waits << " full-ring waits, " << stats.ring_spins
        << " spins\n";
  }
  if (options.supervise) {
    out << "supervisor:    " << stats.fault_restarts << " restarts, "
        << stats.fault_replayed_events << " events replayed\n";
  }
  if (options.overload_policy == OverloadPolicy::kShed) {
    out << "overload:      shed " << stats.shed_partitions << " partitions ("
        << stats.shed_events << " events)\n";
  } else if (options.overload_policy == OverloadPolicy::kDegradeSerial) {
    out << "overload:      " << stats.overload_stalls << " serial drains\n";
  }
  if (fault::Injector::Global().armed()) {
    out << "faults:        " << stats.fault_injected << " injected\n";
  }
  if (options.checkpoint_every > 0) {
    out << "checkpoints:   " << result.checkpoints_written;
    if (result.checkpoints_written > 0) {
      out << " (latest at offset " << result.last_checkpoint_offset << ")";
    }
    out << "\n";
  }
}

/// Writes the --stats-json document (one entry labeled `label`). A write
/// failure is a warning, not a run failure — the computation already
/// succeeded.
void MaybeWriteStatsJson(const Observability& obsv, const std::string& label,
                         const std::string& engine_name,
                         const RunResultBase& result, const EngineStats& stats,
                         std::span<const double> busy_seconds,
                         const IngestStats& ingest, size_t results_count,
                         std::ostream& err) {
  if (obsv.stats_json_path.empty()) return;
  std::vector<obs::StatsJsonEntry> entries;
  entries.push_back({label, &stats, results_count});
  if (!obs::WriteStatsJson(
          obsv.stats_json_path, engine_name, result.num_shards,
          result.elapsed_seconds * 1e3, busy_seconds, ingest, entries,
          result.num_shards > 1 ? &result.coordinator : nullptr)) {
    err << "warning: failed writing --stats-json file '"
        << obsv.stats_json_path << "'\n";
  }
}

/// What `run` prints of its results — their count and the last `limit`
/// result lines — collected batch by batch through the run's output sink.
/// It keeps at most 2x `limit` lines of text (dropping older ones in bulk),
/// so memory does not grow with the run under the default --limit.
class ResultTail : public OutputSink {
 public:
  explicit ResultTail(size_t limit) : limit_(limit) {}

  void TakeOutputs(std::span<const Output> outputs) override {
    total_ += outputs.size();
    if (limit_ == 0) return;
    for (const Output& o : outputs) {
      text_ += "t=";
      text_ += std::to_string(o.ts);
      if (o.group.has_value()) {
        text_ += " [";
        text_ += o.group->ToString();
        text_ += "]";
      }
      text_ += " -> ";
      text_ += o.value.ToString();
      text_ += '\n';
      if (++lines_ == 2 * limit_) {
        text_.erase(0, LineStart(limit_));
        lines_ = limit_;
      }
    }
  }

  size_t total() const { return total_; }

  /// The `... (N earlier results omitted; --limit)` note, then the lines.
  void Print(std::ostream& out) const {
    if (total_ > limit_) {
      out << "... (" << (total_ - limit_)
          << " earlier results omitted; --limit)\n";
    }
    const size_t skip = lines_ > limit_ ? lines_ - limit_ : 0;
    out << std::string_view(text_).substr(LineStart(skip));
  }

 private:
  /// Offset of line `n` (0-based) in text_.
  size_t LineStart(size_t n) const {
    size_t pos = 0;
    for (size_t i = 0; i < n; ++i) pos = text_.find('\n', pos) + 1;
    return pos;
  }

  size_t limit_;
  size_t total_ = 0;
  size_t lines_ = 0;  // lines held in text_
  std::string text_;
};

/// What `workload` prints of its results — per query, the count and the
/// last value — tallied through the run's output sink.
class QueryTally : public OutputSink {
 public:
  explicit QueryTally(size_t queries) : counts_(queries, 0), last_(queries) {}

  void TakeMultiOutputs(std::span<const MultiOutput> outputs) override {
    for (const MultiOutput& mo : outputs) {
      ++counts_[mo.query_index];
      last_[mo.query_index] = mo.output.value;
    }
    total_ += outputs.size();
  }

  size_t total() const { return total_; }
  size_t count(size_t query) const { return counts_[query]; }
  const Value& last(size_t query) const { return last_[query]; }

 private:
  std::vector<size_t> counts_;
  std::vector<Value> last_;
  size_t total_ = 0;
};

/// What `run` and `workload` share before and after building the policy:
/// the run options, the snapshot to restore from (empty if none), the
/// observability objects behind the telemetry flags, and what the trace
/// source's ingest layer did (zero for a generated stream).
struct RunSetup {
  RunOptions options;
  std::string restore_from;
  Observability obsv;
  IngestStats ingest;
  /// --fault-spec armed the process-wide injector: the destructor disarms
  /// it, so no exit path (a finished run, a later flag error) leaves it
  /// armed for the next command in the process.
  bool faults_armed = false;

  ~RunSetup() {
    if (faults_armed) fault::Injector::Global().Disarm();
  }
};

/// Builds the run options of `run` and `workload` from their checked flags
/// — probing the --restore-from snapshot, arming --fault-spec, and setting
/// up observability (labeled `label` in the metrics header) — before any
/// expensive work, so a typo'd invocation fails in microseconds.
Status SetupRun(const FlagSet& flags, const std::string& label,
                RunSetup* setup) {
  setup->options = OptionsFromFlags(flags);
  setup->restore_from = flags.GetString("restore-from");
  if (flags.Has("restore-from") &&
      !std::ifstream(setup->restore_from, std::ios::binary)) {
    return Status::InvalidArgument(
        "--restore-from: cannot open snapshot '" + setup->restore_from +
        "' (does the file exist? snapshots are named "
        "ckpt-<offset>.aseqckpt under --checkpoint-dir)");
  }
  if (const std::string spec = flags.GetString("fault-spec"); !spec.empty()) {
    ASEQ_RETURN_NOT_OK(fault::Injector::Global().Arm(
        spec, static_cast<uint64_t>(Int(flags, "fault-seed"))));
    setup->faults_armed = true;
  }
  setup->options.stop_requested = &CliStopFlag();
  // Telemetry must be in the options BEFORE the policy is built:
  // executors copy RunOptions at construction.
  ASEQ_RETURN_NOT_OK(
      SetupObservability(flags, setup->options, label, &setup->obsv));
  setup->options.telemetry = setup->obsv.telemetry.get();
  return Status::OK();
}

/// Runs `run` or `workload` once their flags are parsed. Builds the policy
/// with `make_policy` before opening the source, so a query the engine
/// cannot run fails before a trace is read or a stream generated; the
/// trace stores only the values `queries` read. Then restores when
/// --restore-from is set (skipping the source to the snapshot's offset),
/// runs the source to its end, and reports what both commands share: the
/// serial-fallback note, a source error, the "restored from" line, a
/// supervisor fault, an interrupt, a checkpoint warning.
/// Returns null when the command must exit 1; the reason is then printed.
template <class EngineT, class MakePolicyFn>
std::unique_ptr<exec::ExecutionPolicyT<EngineT>> RunPolicy(
    const FlagSet& flags, Schema* schema,
    std::span<const CompiledQuery> queries, RunSetup* setup,
    const MakePolicyFn& make_policy,
    BasicRunResult<typename EngineT::OutputT>* result,
    std::ostream& out, std::ostream& err) {
  // Unshardable queries and workloads fall back to serial with a note.
  std::string fallback_reason;
  auto policy = make_policy(&fallback_reason);
  if (!policy.ok()) {
    err << policy.status().ToString() << "\n";
    return nullptr;
  }
  if (!fallback_reason.empty()) {
    err << "note: sharding disabled (" << fallback_reason
        << "); running serially\n";
  }
  // Serial or sharded, the trace parses on the spare cores
  // (docs/internals.md §18).
  auto source = OpenSource(
      flags, schema, TraceParseThreads(std::thread::hardware_concurrency()),
      queries);
  if (!source.ok()) {
    err << source.status().ToString() << "\n";
    return nullptr;
  }
  const std::string& restore_from = setup->restore_from;
  uint64_t offset = 0;
  if (!restore_from.empty()) {
    // Replay only the tail; the run re-assigns the same seq numbers the
    // events had in the original run.
    Status restored = (*policy)->Restore(restore_from, &offset);
    if (restored.ok()) {
      restored = SkipToOffset(source->get(), offset, restore_from);
    }
    if (!restored.ok()) {
      err << restored.ToString() << "\n";
      return nullptr;
    }
  }
  if (setup->obsv.emitter != nullptr) setup->obsv.emitter->Start();
  *result = (*policy)->Run(source->get());
  setup->obsv.Finish((*policy)->shard_busy_seconds());
  if (const auto* trace = dynamic_cast<const TraceFileSource*>(source->get())) {
    setup->ingest = trace->ingest_stats();
  }
  if (Status read = (*source)->status(); !read.ok()) {
    err << read.ToString() << "\n";
    return nullptr;
  }
  if (!restore_from.empty()) {
    out << "restored from " << restore_from << " at offset " << offset
        << "; replaying " << result->events << " remaining events\n";
  }
  if (!result->fault_status.ok()) {
    err << "fault: run aborted: " << result->fault_status.ToString() << "\n";
    return nullptr;
  }
  if (result->interrupted) {
    out << "interrupted: stop signal received; drained in-flight batches "
           "after "
        << result->events << " events\n";
  }
  if (!result->checkpoint_status.ok()) {
    err << "warning: checkpointing stopped: "
        << result->checkpoint_status.ToString() << "\n";
  }
  return std::move(policy).value();
}

int CmdRun(const FlagSet& flags, std::ostream& out, std::ostream& err) {
  RunSetup setup;
  Status setup_status = SetupRun(flags, Str(flags, "engine"), &setup);
  if (!setup_status.ok()) return Fail(err, setup_status);
  const RunOptions& options = setup.options;
  Schema schema;
  auto query = CompileQuery(flags, &schema);
  if (!query.ok()) return Fail(err, query.status());
  ResultTail results(IsSet(flags, "quiet") ? 0 : Int(flags, "limit"));
  setup.options.output_sink = &results;
  // All execution goes through a policy: serial for --shards 1 (the
  // default), partition-parallel otherwise.
  RunResult result;
  auto policy = RunPolicy<QueryEngine>(
      flags, &schema, {&*query, 1}, &setup,
      [&](std::string* fallback_reason) {
        return exec::MakePolicy(
            *query, [&] { return MakeEngine(flags, *query); }, options,
            fallback_reason);
      },
      &result, out, err);
  if (policy == nullptr) return 1;
  if (auto* reordering =
          dynamic_cast<ReorderingEngine*>(policy->serial_engine())) {
    std::vector<Output> tail;
    StopWatch watch;
    reordering->Finish(&tail);
    result.elapsed_seconds += watch.ElapsedSeconds();
    results.TakeOutputs(tail);
    if (reordering->dropped_events() > 0) {
      err << "warning: " << reordering->dropped_events()
          << " events arrived beyond --slack and were dropped\n";
    }
  }
  if (!IsSet(flags, "quiet")) results.Print(out);
  out << "engine:        " << policy->name() << "\n";
  out << "query:         " << query->ToString() << "\n";
  const size_t results_count = results.total();
  PrintStatsBlock(out, options, result, policy->stats(),
                  policy->shard_busy_seconds(), &results_count,
                  /*admission_counted=*/true);
  MaybeWriteStatsJson(setup.obsv, "run", policy->name(), result,
                      policy->stats(), policy->shard_busy_seconds(),
                      setup.ingest, results_count, err);
  return 0;
}

int CmdExplain(const FlagSet& flags, std::ostream& out, std::ostream& err) {
  Schema schema;
  auto query = CompileQuery(flags, &schema);
  if (!query.ok()) return Fail(err, query.status());
  const CompiledQuery& cq = *query;
  out << "query:      " << cq.ToString() << "\n";
  out << "positive:   " << cq.num_positive() << " event types\n";
  for (size_t p = 0; p < cq.positive_types().size(); ++p) {
    out << "  pos " << (p + 1) << ": "
        << schema.EventTypeName(cq.positive_types()[p]) << "\n";
  }
  for (const auto& elem : cq.pattern().elements()) {
    if (!elem.negated) continue;
    const std::vector<Role>* roles = cq.FindRoles(elem.type);
    for (const Role& role : *roles) {
      if (role.negated) {
        out << "  negation: !" << elem.type_name
            << " resets the length-" << role.position << " prefix\n";
      }
    }
  }
  size_t locals = 0;
  for (const auto& preds : cq.local_predicates()) locals += preds.size();
  out << "predicates: " << locals << " local, "
      << cq.join_predicates().size() << " join\n";
  if (cq.partitioned()) {
    out << "partitioning (HPC):\n";
    for (const auto& part : cq.partition_spec().parts) {
      out << "  " << (part.is_group_by ? "group-by" : "equivalence")
          << " on attribute '" << part.attr_name << "'\n";
    }
  }
  out << "window:     "
      << (cq.has_window() ? std::to_string(cq.window_ms()) + " ms"
                          : std::string("unbounded"))
      << "\n";
  // The engine `run` builds by default; A-Seq refuses join predicates.
  auto engine = CreateAseqEngine(cq);
  out << "engine:     "
      << (engine.ok() ? (*engine)->name()
                      : "StackBased (join predicates); run with --engine stack")
      << "\n";
  return 0;
}

int CmdGenerate(const FlagSet& flags, std::ostream& out, std::ostream& err) {
  std::string path = flags.GetString("out");
  if (path.empty()) {
    return Fail(err, Status::InvalidArgument("--out FILE is required"));
  }
  Schema schema;
  auto events = LoadEvents(flags, &schema);
  if (!events.ok()) return Fail(err, events.status());
  Status st = WriteTraceFile(path, *events, schema);
  if (!st.ok()) return Fail(err, st);
  out << "wrote " << events->size() << " events to " << path << "\n";
  return 0;
}

int CmdCompare(const FlagSet& flags, std::ostream& out, std::ostream& err) {
  Schema schema;
  auto query = CompileQuery(flags, &schema);
  if (!query.ok()) return Fail(err, query.status());
  const RunOptions options = OptionsFromFlags(flags);
  auto events = LoadEvents(flags, &schema);
  if (!events.ok()) return Fail(err, events.status());
  StackEngine stack(*query);
  RunResult stack_run = exec::RunSerial(options, *events, &stack);

  auto aseq = CreateAseqEngine(*query);
  if (!aseq.ok()) {
    err << aseq.status().ToString()
        << " (showing the stack baseline only)\n";
    out << "StackBased: " << stack_run.MillisPerSlide() << " ms/slide, peak "
        << stack.stats().objects.peak() << " objects\n";
    return 0;
  }
  RunResult aseq_run = exec::RunSerial(options, *events, aseq->get());

  size_t mismatches = 0;
  if (aseq_run.outputs.size() != stack_run.outputs.size()) {
    mismatches = SIZE_MAX;
  } else {
    for (size_t i = 0; i < aseq_run.outputs.size(); ++i) {
      const Value& a = aseq_run.outputs[i].value;
      const Value& b = stack_run.outputs[i].value;
      bool same = a.Equals(b);
      if (!same && a.is_numeric() && b.is_numeric()) {
        double x = a.ToDouble(), y = b.ToDouble();
        double scale = std::max({1.0, std::abs(x), std::abs(y)});
        same = std::abs(x - y) <= 1e-9 * scale;
      }
      if (!same) ++mismatches;
    }
  }
  out << "query:   " << query->ToString() << "\n";
  out << "events:  " << events->size() << "\n\n";
  char line[160];
  std::snprintf(line, sizeof(line), "%-14s %14s %14s %10s\n", "engine",
                "ms/slide", "peak objects", "results");
  out << line;
  std::snprintf(line, sizeof(line), "%-14s %14.6f %14lld %10zu\n",
                aseq->get()->name().c_str(), aseq_run.MillisPerSlide(),
                static_cast<long long>(aseq->get()->stats().objects.peak()),
                aseq_run.outputs.size());
  out << line;
  std::snprintf(line, sizeof(line), "%-14s %14.6f %14lld %10zu\n",
                stack.name().c_str(), stack_run.MillisPerSlide(),
                static_cast<long long>(stack.stats().objects.peak()),
                stack_run.outputs.size());
  out << line;
  double speedup = aseq_run.MillisPerSlide() > 0
                       ? stack_run.MillisPerSlide() / aseq_run.MillisPerSlide()
                       : 0;
  out << "\nspeedup: " << speedup << "x; result mismatches: ";
  if (mismatches == SIZE_MAX) {
    out << "output counts differ!\n";
    return 1;
  }
  out << mismatches << "\n";
  return mismatches == 0 ? 0 : 1;
}

int CmdWorkload(const FlagSet& flags, std::ostream& out, std::ostream& err) {
  const std::string strategy = Str(flags, "strategy");
  RunSetup setup;
  Status setup_status = SetupRun(flags, strategy, &setup);
  if (!setup_status.ok()) return Fail(err, setup_status);
  const RunOptions& options = setup.options;
  std::string path = flags.GetString("queries");
  if (path.empty()) {
    return Fail(err, Status::InvalidArgument(
                         "--queries FILE is required (one query per line; "
                         "# comments)"));
  }
  std::ifstream in(path);
  if (!in) {
    return Fail(err, Status::IoError("cannot open queries file: " + path));
  }
  Schema schema;
  Analyzer analyzer(&schema);
  std::vector<CompiledQuery> queries;
  std::string line;
  size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    std::string_view trimmed = TrimWhitespace(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto cq = analyzer.AnalyzeText(trimmed);
    if (!cq.ok()) {
      err << path << ":" << lineno << ": " << cq.status().ToString() << "\n";
      return 1;
    }
    queries.push_back(std::move(cq).value());
  }
  if (queries.empty()) {
    return Fail(err, Status::InvalidArgument("no queries in " + path));
  }
  auto made = MakeStrategyFactory(strategy, queries);
  if (!made.ok()) return Fail(err, made.status());
  // The factory builds one engine per shard (once, serially); the cc plan
  // and the hybrid routing print on the first construction only.
  bool first = true;
  // PreTree and Chop-Connect run no compiled admission, so only a
  // composite whose parts are all per-query engines keeps the adm_*
  // counters.
  bool admission_counted = false;
  exec::MultiEngineFactory factory = [&, make = std::move(made).value()] {
    const bool print = std::exchange(first, false);
    if (print && strategy == "cc") {
      out << "plan: " << PlanChopConnect(queries).ToString(schema) << "\n";
    }
    auto e = make();
    const auto* composite =
        e.ok() ? dynamic_cast<const CompositeEngine*>(e->get()) : nullptr;
    if (print && composite != nullptr) {
      admission_counted = !composite->shares();
      if (strategy == "hybrid") {
        for (size_t qi = 0; qi < queries.size(); ++qi) {
          out << "  Q" << (qi + 1) << " -> " << composite->routing()[qi]
              << "\n";
        }
      }
    }
    return e;
  };

  QueryTally tally(queries.size());
  setup.options.output_sink = &tally;
  // All workload execution goes through a policy: serial for --shards 1
  // (the default), partition-parallel otherwise.
  MultiRunResult result;
  auto policy = RunPolicy<MultiQueryEngine>(
      flags, &schema, queries, &setup,
      [&](std::string* fallback_reason) {
        return exec::MakeMultiPolicy(queries, factory, options,
                                     fallback_reason);
      },
      &result, out, err);
  if (policy == nullptr) return 1;
  out << "strategy:      " << policy->name() << "\n";
  out << "queries:       " << queries.size() << "\n";
  PrintStatsBlock(out, options, result, policy->stats(),
                  policy->shard_busy_seconds(), nullptr, admission_counted);
  MaybeWriteStatsJson(setup.obsv, "workload", policy->name(), result,
                      policy->stats(), policy->shard_busy_seconds(),
                      setup.ingest, tally.total(), err);
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    out << "  Q" << (qi + 1) << ": " << tally.count(qi)
        << " results, last=" << tally.last(qi).ToString() << "  — "
        << queries[qi].ToString() << "\n";
  }
  return 0;
}

using CommandFn = int (*)(const FlagSet&, std::ostream&, std::ostream&);

/// The commands that take flags, by name.
constexpr std::pair<const char*, CommandFn> kCommands[] = {
    {"run", CmdRun},         {"explain", CmdExplain}, {"generate", CmdGenerate},
    {"compare", CmdCompare}, {"workload", CmdWorkload}};

/// The usage text, derived from the command and flag tables: each flag
/// with its commands, range, default and required flag, then its help.
std::string Usage() {
  std::string text = "usage: aseq <command> [flags]   (commands:";
  for (const auto& [name, run] : kCommands) text += " " + std::string(name);
  text += " version)\n";
  for (const FlagSpec& f : kFlags) {
    text += "  --" + std::string(f.name) + (*f.arg ? " " : "") + f.arg +
            "  (" + f.commands + ";";
    if (f.kind == kInt) text += " " + RangeText(f) + ";";
    if (f.kind != kBool && *f.def != '\0') {
      text += " default " + std::string(f.def) + ";";
    }
    if (f.needs != nullptr) text += " needs --" + std::string(f.needs) + ";";
    text.back() = ')';
    text += "\n      " + std::string(f.help) + "\n";
  }
  return text +
         "\"needs --X\": --X must be given a value other than its default.\n"
         "run, compare and workload read exactly one source: --trace, "
         "--stock or --clicks.\nSIGINT/SIGTERM drain in-flight batches, "
         "write a final checkpoint when checkpointing,\nand exit 0. "
         "Telemetry flags never change outputs.\n";
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  auto flags = FlagSet::Parse(args);
  if (!flags.ok()) {
    err << flags.status().ToString() << "\n" << Usage();
    return 2;
  }
  if (flags->positional().size() != 1) {
    err << Usage();
    return 2;
  }
  const std::string& cmd = flags->positional()[0];
  if (cmd == "version") {
    out << "aseq " << kVersionString << " — reproduction of: "
        << kPaperCitation << "\n";
    return 0;
  }
  for (const auto& [name, run] : kCommands) {
    if (cmd != name) continue;
    const int bad = CheckFlags(*flags, cmd, err);
    return bad != 0 ? bad : run(*flags, out, err);
  }
  err << "unknown command '" << cmd << "'\n" << Usage();
  return 2;
}

}  // namespace aseq
