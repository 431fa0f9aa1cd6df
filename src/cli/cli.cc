#include "cli/cli.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <thread>

#include "aseq/aseq_engine.h"
#include "baseline/stack_engine.h"
#include "ckpt/snapshot.h"
#include "common/string_util.h"
#include "common/version.h"
#include "multi/chop_plan.h"
#include "multi/hybrid_engine.h"
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

constexpr const char* kUsage =
    "usage: aseq <run|explain|generate|compare> [flags]\n"
    "  aseq run      --query \"PATTERN SEQ(A,B) AGG COUNT WITHIN 1s\"\n"
    "                (--trace FILE | --stock N | --clicks N)\n"
    "                [--engine aseq|stack] [--slack MS] [--seed S]\n"
    "                [--gap MS] [--limit N] [--quiet] [--emit-on-change]\n"
    "                [--batch-size N] [--shards N]\n"
    "                [--checkpoint-every N --checkpoint-dir DIR]\n"
    "                [--restore-from SNAPSHOT]\n"
    "  aseq explain  --query \"...\"\n"
    "  aseq generate (--stock N | --clicks N) --out FILE [--seed S] [--gap MS]\n"
    "  aseq compare  --query \"...\" (--trace FILE | --stock N | --clicks N)\n"
    "                [--batch-size N]\n"
    "  aseq workload --queries FILE (--trace FILE | --stock N | --clicks N)\n"
    "                [--strategy nonshare|sase|pretree|cc|hybrid]\n"
    "                [--seed S] [--gap MS] [--batch-size N] [--shards N]\n"
    "                [--checkpoint-every N --checkpoint-dir DIR]\n"
    "                [--restore-from SNAPSHOT]\n"
    "  (--batch-size controls the ingestion batch fed to OnBatch; default "
    "256, 1 = per-event)\n"
    "  (--checkpoint-every N snapshots engine state every N events into\n"
    "   --checkpoint-dir; --restore-from resumes a killed run from a\n"
    "   snapshot, replaying the trace tail from the recorded offset)\n"
    "  (--shards N > 1 runs the partition-parallel executor: events are\n"
    "   hash-routed by GROUP BY key to N engine shards on worker threads,\n"
    "   with results identical to the serial run; queries that cannot\n"
    "   shard safely fall back to serial with a note. workload shards the\n"
    "   whole multi-query engine the same way when every query groups by\n"
    "   one shared attribute)\n"
    "  (run and workload also accept the supervised-runtime flags,\n"
    "   --shards >= 2:\n"
    "   --supervise enables the shard watchdog — dead or stalled workers\n"
    "   are restarted from the last recovery point and their event slice\n"
    "   replayed, keeping output bit-exact; tune with\n"
    "   --watchdog-timeout-ms MS, --recovery-every N, --max-restarts N.\n"
    "   --overload-policy block|degrade-serial|shed picks the response to\n"
    "   a shard queue at its high-watermark (--overload-watermark N\n"
    "   queued items, default 12): keep blocking (default),\n"
    "   drain all queues before routing on, or deterministically drop the\n"
    "   overloaded partition (accounted in shed counters; surviving\n"
    "   partitions stay exact).\n"
    "   --pin-threads pins each shard worker to a core (Linux; no-op with\n"
    "   a warning when the machine has fewer cores than shards).\n"
    "   --fault-spec point[@lane]:trigger[:kind[:repeat]],... arms\n"
    "   deterministic fault injection (points: router.route, worker.op,\n"
    "   ckpt.write, admit.batch; kinds: crash, stall, slow, io-error,\n"
    "   overload) with --fault-seed S; SIGINT/SIGTERM drain in-flight\n"
    "   batches, write a final checkpoint when enabled, and exit 0)\n"
    "  (observability, run and workload:\n"
    "   --metrics-out FILE appends JSON-lines telemetry — per-shard\n"
    "   counters, latency histogram percentiles, and ring-occupancy\n"
    "   gauges — every --metrics-every-ms MS (default 1000);\n"
    "   --trace-out FILE writes a chrome://tracing JSON file with batch\n"
    "   and barrier spans plus supervisor instants (quarantine, restart,\n"
    "   replay, shed, overload-degrade, fault-injected, checkpoint);\n"
    "   --stats-json FILE dumps the end-of-run EngineStats + per-shard\n"
    "   utilization as one machine-readable JSON document.\n"
    "   Telemetry only observes: outputs and stats stay bit-exact with\n"
    "   the same run with every flag off)\n";

/// Prints `status` as the command's error line; returns `exit_code`.
int Fail(std::ostream& err, const Status& status, int exit_code = 1) {
  err << status.ToString() << "\n";
  return exit_code;
}

/// Reads --batch-size into RunOptions (default kDefaultBatchSize).
Result<RunOptions> BatchOptionsFromFlags(const FlagSet& flags) {
  ASEQ_ASSIGN_OR_RETURN(
      int64_t batch,
      flags.GetInt("batch-size", static_cast<int64_t>(kDefaultBatchSize)));
  if (batch <= 0) {
    return Status::InvalidArgument(
        "--batch-size expects N > 0 (e.g. --batch-size 256; 1 = per-event)");
  }
  RunOptions options;
  options.batch_size = static_cast<size_t>(batch);
  ASEQ_ASSIGN_OR_RETURN(int64_t shards, flags.GetInt("shards", 1));
  if (shards < 1 || shards > 64) {
    return Status::InvalidArgument(
        "--shards expects 1 <= N <= 64 (1 = serial; e.g. --shards 8)");
  }
  options.num_shards = static_cast<size_t>(shards);
  // Harmless for serial runs (the executor ignores it), so no --shards
  // coupling to validate.
  options.pin_threads = flags.GetBool("pin-threads");
  return options;
}

/// Parses the supervised-runtime flag group (watchdog, overload policy,
/// fault injection) into `options` and arms the process-global injector.
/// Supervision and the non-blocking overload policies live in the sharded
/// executor, so they require --shards >= 2.
Status SupervisionFlagsInto(const FlagSet& flags, RunOptions* options) {
  options->supervise = flags.GetBool("supervise");
  ASEQ_ASSIGN_OR_RETURN(int64_t wd, flags.GetInt("watchdog-timeout-ms", 1000));
  if (wd <= 0) {
    return Status::InvalidArgument(
        "--watchdog-timeout-ms expects MS > 0 (how long a non-idle shard "
        "may go silent before it is restarted; default 1000)");
  }
  options->watchdog_timeout_ms = static_cast<double>(wd);
  ASEQ_ASSIGN_OR_RETURN(int64_t rec, flags.GetInt("recovery-every", 4096));
  if (rec < 0) {
    return Status::InvalidArgument(
        "--recovery-every expects N >= 0 events between in-memory recovery "
        "points (0 = only the initial one; default 4096)");
  }
  options->recovery_every = static_cast<size_t>(rec);
  ASEQ_ASSIGN_OR_RETURN(int64_t budget, flags.GetInt("max-restarts", 4));
  if (budget < 0) {
    return Status::InvalidArgument(
        "--max-restarts expects N >= 0 restarts per shard per recovery "
        "interval (default 4)");
  }
  options->max_restarts = static_cast<size_t>(budget);
  const std::string policy = flags.GetString("overload-policy", "block");
  if (policy == "block") {
    options->overload_policy = OverloadPolicy::kBlock;
  } else if (policy == "degrade-serial") {
    options->overload_policy = OverloadPolicy::kDegradeSerial;
  } else if (policy == "shed") {
    options->overload_policy = OverloadPolicy::kShed;
  } else {
    return Status::InvalidArgument(
        "--overload-policy must be block, degrade-serial, or shed");
  }
  ASEQ_ASSIGN_OR_RETURN(int64_t watermark,
                        flags.GetInt("overload-watermark", 12));
  if (watermark <= 0) {
    return Status::InvalidArgument(
        "--overload-watermark expects N > 0 queued items per shard before "
        "the overload policy engages (default 12)");
  }
  options->overload_high_watermark = static_cast<size_t>(watermark);
  if ((options->supervise ||
       options->overload_policy != OverloadPolicy::kBlock) &&
      options->num_shards < 2) {
    return Status::InvalidArgument(
        "--supervise and --overload-policy degrade-serial|shed require "
        "--shards N >= 2 (both live in the sharded executor)");
  }
  const std::string spec = flags.GetString("fault-spec");
  if (!spec.empty()) {
    ASEQ_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("fault-seed", 42));
    ASEQ_RETURN_NOT_OK(
        fault::Injector::Global().Arm(spec, static_cast<uint64_t>(seed)));
  } else if (flags.Has("fault-seed")) {
    return Status::InvalidArgument(
        "--fault-seed has no effect without --fault-spec "
        "(point[@lane]:trigger[:kind[:repeat]],...)");
  }
  return Status::OK();
}

/// Validates the checkpoint/restore flag combination up front — before any
/// trace is loaded or engine built — so misuse fails immediately with a
/// usage hint instead of after minutes of processing. Fills the checkpoint
/// fields of `options` and the snapshot path (empty if not restoring).
Status CheckpointFlagsInto(const FlagSet& flags, RunOptions* options,
                           std::string* restore_from) {
  ASEQ_ASSIGN_OR_RETURN(int64_t every, flags.GetInt("checkpoint-every", 0));
  if (every < 0) {
    return Status::InvalidArgument(
        "--checkpoint-every expects N >= 0 events (0 disables; e.g. "
        "--checkpoint-every 100000 --checkpoint-dir ckpts)");
  }
  std::string dir = flags.GetString("checkpoint-dir");
  if (every > 0 && dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every requires --checkpoint-dir DIR to write "
        "snapshots into (e.g. --checkpoint-dir ckpts)");
  }
  if (every == 0 && !dir.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-dir has no effect without --checkpoint-every N "
        "(N > 0 enables periodic snapshots)");
  }
  options->checkpoint_every = static_cast<size_t>(every);
  options->checkpoint_dir = dir;
  restore_from->clear();
  if (flags.Has("restore-from")) {
    *restore_from = flags.GetString("restore-from");
    if (restore_from->empty()) {
      return Status::InvalidArgument(
          "--restore-from expects a snapshot FILE (written by a previous "
          "run's --checkpoint-every; see --checkpoint-dir)");
    }
    std::ifstream probe(*restore_from, std::ios::binary);
    if (!probe) {
      return Status::InvalidArgument(
          "--restore-from: cannot open snapshot '" + *restore_from +
          "' (does the file exist? snapshots are named "
          "ckpt-<offset>.aseqckpt under --checkpoint-dir)");
    }
  }
  return Status::OK();
}

/// Checks the source flags: exactly one of --trace/--stock/--clicks, and
/// a readable --seed and --gap >= 0.
Status CheckSourceFlags(const FlagSet& flags) {
  ASEQ_RETURN_NOT_OK(flags.GetInt("seed", 42).status());
  ASEQ_ASSIGN_OR_RETURN(int64_t gap, flags.GetInt("gap", 6));
  if (gap < 0) {
    return Status::InvalidArgument(
        "--gap expects MS >= 0 (maximum inter-event gap for generated "
        "streams)");
  }
  int sources = 0;
  if (flags.Has("trace")) ++sources;
  if (flags.Has("stock")) ++sources;
  if (flags.Has("clicks")) ++sources;
  if (sources != 1) {
    return Status::InvalidArgument(
        "pick exactly one source: --trace FILE, --stock N, or --clicks N");
  }
  return Status::OK();
}

/// Generates the --stock/--clicks stream (source flags already checked).
Result<std::vector<Event>> GenerateEvents(const FlagSet& flags,
                                          Schema* schema) {
  ASEQ_ASSIGN_OR_RETURN(int64_t seed, flags.GetInt("seed", 42));
  ASEQ_ASSIGN_OR_RETURN(int64_t gap, flags.GetInt("gap", 6));
  if (flags.Has("stock")) {
    ASEQ_ASSIGN_OR_RETURN(int64_t n, flags.GetInt("stock", 0));
    if (n <= 0) return Status::InvalidArgument("--stock expects N > 0");
    StockStreamOptions options;
    options.seed = static_cast<uint64_t>(seed);
    options.num_events = static_cast<size_t>(n);
    options.max_gap_ms = gap;
    return GenerateStockStream(options, schema);
  }
  ASEQ_ASSIGN_OR_RETURN(int64_t n, flags.GetInt("clicks", 0));
  if (n <= 0) return Status::InvalidArgument("--clicks expects N > 0");
  ClickstreamOptions options;
  options.seed = static_cast<uint64_t>(seed);
  options.num_events = static_cast<size_t>(n);
  options.max_gap_ms = gap;
  return GenerateClickstream(options, schema);
}

/// Loads the whole event stream named by the source flags into memory
/// (generate and compare, which need the events as a vector).
Result<std::vector<Event>> LoadEvents(const FlagSet& flags, Schema* schema) {
  ASEQ_RETURN_NOT_OK(CheckSourceFlags(flags));
  std::vector<Event> events;
  if (flags.Has("trace")) {
    ASEQ_ASSIGN_OR_RETURN(events,
                          ReadTraceFile(flags.GetString("trace"), schema));
  } else {
    ASEQ_ASSIGN_OR_RETURN(events, GenerateEvents(flags, schema));
  }
  AssignSeqNums(&events);
  return events;
}

/// Opens the event stream named by the source flags for run/workload: a
/// trace streams through a TraceFileSource (registering names in `*schema`
/// as it reads them) parsed on `parse_threads` threads, a generated stream
/// is lent from a VectorSource.
Result<std::unique_ptr<StreamSource>> OpenSource(const FlagSet& flags,
                                                 Schema* schema,
                                                 size_t parse_threads) {
  ASEQ_RETURN_NOT_OK(CheckSourceFlags(flags));
  if (flags.Has("trace")) {
    ASEQ_ASSIGN_OR_RETURN(auto source,
                          TraceFileSource::Open(flags.GetString("trace"),
                                                schema, parse_threads));
    return std::unique_ptr<StreamSource>(std::move(source));
  }
  ASEQ_ASSIGN_OR_RETURN(std::vector<Event> events,
                        GenerateEvents(flags, schema));
  return std::unique_ptr<StreamSource>(
      std::make_unique<VectorSource>(std::move(events)));
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

/// Validates --limit (result lines `run` prints, default 20).
Result<size_t> LimitFromFlags(const FlagSet& flags) {
  ASEQ_ASSIGN_OR_RETURN(int64_t limit, flags.GetInt("limit", 20));
  if (limit < 0) {
    return Status::InvalidArgument(
        "--limit expects N >= 0 (how many of the last results to print)");
  }
  return static_cast<size_t>(limit);
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
  std::string kind = flags.GetString("engine", "aseq");
  std::unique_ptr<QueryEngine> engine;
  if (kind == "aseq") {
    ASEQ_ASSIGN_OR_RETURN(engine, CreateAseqEngine(query));
  } else if (kind == "stack") {
    engine = std::make_unique<StackEngine>(query);
  } else {
    return Status::InvalidArgument("--engine must be 'aseq' or 'stack'");
  }
  if (flags.GetBool("emit-on-change")) {
    engine = std::make_unique<ChangeDetectingEngine>(std::move(engine));
  }
  ASEQ_ASSIGN_OR_RETURN(int64_t slack, flags.GetInt("slack", 0));
  if (slack < 0) {
    return Status::InvalidArgument(
        "--slack expects MS >= 0 (the K-slack disorder bound; 0 disables "
        "reordering)");
  }
  if (slack > 0) {
    engine = std::make_unique<ReorderingEngine>(std::move(engine), slack);
  }
  return engine;
}

/// Per-run observability objects behind --metrics-out / --trace-out /
/// --stats-json, plus the process-global observer registrations
/// (checkpoint writes, fault fires). The destructor stops the emitter,
/// closes the trace, and clears the observers, so every exit path —
/// including aborted runs — leaves valid files and no dangling globals.
struct Observability {
  std::unique_ptr<obs::Telemetry> telemetry;
  std::unique_ptr<obs::TraceWriter> trace;
  std::unique_ptr<obs::MetricsEmitter> emitter;
  std::string stats_json_path;
  bool observers_registered = false;
  bool finished = false;

  ~Observability() {
    Finish();
    if (observers_registered) {
      ckpt::SetSnapshotWriteObserver({});
      fault::Injector::Global().SetFireObserver({});
    }
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
        std::vector<double> busy(busy_seconds.begin(), busy_seconds.end());
        emitter->AppendLine("{\"type\":\"utilization\",\"data\":" +
                            obs::UtilizationJson(busy) + "}");
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
  ASEQ_ASSIGN_OR_RETURN(int64_t every, flags.GetInt("metrics-every-ms", 1000));
  if (every <= 0) {
    return Status::InvalidArgument(
        "--metrics-every-ms expects MS > 0 between metric snapshots "
        "(default 1000)");
  }
  if (flags.Has("metrics-every-ms") && metrics_path.empty()) {
    return Status::InvalidArgument(
        "--metrics-every-ms has no effect without --metrics-out FILE");
  }
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
        metrics_path, static_cast<uint64_t>(every), o->telemetry.get(),
        "\"label\":\"" + label + "\"");
    if (!o->emitter->ok()) {
      return Status::IoError("cannot open --metrics-out file '" +
                             metrics_path + "'");
    }
    o->telemetry->set_emitter(o->emitter.get());
  }

  // Durability hook: every successful snapshot write flushes the metrics
  // file and stamps a trace instant, so the observability files on disk
  // cover at least as much of the run as the newest checkpoint.
  obs::Telemetry* tel = o->telemetry.get();
  ckpt::SetSnapshotWriteObserver(
      [tel](const std::string& /*path*/, uint64_t offset) {
        if (tel->trace() != nullptr) {
          tel->trace()->Instant("checkpoint", obs::TraceWriter::kCoordTid,
                                obs::MonotonicNanos(),
                                {obs::TraceWriter::NumArg("offset", offset)});
          tel->trace()->Flush();
        }
        if (tel->emitter() != nullptr) tel->emitter()->Flush();
      });
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
  o->observers_registered = true;
  return Status::OK();
}

/// Prints the end-of-run stats block shared by `run` and `workload` in ONE
/// stable, documented order (docs/internals.md §17; the golden test in
/// cli_test.cc locks it):
///   events, batch size, shards*, results*, ms/slide, peak objects,
///   admission, utilization*, dataplane*, supervisor*, overload*,
///   faults*, checkpoints*
/// Starred lines print only when their feature is active: shards when
/// sharding was requested; results for single-query runs; utilization and
/// dataplane when the run actually sharded; supervisor under --supervise;
/// overload under a non-block policy; faults when the injector is armed;
/// checkpoints when periodic checkpointing is on.
void PrintStatsBlock(std::ostream& out, const RunOptions& options,
                     const RunResultBase& result, const EngineStats& stats,
                     std::span<const double> busy_seconds,
                     const size_t* results_count) {
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
  out << "admission:     " << stats.adm_admitted << " admitted, "
      << stats.adm_rejected_local << " rejected, " << stats.adm_missing_attr
      << " missing-attr, " << stats.adm_generic_cmps << " generic cmps\n";
  if (result.num_shards > 1 && !busy_seconds.empty()) {
    const double max_busy =
        *std::max_element(busy_seconds.begin(), busy_seconds.end());
    const double min_busy =
        *std::min_element(busy_seconds.begin(), busy_seconds.end());
    const double imbalance = min_busy > 0.0 ? max_busy / min_busy : 1.0;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "utilization:   shard busy %.3fs min / %.3fs max "
                  "(imbalance %.2fx)\n",
                  min_busy, max_busy, imbalance);
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
    // Serial runs don't fold injector counters into engine stats, so the
    // process-wide count is the honest number for every policy.
    out << "faults:        " << fault::Injector::Global().fired_count()
        << " injected\n";
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
  std::vector<double> busy(busy_seconds.begin(), busy_seconds.end());
  std::vector<obs::StatsJsonEntry> entries;
  entries.push_back({label, &stats, results_count});
  if (!obs::WriteStatsJson(obsv.stats_json_path, engine_name,
                           result.num_shards, result.elapsed_seconds * 1e3,
                           busy, ingest, entries)) {
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

/// Parses the flag preamble of `run` and `workload` — batch, checkpoint
/// and supervision flags, then --limit when `limit` is set, the stop flag,
/// and observability (labeled `label` in the metrics header) — before any
/// expensive work, so a typo'd invocation fails in microseconds.
Status SetupRun(const FlagSet& flags, const std::string& label, size_t* limit,
                RunSetup* setup) {
  ASEQ_ASSIGN_OR_RETURN(setup->options, BatchOptionsFromFlags(flags));
  ASEQ_RETURN_NOT_OK(
      CheckpointFlagsInto(flags, &setup->options, &setup->restore_from));
  ASEQ_RETURN_NOT_OK(SupervisionFlagsInto(flags, &setup->options));
  setup->faults_armed = !flags.GetString("fault-spec").empty();
  if (limit != nullptr) {
    ASEQ_ASSIGN_OR_RETURN(*limit, LimitFromFlags(flags));
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
/// with `make_policy` before opening the source, so a bad engine or
/// strategy flag fails before a trace is read or a stream generated; then
/// restores when --restore-from is set (skipping the source to the
/// snapshot's offset), runs the source to its end, and reports what both
/// commands share: the serial-fallback note, a source error, the "restored
/// from" line, a supervisor fault, an interrupt, a checkpoint warning.
/// Returns null when the command must exit 1; the reason is then printed.
template <class EngineT, class MakePolicyFn>
std::unique_ptr<exec::ExecutionPolicyT<EngineT>> RunPolicy(
    const FlagSet& flags, Schema* schema, RunSetup* setup,
    const MakePolicyFn& make_policy, RunResultOf<EngineT>* result,
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
      flags, schema, TraceParseThreads(std::thread::hardware_concurrency()));
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
  Status known = flags.CheckKnown(
      {"query", "trace", "stock", "clicks", "engine", "slack", "seed", "gap",
       "limit", "quiet", "emit-on-change", "batch-size", "shards",
       "checkpoint-every", "checkpoint-dir", "restore-from", "supervise",
       "watchdog-timeout-ms", "recovery-every", "max-restarts",
       "overload-policy", "overload-watermark", "fault-spec", "fault-seed",
       "pin-threads", "metrics-out", "metrics-every-ms", "trace-out",
       "stats-json"});
  if (!known.ok()) return Fail(err, known, 2);
  RunSetup setup;
  size_t limit = 0;
  Status setup_status =
      SetupRun(flags, flags.GetString("engine", "aseq"), &limit, &setup);
  if (!setup_status.ok()) return Fail(err, setup_status);
  const RunOptions& options = setup.options;
  Schema schema;
  auto query = CompileQuery(flags, &schema);
  if (!query.ok()) return Fail(err, query.status());
  ResultTail results(flags.GetBool("quiet") ? 0 : limit);
  setup.options.output_sink = &results;
  // All execution goes through a policy: serial for --shards 1 (the
  // default), partition-parallel otherwise.
  RunResult result;
  auto policy = RunPolicy<QueryEngine>(
      flags, &schema, &setup,
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
  if (!flags.GetBool("quiet")) results.Print(out);
  out << "engine:        " << policy->name() << "\n";
  out << "query:         " << query->ToString() << "\n";
  const size_t results_count = results.total();
  PrintStatsBlock(out, options, result, policy->stats(),
                  policy->shard_busy_seconds(), &results_count);
  MaybeWriteStatsJson(setup.obsv, "run", policy->name(), result,
                      policy->stats(), policy->shard_busy_seconds(),
                      setup.ingest, results_count, err);
  return 0;
}

int CmdExplain(const FlagSet& flags, std::ostream& out, std::ostream& err) {
  Status known = flags.CheckKnown({"query"});
  if (!known.ok()) return Fail(err, known, 2);
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
  const char* engine = cq.has_join_predicates() ? "StackBased (join predicates)"
                       : cq.partitioned()       ? "A-Seq(HPC)"
                       : cq.has_window()        ? "A-Seq(SEM)"
                                                : "A-Seq(DPC)";
  out << "engine:     " << engine << "\n";
  return 0;
}

int CmdGenerate(const FlagSet& flags, std::ostream& out, std::ostream& err) {
  Status known = flags.CheckKnown({"stock", "clicks", "out", "seed", "gap"});
  if (!known.ok()) return Fail(err, known, 2);
  std::string path = flags.GetString("out");
  if (path.empty()) {
    err << "InvalidArgument: --out FILE is required\n";
    return 1;
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
  Status known = flags.CheckKnown(
      {"query", "trace", "stock", "clicks", "seed", "gap", "batch-size"});
  if (!known.ok()) return Fail(err, known, 2);
  Schema schema;
  auto query = CompileQuery(flags, &schema);
  if (!query.ok()) return Fail(err, query.status());
  auto options = BatchOptionsFromFlags(flags);
  if (!options.ok()) return Fail(err, options.status());
  auto events = LoadEvents(flags, &schema);
  if (!events.ok()) return Fail(err, events.status());
  StackEngine stack(*query);
  RunResult stack_run = exec::RunSerial(*options, *events, &stack);

  auto aseq = CreateAseqEngine(*query);
  if (!aseq.ok()) {
    err << aseq.status().ToString()
        << " (showing the stack baseline only)\n";
    out << "StackBased: " << stack_run.MillisPerSlide() << " ms/slide, peak "
        << stack.stats().objects.peak() << " objects\n";
    return 0;
  }
  RunResult aseq_run = exec::RunSerial(*options, *events, aseq->get());

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
  Status known = flags.CheckKnown(
      {"queries", "trace", "stock", "clicks", "strategy", "seed", "gap",
       "batch-size", "shards", "checkpoint-every", "checkpoint-dir",
       "restore-from", "supervise", "watchdog-timeout-ms", "recovery-every",
       "max-restarts", "overload-policy", "overload-watermark", "fault-spec",
       "fault-seed", "pin-threads", "metrics-out", "metrics-every-ms",
       "trace-out", "stats-json"});
  if (!known.ok()) return Fail(err, known, 2);
  const std::string strategy = flags.GetString("strategy", "nonshare");
  RunSetup setup;
  Status setup_status = SetupRun(flags, strategy, nullptr, &setup);
  if (!setup_status.ok()) return Fail(err, setup_status);
  const RunOptions& options = setup.options;
  std::string path = flags.GetString("queries");
  if (path.empty()) {
    err << "InvalidArgument: --queries FILE is required (one query per "
           "line; # comments)\n";
    return 1;
  }
  std::ifstream in(path);
  if (!in) {
    err << "IoError: cannot open queries file: " << path << "\n";
    return 1;
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
    err << "InvalidArgument: no queries in " << path << "\n";
    return 1;
  }
  auto made = MakeStrategyFactory(strategy, queries);
  if (!made.ok()) return Fail(err, made.status());
  // The factory builds one engine per shard (once, serially); the cc plan
  // and the hybrid routing print on the first construction only.
  bool first = true;
  exec::MultiEngineFactory factory = [&, make = std::move(made).value()] {
    const bool print = std::exchange(first, false);
    if (print && strategy == "cc") {
      out << "plan: " << PlanChopConnect(queries).ToString(schema) << "\n";
    }
    auto e = make();
    if (print && strategy == "hybrid" && e.ok()) {
      const auto& routing = static_cast<HybridMultiEngine&>(**e).routing();
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        out << "  Q" << (qi + 1) << " -> " << routing[qi] << "\n";
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
      flags, &schema, &setup,
      [&](std::string* fallback_reason) {
        return exec::MakeMultiPolicy(queries, factory, options,
                                     fallback_reason);
      },
      &result, out, err);
  if (policy == nullptr) return 1;
  out << "strategy:      " << policy->name() << "\n";
  out << "queries:       " << queries.size() << "\n";
  PrintStatsBlock(out, options, result, policy->stats(),
                  policy->shard_busy_seconds(), nullptr);
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

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  auto flags = FlagSet::Parse(args);
  if (!flags.ok()) {
    err << flags.status().ToString() << "\n" << kUsage;
    return 2;
  }
  if (flags->positional().size() != 1) {
    err << kUsage;
    return 2;
  }
  const std::string& cmd = flags->positional()[0];
  if (cmd == "version") {
    out << "aseq " << kVersionString << " — reproduction of: "
        << kPaperCitation << "\n";
    return 0;
  }
  if (cmd == "run") return CmdRun(*flags, out, err);
  if (cmd == "explain") return CmdExplain(*flags, out, err);
  if (cmd == "generate") return CmdGenerate(*flags, out, err);
  if (cmd == "compare") return CmdCompare(*flags, out, err);
  if (cmd == "workload") return CmdWorkload(*flags, out, err);
  err << "unknown command '" << cmd << "'\n" << kUsage;
  return 2;
}

}  // namespace aseq
