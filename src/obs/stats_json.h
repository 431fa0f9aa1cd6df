#ifndef ASEQ_OBS_STATS_JSON_H_
#define ASEQ_OBS_STATS_JSON_H_

#include <span>
#include <string>
#include <vector>

#include "metrics/metrics.h"

namespace aseq {
namespace obs {

/// \brief One engine's end-of-run record for the --stats-json dump.
struct StatsJsonEntry {
  std::string label;  // query name, or "run" for single-query runs
  const EngineStats* stats = nullptr;
  uint64_t results = 0;
};

/// Renders EngineStats as a JSON object (no trailing newline): every
/// kStatsFields row's key and value in table order, zeros included, so
/// consumers get a stable schema.
std::string EngineStatsToJson(const EngineStats& stats);

/// Renders IngestStats as a JSON object (no trailing newline):
///   {"parse_threads":N,"chunks":N,"bytes":N,"consumer_wait_s":S,
///    "parse_busy_s":S,"remapped_chunks":N,"values_parsed":N,
///    "values_skipped":N}
std::string IngestStatsToJson(const IngestStats& ingest);

/// Renders CoordinatorStats as a JSON object (no trailing newline):
///   {"route_s":S,"publish_s":S,"merge_s":S,"unshipped_events":N}
std::string CoordinatorStatsToJson(const CoordinatorStats& coordinator);

/// The process's own peak resident set in MB (VmHWM of /proc/self/status),
/// or a negative value where that is not available (non-Linux hosts).
double PeakRssMb();

/// Writes the one-shot end-of-run JSON document:
///   {"engine":..., "shards":N, "elapsed_ms":..., "peak_rss_mb":...,
///    "utilization":{...}, "ingest":{...}, "coordinator":{...},
///    "queries":[{"label":...,"results":...,"stats":{...}}, ...]}
/// `busy_seconds` may be empty (serial run: no per-shard spans).
/// `coordinator` is written for sharded runs (non-null) only, and
/// `peak_rss_mb` only where PeakRssMb() knows it. Returns false if the file
/// could not be written.
bool WriteStatsJson(const std::string& path, const std::string& engine,
                    size_t shards, double elapsed_ms,
                    std::span<const double> busy_seconds,
                    const IngestStats& ingest,
                    const std::vector<StatsJsonEntry>& entries,
                    const CoordinatorStats* coordinator = nullptr);

/// \brief The busiest and idlest shard of a run and their ratio.
struct BusySummary {
  double max = 0;
  double min = 0;
  /// max / min, 1.0 when min is zero (or there are no shards).
  double imbalance = 1.0;
};
BusySummary SummarizeBusy(std::span<const double> busy_seconds);

/// Formats the per-shard utilization object used by both WriteStatsJson and
/// the metrics emitter's end-of-run summary line:
///   {"busy_seconds":[...],"max_busy":...,"min_busy":...,"imbalance":R}
/// from SummarizeBusy.
std::string UtilizationJson(std::span<const double> busy_seconds);

}  // namespace obs
}  // namespace aseq

#endif  // ASEQ_OBS_STATS_JSON_H_
