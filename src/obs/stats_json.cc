#include "obs/stats_json.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "obs/trace_writer.h"

namespace aseq {
namespace obs {
namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  return buf;
}

}  // namespace

std::string EngineStatsToJson(const EngineStats& stats) {
  std::ostringstream os;
  os << "{"
     << "\"events_processed\":" << stats.events_processed
     << ",\"outputs\":" << stats.outputs
     << ",\"work_units\":" << stats.work_units
     << ",\"objects_current\":" << stats.objects.current()
     << ",\"objects_peak\":" << stats.objects.peak()
     << ",\"batches_processed\":" << stats.batches_processed
     << ",\"max_batch_events\":" << stats.max_batch_events
     << ",\"dropped_events\":" << stats.dropped_events
     << ",\"ht_probes\":" << stats.ht_probes
     << ",\"ht_probe_steps\":" << stats.ht_probe_steps
     << ",\"ht_slots\":" << stats.ht_slots
     << ",\"ht_entries\":" << stats.ht_entries
     << ",\"adm_admitted\":" << stats.adm_admitted
     << ",\"adm_rejected_local\":" << stats.adm_rejected_local
     << ",\"adm_missing_attr\":" << stats.adm_missing_attr
     << ",\"adm_generic_cmps\":" << stats.adm_generic_cmps
     << ",\"fault_injected\":" << stats.fault_injected
     << ",\"fault_restarts\":" << stats.fault_restarts
     << ",\"fault_replayed_events\":" << stats.fault_replayed_events
     << ",\"shed_partitions\":" << stats.shed_partitions
     << ",\"shed_events\":" << stats.shed_events
     << ",\"overload_stalls\":" << stats.overload_stalls
     << ",\"pub_batches\":" << stats.pub_batches
     << ",\"ring_full_waits\":" << stats.ring_full_waits
     << ",\"ring_spins\":" << stats.ring_spins << "}";
  return os.str();
}

std::string UtilizationJson(const std::vector<double>& busy_seconds) {
  std::ostringstream os;
  os << "{\"busy_seconds\":[";
  for (size_t i = 0; i < busy_seconds.size(); ++i) {
    if (i) os << ",";
    os << FormatDouble(busy_seconds[i]);
  }
  double max_busy = 0.0, min_busy = 0.0;
  if (!busy_seconds.empty()) {
    max_busy = *std::max_element(busy_seconds.begin(), busy_seconds.end());
    min_busy = *std::min_element(busy_seconds.begin(), busy_seconds.end());
  }
  const double imbalance = min_busy > 0.0 ? max_busy / min_busy : 1.0;
  os << "],\"max_busy\":" << FormatDouble(max_busy)
     << ",\"min_busy\":" << FormatDouble(min_busy)
     << ",\"imbalance\":" << FormatDouble(imbalance) << "}";
  return os.str();
}

std::string IngestStatsToJson(const IngestStats& ingest) {
  std::ostringstream os;
  os << "{\"parse_threads\":" << ingest.parse_threads
     << ",\"chunks\":" << ingest.chunks << ",\"bytes\":" << ingest.bytes
     << ",\"consumer_wait_s\":" << FormatDouble(ingest.consumer_wait_s)
     << ",\"parse_busy_s\":" << FormatDouble(ingest.parse_busy_s)
     << ",\"remapped_chunks\":" << ingest.remapped_chunks
     << ",\"values_parsed\":" << ingest.values_parsed
     << ",\"values_skipped\":" << ingest.values_skipped << "}";
  return os.str();
}

std::string CoordinatorStatsToJson(const CoordinatorStats& coordinator) {
  std::ostringstream os;
  os << "{\"route_s\":" << FormatDouble(coordinator.route_s)
     << ",\"publish_s\":" << FormatDouble(coordinator.publish_s)
     << ",\"merge_s\":" << FormatDouble(coordinator.merge_s)
     << ",\"unshipped_events\":" << coordinator.unshipped_events << "}";
  return os.str();
}

double PeakRssMb() {
#if defined(__linux__)
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    // "VmHWM:     14652 kB"
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
#endif
  return -1;
}

bool WriteStatsJson(const std::string& path, const std::string& engine,
                    size_t shards, double elapsed_ms,
                    const std::vector<double>& busy_seconds,
                    const IngestStats& ingest,
                    const std::vector<StatsJsonEntry>& entries,
                    const CoordinatorStats* coordinator) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out.is_open()) return false;
  out << "{\"engine\":\"" << JsonEscape(engine) << "\",\"shards\":" << shards
      << ",\"elapsed_ms\":" << FormatDouble(elapsed_ms);
  const double peak_rss_mb = PeakRssMb();
  if (peak_rss_mb >= 0) out << ",\"peak_rss_mb\":" << FormatDouble(peak_rss_mb);
  out << ",\"utilization\":" << UtilizationJson(busy_seconds)
      << ",\"ingest\":" << IngestStatsToJson(ingest);
  if (coordinator != nullptr) {
    out << ",\"coordinator\":" << CoordinatorStatsToJson(*coordinator);
  }
  out << ",\"queries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i) out << ",";
    out << "{\"label\":\"" << JsonEscape(entries[i].label)
        << "\",\"results\":" << entries[i].results << ",\"stats\":"
        << (entries[i].stats ? EngineStatsToJson(*entries[i].stats) : "{}")
        << "}";
  }
  out << "]}\n";
  return out.good();
}

}  // namespace obs
}  // namespace aseq
