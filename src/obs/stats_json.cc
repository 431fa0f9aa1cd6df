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
  char sep = '{';
  for (const StatsField& f : kStatsFields) {
    os << sep << '"' << f.key << "\":" << f.Get(stats);
    sep = ',';
  }
  os << '}';
  return os.str();
}

BusySummary SummarizeBusy(std::span<const double> busy_seconds) {
  BusySummary summary;
  if (busy_seconds.empty()) return summary;
  const auto [min, max] = std::minmax_element(busy_seconds.begin(),
                                              busy_seconds.end());
  summary.max = *max;
  summary.min = *min;
  if (summary.min > 0.0) summary.imbalance = summary.max / summary.min;
  return summary;
}

std::string UtilizationJson(std::span<const double> busy_seconds) {
  std::ostringstream os;
  os << "{\"busy_seconds\":[";
  for (size_t i = 0; i < busy_seconds.size(); ++i) {
    if (i) os << ",";
    os << FormatDouble(busy_seconds[i]);
  }
  const BusySummary busy = SummarizeBusy(busy_seconds);
  os << "],\"max_busy\":" << FormatDouble(busy.max)
     << ",\"min_busy\":" << FormatDouble(busy.min)
     << ",\"imbalance\":" << FormatDouble(busy.imbalance) << "}";
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
                    std::span<const double> busy_seconds,
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
