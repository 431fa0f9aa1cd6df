#include "obs/emitter.h"

#include <chrono>

namespace aseq {
namespace obs {

MetricsEmitter::MetricsEmitter(const std::string& path, uint64_t every_ms,
                               Telemetry* tel,
                               const std::string& header_extra)
    : tel_(tel),
      every_ms_(every_ms == 0 ? 1 : every_ms),
      out_(path, std::ios::out | std::ios::trunc) {
  ok_ = out_.is_open();
  if (!ok_) return;
  out_ << "{\"type\":\"header\",\"version\":1,\"shards\":"
       << tel_->num_shards() << ",\"every_ms\":" << every_ms_;
  if (!header_extra.empty()) out_ << "," << header_extra;
  out_ << "}\n";
}

MetricsEmitter::~MetricsEmitter() { Stop(); }

void MetricsEmitter::Start() {
  if (!ok_ || started_) return;
  started_ = true;
  thread_ = std::thread(&MetricsEmitter::ThreadMain, this);
}

void MetricsEmitter::ThreadMain() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, std::chrono::milliseconds(every_ms_),
                     [this] { return stop_; })) {
      break;  // Stop() emits the final interval itself.
    }
    EmitIntervalLocked();
  }
}

void MetricsEmitter::Flush() {
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mu_);
  EmitIntervalLocked();
  out_.flush();
}

void MetricsEmitter::Stop() {
  if (!ok_) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
    EmitIntervalLocked();
    out_.flush();
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsEmitter::AppendLine(const std::string& json) {
  if (!ok_) return;
  std::lock_guard<std::mutex> lock(mu_);
  out_ << json << "\n";
}

void MetricsEmitter::WriteHistogramLocked(const char* key,
                                          const LogHistogram& h,
                                          bool trailing_comma) {
  LogHistogram::Snapshot snap;
  h.SnapshotInto(&snap);
  out_ << "\"" << key << "\":{\"count\":" << snap.count
       << ",\"mean\":" << static_cast<uint64_t>(snap.Mean())
       << ",\"p50\":" << snap.ValueAtQuantile(0.50)
       << ",\"p95\":" << snap.ValueAtQuantile(0.95)
       << ",\"p99\":" << snap.ValueAtQuantile(0.99) << ",\"max\":" << snap.max
       << "}";
  if (trailing_comma) out_ << ",";
}

void MetricsEmitter::EmitIntervalLocked() {
  const uint64_t k = intervals_++;
  const uint64_t t_ms = (MonotonicNanos() - tel_->start_ns()) / 1000000;
  for (size_t s = 0; s < tel_->num_shards(); ++s) {
    const ShardCell& c = tel_->shard(s);
    out_ << "{\"type\":\"shard\",\"interval\":" << k << ",\"t_ms\":" << t_ms
         << ",\"shard\":" << s << ",\"ops\":" << c.ops.value()
         << ",\"events\":" << c.events.value()
         << ",\"outputs\":" << c.outputs.value()
         << ",\"items\":" << c.items.value()
         << ",\"parks\":" << c.parks.value()
         << ",\"busy_ns\":" << c.busy_ns.value()
         << ",\"park_ns\":" << c.park_ns.value()
         << ",\"ring_occupancy\":" << c.ring_occupancy.value() << ",";
    WriteHistogramLocked("op_service_ns", c.op_service_ns, true);
    WriteHistogramLocked("park_wait_ns", c.park_wait_ns, true);
    WriteHistogramLocked("trigger_latency_ns", c.trigger_latency_ns, false);
    out_ << "}\n";
  }
  const CoordCell& c = tel_->coord();
  out_ << "{\"type\":\"coord\",\"interval\":" << k << ",\"t_ms\":" << t_ms
       << ",\"batches\":" << c.batches.value()
       << ",\"events\":" << c.events.value()
       << ",\"publications\":" << c.publications.value()
       << ",\"ring_full_waits\":" << c.ring_full_waits.value()
       << ",\"barriers\":" << c.barriers.value()
       << ",\"checkpoints\":" << c.checkpoints.value() << ",";
  WriteHistogramLocked("admit_ns", c.admit_ns, true);
  WriteHistogramLocked("barrier_ns", c.barrier_ns, true);
  WriteHistogramLocked("ring_occupancy", c.ring_occupancy, false);
  out_ << "}\n";
}

}  // namespace obs
}  // namespace aseq
