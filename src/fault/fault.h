#ifndef ASEQ_FAULT_FAULT_H_
#define ASEQ_FAULT_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace aseq {
namespace fault {

/// \brief The failure modes the injector can simulate.
enum class Kind : uint8_t {
  /// The component dies abruptly. A shard worker exits its loop without
  /// cleanup (the supervisor must detect and restart it); a coordinator
  /// component terminates the whole process with kCrashExitCode
  /// (recovery is then the --restore-from path).
  kCrash,
  /// The component hangs: a shard worker parks indefinitely and stops
  /// heartbeating until it is quarantined — by the supervisor, or, in an
  /// unsupervised run, by the teardown after a stop request (until then
  /// its ring fills and the run waits). Coordinator points ignore stall (a
  /// stalled coordinator would hang the test harness).
  kStall,
  /// The component runs, but each faulted step takes an injected,
  /// seed-deterministic delay — the knob for forcing queue backlog and
  /// overload-control behavior without real load.
  kSlow,
  /// An I/O operation fails with Status::IoError (checkpoint writes).
  kIoError,
  /// The routing layer reports a (simulated) full-queue backpressure
  /// signal for the current event, forcing the overload policy to engage
  /// deterministically.
  kOverload,
};

/// \brief The named code locations faults can be armed at.
///
/// The catalog (docs/internals.md §14):
///   router.route  one hit per event routed by exec::ShardRouter, fired
///                 inside RouteBatch in seq order before admission
///                 (coordinator thread; honors crash, overload)
///   worker.op     one hit per op executed by a ShardedExecutor worker,
///                 counted per shard via the spec's @shard selector
///                 (honors crash, stall, slow)
///   ckpt.write    one hit per snapshot file written by
///                 ckpt::WriteSnapshotFile (honors io-error, crash)
///   admit.batch   one hit per plan::BatchAdmitter::AdmitBatch call
///                 (honors crash, slow)
enum class Point : uint8_t {
  kRouterRoute = 0,
  kWorkerOp,
  kCkptWrite,
  kAdmitBatch,
};
inline constexpr size_t kNumPoints = 4;

/// Exit code a simulated coordinator crash terminates the process with,
/// so harnesses can tell an injected crash from a real abort.
inline constexpr int kCrashExitCode = 70;

const char* PointName(Point p);
const char* KindName(Kind k);

/// \brief One armed fault: fires at a specific hit count of one point.
struct ArmedFault {
  Point point = Point::kWorkerOp;
  Kind kind = Kind::kCrash;
  /// Lane selector: worker.op counts hits per shard, so `worker.op@2`
  /// arms against shard 2's own (deterministic) op sequence. Coordinator
  /// points always count on lane 0.
  uint32_t lane = 0;
  /// Fires on hits [trigger, trigger + repeat) of (point, lane); 1-based.
  uint64_t trigger = 1;
  uint64_t repeat = 1;
  /// kSlow: per-fire delay, derived deterministically from the arming
  /// seed so a replayed run injects byte-identical timing pressure.
  uint32_t delay_us = 0;
};

/// \brief Deterministic fault-injection registry.
///
/// Faults are armed before a run from a `--fault-spec` string and fire at
/// exact hit counts of compiled-in injection points. Because every
/// counted sequence is deterministic — the coordinator routes events in
/// stream order, and each shard worker executes its routed ops in queue
/// order — a given spec reproduces the same failure at the same state on
/// every run, which is what lets the recovery tests demand bit-exact
/// equivalence with an unfailed run.
///
/// Hit() is called from worker threads and the coordinator concurrently:
/// counters are per-(point, lane) atomics, and the armed entry list is
/// immutable while armed (Arm/Disarm must not race with Hit — arm before
/// the run starts, disarm after it joins).
class Injector {
 public:
  /// The process-wide injector every instrumented component consults.
  static Injector& Global();

  /// What a fired fault tells the injection site to do.
  struct Fired {
    Kind kind = Kind::kCrash;
    uint32_t delay_us = 0;  // meaningful for kSlow
  };

  /// Arms from a spec string: comma-separated entries of the form
  ///   point[@lane]:trigger[:kind[:repeat]]
  /// e.g. "worker.op@1:500:crash", "ckpt.write:2:io-error",
  /// "worker.op@0:100:slow:2048". Kind defaults to crash; repeat defaults
  /// to 1 (256 for slow — one slow hit is rarely observable). `seed`
  /// derives the slow-fire delays. Replaces any previous arming and
  /// resets all hit counters. An empty spec is InvalidArgument.
  Status Arm(std::string_view spec, uint64_t seed = 0);

  /// Clears all armed faults and counters.
  void Disarm();

  /// Cheap armed check for hot paths (one relaxed load).
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Counts one hit of `point` on `lane` and returns the fault to
  /// simulate, if one fires. Call sites act only on the kinds they
  /// support and ignore the rest.
  std::optional<Fired> Hit(Point point, size_t lane = 0);

  /// Total faults fired since arming (all points).
  uint64_t fired_count() const {
    return fired_.load(std::memory_order_relaxed);
  }

  /// Hits counted at (point, lane) since arming.
  uint64_t hits(Point point, size_t lane = 0) const;

  const std::vector<ArmedFault>& entries() const { return entries_; }

  /// Observer invoked with (point, kind, lane) each time a fault fires —
  /// the telemetry layer registers one to stamp a "fault-injected" trace
  /// instant (src/obs/). Called from whatever thread hit the point
  /// (workers, coordinator), so the observer must be thread-safe; it runs
  /// before the call site simulates the failure (a crash observer call IS
  /// delivered). Register before arming, clear (empty function) after the
  /// run joins — the same no-race-with-Hit contract as Arm/Disarm.
  void SetFireObserver(std::function<void(Point, Kind, size_t)> observer) {
    fire_observer_ = std::move(observer);
  }

 private:
  /// Per-(point, lane) hit counters; lanes beyond the cap share the last
  /// slot (the executor caps shards at 64 well below this).
  static constexpr size_t kMaxLanes = 128;

  std::atomic<bool> armed_{false};
  std::vector<ArmedFault> entries_;
  std::array<std::atomic<uint64_t>, kNumPoints * kMaxLanes> counters_{};
  std::atomic<uint64_t> fired_{0};
  std::function<void(Point, Kind, size_t)> fire_observer_;
};

/// Parses a kind name ("crash", "stall", "slow", "io-error", "overload").
Status ParseKind(std::string_view name, Kind* kind);

}  // namespace fault
}  // namespace aseq

#endif  // ASEQ_FAULT_FAULT_H_
