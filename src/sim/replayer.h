// Trace replay loop: drives an Ssd with a TraceSource and accumulates the
// host-visible metrics (latency distributions, in-flight statistics).
//
// Requests are submitted at their arrival times and completions are
// harvested from the device's completion queue in *completion* order,
// which generally differs from submission order (a short read on an idle
// chip overtakes a long GC-laden write on a busy one).
#pragma once

#include <cstdint>

#include "common/latency_recorder.h"
#include "perf/progress.h"
#include "sim/ssd.h"
#include "telemetry/introspect/snapshotter.h"
#include "trace/record.h"

namespace ppssd::sim {

struct ReplayResult {
  LatencyRecorder latency;
  std::uint64_t requests = 0;
  SimTime makespan = 0;  // last completion time
  /// Time-weighted mean in-flight requests over [first arrival, last
  /// completion]: the integral of the in-flight count divided by the
  /// active span. The quantity a device-side QD monitor would report.
  double avg_queue_depth = 0.0;
  /// Legacy definition: the mean in-flight count sampled at each request
  /// arrival. Biased low for bursty traces (samples cluster where
  /// arrivals do, not where queue time accumulates).
  double avg_queue_depth_at_arrival = 0.0;
  std::uint64_t max_queue_depth = 0;
};

class Replayer {
 public:
  /// Records fetched per TraceSource::next_batch call. Small enough that
  /// the arena stays cache-resident, large enough that virtual dispatch
  /// and decode-loop overhead amortize to noise.
  static constexpr std::size_t kBatch = 256;

  explicit Replayer(Ssd& ssd) : ssd_(&ssd) {}

  /// Replay the source to exhaustion (or `max_requests` if nonzero).
  ReplayResult replay(trace::TraceSource& src, std::uint64_t max_requests = 0);

  /// Optional live-progress sink, ticked every few thousand requests (a
  /// null sink costs one pointer test per request). Caller keeps
  /// ownership; the sink must outlive the replay.
  void set_progress(perf::ProgressSink* sink) { progress_ = sink; }

  /// Optional introspection snapshotter, ticked at every request arrival
  /// (a null snapshotter costs one pointer test per request). Caller
  /// keeps ownership and calls finish() after the replay.
  void set_snapshotter(telemetry::introspect::Snapshotter* snap) {
    snapshot_ = snap;
  }

 private:
  /// Tick granularity: frequent enough for a smooth ETA, rare enough to
  /// stay invisible in the replay loop's profile.
  static constexpr std::uint64_t kProgressMask = (1u << 14) - 1;

  Ssd* ssd_;
  perf::ProgressSink* progress_ = nullptr;
  telemetry::introspect::Snapshotter* snapshot_ = nullptr;
};

}  // namespace ppssd::sim
