// Telemetry: one attachable bundle of registry + trace log + sampler.
//
// This is the object the rest of the simulator sees. A subsystem that
// wants instrumentation implements an `attach_telemetry(Telemetry*)`
// hook that registers its handles once; the hot path then works through
// those (possibly null) handles. `Ssd::attach_telemetry` fans the bundle
// out to the scheme, block manager, GC policies and the controller's
// OpStream (op_stream.h: every per-op observer is a fold over one
// OpRecord), and the replayer drives the sampler.
//
// Environment knobs (read by from_env(); all optional):
//
//   PPSSD_TRACE=out.trace.json        Chrome trace-event output
//   PPSSD_TRACE_CATEGORIES=gc,cache   category filter (default: all)
//   PPSSD_TRACE_LIMIT=n               hard cap on emitted events
//   PPSSD_METRICS=out.metrics.csv     end-of-run registry dump
//                                     (.json extension selects JSON)
//   PPSSD_TIMESERIES=out.ts.csv       windowed registry deltas
//   PPSSD_SAMPLE_REQUESTS=n           window = n host requests (default 1000)
//   PPSSD_SAMPLE_MS=f                 window = f ms of sim time
//   PPSSD_ATTRIB=out.ledger.bin       per-request blame ledger (binary;
//                                     read with tools/latency_explain)
//
// core::run_experiment writes each of these files once per cell, named
// by the cell's key (out.ledger.bin -> out.ledger.<key>.bin, e.g.
// out.ledger.IPU-ts0-pe4000-b2048-s0.02.bin).
//
// The numeric knobs must parse in full (0 = no cap / no trigger); a
// malformed value exits 2 with one line naming the knob (common/knob.h).
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>

#include "common/types.h"
#include "telemetry/attribution/attribution.h"
#include "telemetry/metrics.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace_log.h"

namespace ppssd::telemetry {

struct TelemetryOptions {
  std::string trace_path;
  std::uint32_t trace_categories = kAllCategories;
  std::uint64_t trace_max_events = 0;
  std::string metrics_path;
  std::string timeseries_path;
  std::uint64_t sample_every_requests = 0;
  SimTime sample_every_ns = 0;
  std::string attribution_path;
  /// Build the blame ledger even without a dump path (in-memory
  /// aggregates / test use; implied by attribution_path).
  bool attribution = false;

  /// True when at least one output artifact is requested.
  [[nodiscard]] bool any() const {
    return !trace_path.empty() || !metrics_path.empty() ||
           !timeseries_path.empty() || !attribution_path.empty() ||
           attribution;
  }

  [[nodiscard]] static TelemetryOptions from_env();
};

class Telemetry {
 public:
  explicit Telemetry(const TelemetryOptions& opts);

  /// In-memory bundle: registry only, no artifacts (test / embedding use).
  Telemetry();

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;
  ~Telemetry();

  /// Build from the PPSSD_* environment; nullptr when none are set.
  [[nodiscard]] static std::unique_ptr<Telemetry> from_env();

  [[nodiscard]] MetricsRegistry& registry() { return registry_; }
  [[nodiscard]] const MetricsRegistry& registry() const { return registry_; }
  /// Null when no trace output is configured.
  [[nodiscard]] TraceLog* trace() { return trace_.get(); }
  [[nodiscard]] TimeSeriesSampler* sampler() { return sampler_.get(); }
  /// Null unless attribution was requested (PPSSD_ATTRIB / options).
  [[nodiscard]] attribution::AttributionLedger* attribution() {
    return attribution_.get();
  }

  /// Host-request tick (drives the sampler window clock).
  void on_request(SimTime now) {
    if (sampler_) sampler_->on_request(now);
  }

  /// Close the current sampler window, dump the metrics CSV, finalize
  /// the trace. Idempotent; also runs from the destructor.
  void finish(SimTime end);

 private:
  TelemetryOptions opts_;
  MetricsRegistry registry_;
  std::unique_ptr<TraceLog> trace_;
  std::ofstream timeseries_file_;
  std::unique_ptr<TimeSeriesSampler> sampler_;
  // After registry_: attached gauges poll the ledger, so it must die
  // first (no snapshots run during destruction either way).
  std::unique_ptr<attribution::AttributionLedger> attribution_;
  bool finished_ = false;
};

}  // namespace ppssd::telemetry
