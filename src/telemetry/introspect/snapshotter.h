// The introspection walker: periodically serialises the full device
// state of a bound cache scheme into the snapshot stream, and owns the
// crash flight recorder.
//
// Layering: this is the one introspection component that sees the whole
// device (FlashArray, BlockManager, Scheme), so it lives in its own
// library (ppssd_introspect, linked by ppssd_sim) instead of
// ppssd_telemetry — the *format* layer underneath keeps its common-only
// dependency edge (see telemetry/introspect/format.h).
//
// Lifecycle mirrors the telemetry bundle: construct from the options
// (IntrospectOptions::from_env reads PPSSD_SNAPSHOT / PPSSD_FLIGHT; with
// neither set no snapshotter is built, and the replayer's per-request
// tick is a single null check),
// bind() to a scheme after warm-up, tick() during replay, finish() at
// the end of the measured phase. bind() also installs the PPSSD_CHECK
// failure hook: if an invariant trips mid-run, the hook appends a
// kCheckFailure event, dumps the flight ring, and flushes the snapshot
// stream — frames are flushed as written, so the stream on disk already
// holds every completed frame.
//
// The snapshotter is a pure observer: it reads running aggregates
// (plus the per-page reprogram marks up to each block's frontier) and
// never touches scheme or array state, so results with and without it
// are byte-identical.
#pragma once

#include <memory>
#include <vector>

#include "common/types.h"
#include "telemetry/introspect/format.h"

namespace ppssd::cache {
class Scheme;
}

namespace ppssd::telemetry::introspect {

class Snapshotter {
 public:
  explicit Snapshotter(const IntrospectOptions& opts);
  ~Snapshotter();

  Snapshotter(const Snapshotter&) = delete;
  Snapshotter& operator=(const Snapshotter&) = delete;

  /// Bind to the device this snapshotter observes: opens the snapshot
  /// stream (append mode — sequential cells sharing one path each get
  /// their own stream), writes the stream header from the scheme's
  /// geometry, and installs the check-failure hook. Returns false when
  /// the snapshot file cannot be opened (flight-only configurations
  /// still bind). The scheme must outlive the snapshotter or finish()
  /// must run first.
  bool bind(const cache::Scheme& scheme);

  /// Per-request pulse from the replayer: snapshots when `now` crossed
  /// the configured interval. Inline null-ish fast path.
  void tick(SimTime now) {
    if (scheme_ != nullptr && every_ > 0 && now >= next_due_) {
      snapshot_now(now);
    }
  }

  /// Walk the device and append one frame at time `now` (on-demand
  /// entry point; tick() calls it on interval crossings).
  void snapshot_now(SimTime now);

  /// Close out the run: writes a final frame at `end` (so short runs
  /// still produce at least one), dumps the flight ring on demand, and
  /// uninstalls the failure hook. Idempotent.
  void finish(SimTime end);

  /// The flight recorder, or null when PPSSD_FLIGHT is unset. The Ssd
  /// hands this to the controller and scheme at attach time.
  [[nodiscard]] FlightRecorder* flight() { return flight_.get(); }

  [[nodiscard]] const IntrospectOptions& options() const { return opts_; }
  [[nodiscard]] std::uint64_t frames_written() const {
    return writer_.frames_written();
  }

 private:
  static void on_check_failure(void* ctx);

  IntrospectOptions opts_;
  SimTime every_ = 0;
  SimTime next_due_ = 0;
  SimTime last_time_ = 0;
  const cache::Scheme* scheme_ = nullptr;
  SnapshotWriter writer_;
  std::unique_ptr<FlightRecorder> flight_;
  // Reused frame buffers (no per-frame allocation after the first).
  std::vector<BlockState> blocks_;
  std::vector<PlaneState> planes_;
  bool hook_installed_ = false;
  bool finished_ = false;
};

}  // namespace ppssd::telemetry::introspect
