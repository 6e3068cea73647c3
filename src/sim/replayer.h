// Trace replay loop: drives an Ssd with a TraceSource and accumulates the
// host-visible metrics (latency distributions, in-flight statistics).
//
// Requests are submitted at their arrival times and completions are
// harvested from the device's completion queue in *completion* order,
// which generally differs from submission order (a short read on an idle
// chip overtakes a long GC-laden write on a busy one).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/latency_recorder.h"
#include "perf/progress.h"
#include "sim/ssd.h"
#include "telemetry/introspect/snapshotter.h"
#include "trace/decode_ahead.h"
#include "trace/record.h"

namespace ppssd::sim {

/// Request lookahead (DESIGN.md §10): calls fn(rec) for every record of
/// `batch` in order, software-pipelined so the device's DRAM loads for a
/// request are in flight before it runs. While record i runs, two hints
/// go out:
///  * map hint, record i + kMapAhead: DeviceMap::prefetch of its first
///    LSN's entry;
///  * row hint, record i + kRowsAhead: Scheme::prefetch_rows reads that
///    entry, cached by the map hint, and hints the slot's device rows.
/// A hint changes no state, so the calls fn sees, and everything they
/// do, are the plain per-record loop's.
inline constexpr std::size_t kMapAhead = 8;
inline constexpr std::size_t kRowsAhead = 4;
static_assert(kRowsAhead < kMapAhead, "rows are hinted after their map entry");

template <typename Fn>
void for_each_ahead(Ssd& ssd, std::span<const trace::TraceRecord> batch,
                    Fn&& fn) {
  const cache::Scheme& scheme = ssd.scheme();
  const auto map_hint = [&](const trace::TraceRecord& rec) {
    scheme.device_map().prefetch(ssd.resolve(rec.offset, rec.size).lsn);
  };
  const auto row_hint = [&](const trace::TraceRecord& rec) {
    scheme.prefetch_rows(ssd.resolve(rec.offset, rec.size).lsn);
  };
  const std::size_t n = batch.size();
  for (std::size_t i = 0; i < n && i < kMapAhead; ++i) map_hint(batch[i]);
  for (std::size_t i = 0; i < n && i < kRowsAhead; ++i) row_hint(batch[i]);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kMapAhead < n) map_hint(batch[i + kMapAhead]);
    if (i + kRowsAhead < n) row_hint(batch[i + kRowsAhead]);
    fn(batch[i]);
  }
}

/// The record walk of Replayer::replay and the warm replay: calls fn(rec)
/// for every record of `src` in order, at most `max_records` of them (0 =
/// to the end of the stream). A worker thread decodes the records
/// (trace::DecodeAhead) while this thread runs fn over each decoded batch
/// with the request lookahead. An exception the source throws is rethrown
/// here once the records before its batch have been walked; any exit
/// stops and joins the worker.
template <typename Fn>
void walk_records(Ssd& ssd, trace::TraceSource& src,
                  std::uint64_t max_records, Fn&& fn) {
  trace::DecodeAhead decoded(src, max_records);
  for (auto batch = decoded.next(); !batch.empty(); batch = decoded.next()) {
    for_each_ahead(ssd, batch, fn);
  }
}

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
  explicit Replayer(Ssd& ssd) : ssd_(&ssd) {}

  /// Replay the source to exhaustion (or `max_requests` if nonzero; no
  /// record past the cap is consumed). Rethrows an exception the source
  /// throws, after submitting the records before its batch.
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
