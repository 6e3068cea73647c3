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
#include <exception>
#include <span>
#include <thread>
#include <vector>

#include "common/latency_recorder.h"
#include "perf/progress.h"
#include "sim/placed_ring.h"
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

/// Ticks of the walk's progress sink: every this many + 1 placed
/// requests, frequent enough for a smooth ETA, rare enough to stay
/// invisible in the walk's profile.
inline constexpr std::uint64_t kProgressMask = (1u << 14) - 1;

/// The record walk of Replayer::replay and the warm replay (DESIGN.md §10,
/// "Price on a worker thread"): a pipeline of three threads.
///  * A decode worker reads `src` (trace::DecodeAhead), at most
///    `max_records` records of it (0 = to the end of the stream).
///  * This thread places each record (Ssd::place, with the request
///    lookahead) into a PlacedRing, and ticks `progress` (if not null)
///    every kProgressMask + 1 placed requests.
///  * A pricing worker calls price(const Ssd::Placed&,
///    std::span<const cache::PhysOp>) for every placed request in order;
///    price owns the timing layer (Ssd::price or Ssd::enqueue, and any
///    fold over the completions) for the walk's duration.
/// With `lockstep`, which a caller sets when an observer hangs off both
/// stages, the ring holds one request: request i + 1 is placed only after
/// price has returned for request i.
///
/// Every exit joins both workers. An exception from the source, from
/// `progress` or from placement is rethrown once every request placed
/// before it is priced; one from price is rethrown once this thread has
/// stopped placing, and price sees no later request.
template <typename Price>
void walk_records(Ssd& ssd, trace::TraceSource& src,
                  std::uint64_t max_records, bool lockstep,
                  perf::ProgressSink* progress, Price&& price) {
  trace::DecodeAhead decoded(src, max_records);
  PlacedRing ring(lockstep);
  std::jthread pricer([&ring, &price] {
    try {
      for (auto batch = ring.next(); !batch.requests.empty();
           batch = ring.next()) {
        for (const Ssd::Placed& req : batch.requests) price(req, batch.ops);
      }
    } catch (...) {
      ring.fail(std::current_exception());
    }
  });
  std::exception_ptr error;
  try {
    std::uint64_t placed = 0;
    const auto place = [&](const trace::TraceRecord& rec) {
      std::vector<cache::PhysOp>& ops = ring.ops();
      ring.push(ssd.place(rec.op, rec.offset, rec.size, rec.arrival, ops));
      if (progress != nullptr && (++placed & kProgressMask) == 0) {
        progress->advance(placed);
      }
    };
    for (auto batch = decoded.next(); !batch.empty(); batch = decoded.next()) {
      for_each_ahead(ssd, batch, place);
    }
  } catch (...) {
    error = std::current_exception();
  }
  ring.close();
  pricer.join();
  if (error) std::rethrow_exception(error);
  ring.rethrow_failure();
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
  /// record past the cap is consumed) through walk_records: this thread
  /// places, a worker prices and folds the result, and both workers are
  /// joined before it returns. Rethrows an exception the source throws,
  /// after placing and pricing the records before its batch.
  ReplayResult replay(trace::TraceSource& src, std::uint64_t max_requests = 0);

  /// Optional live-progress sink, ticked every kProgressMask + 1 placed
  /// requests on the calling thread (a null sink costs one pointer test
  /// per request). Caller keeps ownership; the sink must outlive the
  /// replay.
  void set_progress(perf::ProgressSink* sink) { progress_ = sink; }

  /// Optional introspection snapshotter, ticked at every request arrival
  /// once the request is priced (a null snapshotter costs one pointer
  /// test per request; a set one runs the walk in lockstep). Caller keeps
  /// ownership and calls finish() after the replay.
  void set_snapshotter(telemetry::introspect::Snapshotter* snap) {
    snapshot_ = snap;
  }

 private:
  Ssd* ssd_;
  perf::ProgressSink* progress_ = nullptr;
  telemetry::introspect::Snapshotter* snapshot_ = nullptr;
};

}  // namespace ppssd::sim
