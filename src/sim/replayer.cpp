#include "sim/replayer.h"

#include <algorithm>
#include <array>
#include <span>

#include "common/units.h"

namespace ppssd::sim {

ReplayResult Replayer::replay(trace::TraceSource& src,
                              std::uint64_t max_requests) {
  ReplayResult result;

  // Host-level instruments (null without an attached telemetry bundle).
  telemetry::Telemetry* tel = ssd_->telemetry();
  telemetry::TraceLog* tlog = nullptr;
  telemetry::Histogram* lat_read = nullptr;
  telemetry::Histogram* lat_write = nullptr;
  telemetry::Gauge* inflight = nullptr;
  if (tel != nullptr) {
    tlog = tel->trace();
    auto& reg = tel->registry();
    lat_read = reg.histogram("host_latency_ms", {{"op", "read"}}, 1e-3, 1e4);
    lat_write = reg.histogram("host_latency_ms", {{"op", "write"}}, 1e-3, 1e4);
    inflight = reg.gauge("inflight_requests");
  }

  // Queue-depth accounting. `depth` mirrors the device's completion queue;
  // `depth_integral` accumulates depth x time between consecutive events
  // (arrivals and completions) for the time-weighted mean.
  std::uint64_t depth = 0;
  double depth_integral = 0.0;
  double at_arrival_sum = 0.0;
  SimTime first_arrival = kNoTime;
  SimTime prev_event = 0;

  const auto harvest = [&](const Ssd::HostCompletion& c) {
    if (c.finish > prev_event) {
      depth_integral +=
          static_cast<double>(depth) * static_cast<double>(c.finish - prev_event);
      prev_event = c.finish;
    }
    --depth;
    result.latency.record(c.op, c.latency());
    result.makespan = std::max(result.makespan, c.finish);
    if (tel != nullptr) {
      (c.op == OpType::kRead ? lat_read : lat_write)
          ->observe(ns_to_ms(c.latency()));
    }
  };

  // Batched decode: fetch up to kBatch records per virtual call so the
  // source's decode loop runs devirtualized and the per-record cost in
  // this loop is pure simulation. The record sequence is identical to
  // one-by-one next() by the TraceSource contract. With a request cap the
  // final fetch is clamped, so no record past the cap is consumed.
  const auto submit_one = [&](const trace::TraceRecord& rec) {
    // Retire everything that completed before this request arrives, in
    // completion order, then advance the depth integral to the arrival.
    ssd_->drain_completions(rec.arrival, harvest);
    if (rec.arrival > prev_event) {
      depth_integral += static_cast<double>(depth) *
                        static_cast<double>(rec.arrival - prev_event);
      prev_event = rec.arrival;
    }
    at_arrival_sum += static_cast<double>(depth);
    result.max_queue_depth = std::max(result.max_queue_depth, depth);
    if (first_arrival == kNoTime) first_arrival = rec.arrival;

    const auto done = ssd_->enqueue(rec.op, rec.offset, rec.size, rec.arrival);
    ++depth;
    result.makespan = std::max(result.makespan, done.drained);
    ++result.requests;
    if (progress_ != nullptr && (result.requests & kProgressMask) == 0) {
      progress_->advance(result.requests);
    }

    if (snapshot_ != nullptr) snapshot_->tick(rec.arrival);
    if (tel != nullptr) {
      inflight->set(static_cast<double>(depth));
      const double ms = ns_to_ms(done.latency());
      const bool read = rec.op == OpType::kRead;
      if (tlog != nullptr && tlog->enabled(telemetry::TraceCategory::kHost)) {
        tlog->span(telemetry::TraceCategory::kHost,
                   read ? "host_read" : "host_write", rec.arrival, done.finish,
                   telemetry::kHostLane,
                   {{"bytes", static_cast<double>(rec.size)},
                    {"queue_depth", static_cast<double>(depth)},
                    {"latency_ms", ms}});
      }
      tel->on_request(rec.arrival);
    }
  };

  std::array<trace::TraceRecord, kBatch> batch;
  for (;;) {
    std::size_t want = batch.size();
    if (max_requests != 0) {
      want = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, max_requests - result.requests));
    }
    if (want == 0) break;
    const std::size_t got = src.next_batch(std::span(batch.data(), want));
    if (got == 0) break;
    for_each_ahead(*ssd_, std::span(batch.data(), got), submit_one);
  }

  // Source exhausted: harvest every remaining completion.
  ssd_->drain_completions(kNoTime, harvest);
  if (tel != nullptr && inflight != nullptr) inflight->set(0.0);

  if (result.requests > 0) {
    result.avg_queue_depth_at_arrival =
        at_arrival_sum / static_cast<double>(result.requests);
    if (prev_event > first_arrival) {
      result.avg_queue_depth =
          depth_integral / static_cast<double>(prev_event - first_arrival);
    }
  }
  return result;
}

}  // namespace ppssd::sim
