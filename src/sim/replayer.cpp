#include "sim/replayer.h"

#include <algorithm>
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

  // The pricing stage, on the walk's worker: everything from here on
  // reads and writes the timing layer only.
  const auto price_one = [&](const Ssd::Placed& req,
                             std::span<const cache::PhysOp> ops) {
    // Retire everything that completed before this request arrives, in
    // completion order, then advance the depth integral to the arrival.
    ssd_->drain_completions(req.arrival, harvest);
    if (req.arrival > prev_event) {
      depth_integral += static_cast<double>(depth) *
                        static_cast<double>(req.arrival - prev_event);
      prev_event = req.arrival;
    }
    at_arrival_sum += static_cast<double>(depth);
    result.max_queue_depth = std::max(result.max_queue_depth, depth);
    if (first_arrival == kNoTime) first_arrival = req.arrival;

    const auto done = ssd_->enqueue(req, ops);
    ++depth;
    result.makespan = std::max(result.makespan, done.drained);
    ++result.requests;

    // Observer hooks: with any observer attached the walk is in lockstep,
    // so they run before the next request is placed.
    if (snapshot_ != nullptr) snapshot_->tick(req.arrival);
    if (tel != nullptr) {
      inflight->set(static_cast<double>(depth));
      const double ms = ns_to_ms(done.latency());
      const bool read = req.op == OpType::kRead;
      if (tlog != nullptr && tlog->enabled(telemetry::TraceCategory::kHost)) {
        tlog->span(telemetry::TraceCategory::kHost,
                   read ? "host_read" : "host_write", req.arrival, done.finish,
                   telemetry::kHostLane,
                   {{"bytes", static_cast<double>(req.size)},
                    {"queue_depth", static_cast<double>(depth)},
                    {"latency_ms", ms}});
      }
      tel->on_request(req.arrival);
    }
  };

  // Returns once the pricing worker is joined, so `result` is complete.
  walk_records(*ssd_, src, max_requests,
               ssd_->observed() || snapshot_ != nullptr, progress_, price_one);

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
