// The simulated SSD: cache scheme + flash array + event-driven controller,
// behind a byte-addressed host interface.
//
// Every host request takes one path into the controller, in two stages
// that share no state:
//  * place()   — resolve the byte range and let the scheme serve it: the
//    FTL map, slot rows and GC decisions change, and the scheme appends
//    the physical ops it issued to an op buffer.
//  * price()   — schedule those ops on the controller
//    (Controller::schedule), with the GC-interleave deferred queue, the op
//    stream's request bracket and the request id, and return the
//    completion record.
// submit() is place() then price(); enqueue() is submit() plus a push of
// the completion into a host completion queue keyed by finish time, so the
// replayer can harvest completions in *completion order* against later
// arrivals — true device queue depth and out-of-order host completions (a
// short read on an idle chip overtakes a long GC-laden write). The replay
// walk places on one thread and prices on another (sim/replayer.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "cache/scheme.h"
#include "common/config.h"
#include "common/types.h"
#include "common/units.h"
#include "sim/event_queue.h"
#include "sim/controller.h"

namespace ppssd::telemetry::introspect {
class Snapshotter;
}

namespace ppssd::sim {

class Ssd {
 public:
  /// Construct with a scheme resolved from the registry by name.
  Ssd(const SsdConfig& cfg, std::string_view scheme_name);

  /// Take ownership of a pre-built scheme (used for ablation variants).
  Ssd(const SsdConfig& cfg, std::unique_ptr<cache::Scheme> scheme);

  struct Completion {
    std::uint64_t id = 0;  // submission order, unique per request
    SimTime start = 0;     // host submission time
    SimTime finish = 0;    // host-visible completion
    SimTime drained = 0;   // background work completion
    [[nodiscard]] SimTime latency() const { return finish - start; }
  };

  /// One harvested host completion (see drain_completions).
  struct HostCompletion {
    std::uint64_t id = 0;
    OpType op = OpType::kRead;
    SimTime arrival = 0;
    SimTime finish = 0;
    SimTime drained = 0;
    [[nodiscard]] SimTime latency() const { return finish - arrival; }
  };

  /// A host request's subpage range: first LSN and subpage count.
  struct LsnRange {
    Lsn lsn = 0;
    std::uint32_t count = 0;
  };

  /// Subpage-align a byte range and wrap it into the logical space:
  /// offsets beyond the logical capacity wrap, and the count is clamped at
  /// the top. submit() and the replay walker's hints both resolve here.
  [[nodiscard]] LsnRange resolve(std::uint64_t offset,
                                 std::uint32_t size) const {
    const Lsn lsn = (offset / kSubpageBytes) % logical_subpages_;
    const std::uint64_t count = std::min<std::uint64_t>(
        bytes_to_subpages(offset % kSubpageBytes + size),
        logical_subpages_ - lsn);
    return {lsn, static_cast<std::uint32_t>(count)};
  }

  /// A host request the scheme has served, awaiting its timing: its ops
  /// are [ops_begin, ops_end) of the op buffer place() appended them to,
  /// and their depends_on edges index that buffer.
  struct Placed {
    SimTime arrival = 0;
    OpType op = OpType::kRead;
    std::uint32_t size = 0;  // bytes, as submitted
    std::uint32_t ops_begin = 0;
    std::uint32_t ops_end = 0;
  };

  /// Placement stage: serve one host request in the scheme, appending its
  /// ops to `ops`. `offset` and `size` are in bytes; addresses beyond the
  /// logical capacity wrap (size is clamped at the top). Touches the
  /// scheme only, never the timing layer.
  Placed place(OpType op, std::uint64_t offset, std::uint32_t size,
               SimTime arrival, std::vector<cache::PhysOp>& ops);

  /// Pricing stage: schedule a placed request's ops (`ops` is the buffer
  /// place() appended them to) and return its completion. Touches the
  /// timing layer only, never the scheme. Requests are priced in the
  /// order they were placed.
  Completion price(const Placed& req, std::span<const cache::PhysOp> ops);

  /// price(), then enter the completion into the host completion queue
  /// for later harvesting.
  Completion enqueue(const Placed& req, std::span<const cache::PhysOp> ops);

  /// Submit one host request synchronously: place() then price().
  Completion submit(OpType op, std::uint64_t offset, std::uint32_t size,
                    SimTime arrival);

  /// Pipelined submission: like submit(), but the request is also entered
  /// into the host completion queue for later harvesting.
  Completion enqueue(OpType op, std::uint64_t offset, std::uint32_t size,
                     SimTime arrival);

  /// Pop every pending completion with finish <= cutoff, in completion
  /// order (ties by submission order), invoking fn(const HostCompletion&).
  /// Also advances the controller clock.
  template <typename Fn>
  void drain_completions(SimTime cutoff, Fn&& fn) {
    pending_.drain_until(cutoff, [&](auto ev) { fn(ev.payload); });
    ctrl_.advance_to(cutoff);
  }

  /// Requests enqueued but not yet harvested.
  [[nodiscard]] std::size_t in_flight() const { return pending_.size(); }
  /// Finish time of the earliest pending completion (kNoTime if none).
  [[nodiscard]] SimTime next_completion_time() const {
    return pending_.empty() ? kNoTime : pending_.top().time;
  }

  [[nodiscard]] const cache::Scheme& scheme() const { return *scheme_; }
  [[nodiscard]] cache::Scheme& scheme() { return *scheme_; }

  /// Clear chip/channel lanes (used between warm-up and measurement).
  void reset_timing();
  [[nodiscard]] Controller& controller() { return ctrl_; }
  [[nodiscard]] const Controller& controller() const { return ctrl_; }
  [[nodiscard]] const SsdConfig& config() const { return scheme_->config(); }
  [[nodiscard]] std::uint64_t logical_bytes() const;

  /// Background ops awaiting interleaved execution.
  [[nodiscard]] std::size_t deferred_background_ops() const {
    return deferred_.size() - deferred_head_;
  }

  /// Schedule every deferred background op now (end-of-replay flush).
  SimTime drain_background(SimTime now);

  /// Warm-start checkpointing (DESIGN.md §14): the scheme's full device
  /// state plus the host-interface bits that survive the warm-up boundary
  /// (request-id counter, deferred background-op queue). Call at a
  /// quiescent point — right after reset_timing(), with every completion
  /// harvested — so the timing layer is clean on both sides. A counting
  /// pass sizes the sink's buffer for the whole stream first.
  void save(io::StateSink& sink) const;
  void restore(io::StateSource& src);

  /// Fan the bundle out to the scheme (placement/GC instruments) and the
  /// controller's op stream (flash-op counters and spans, blame ledger;
  /// submit() brackets each host request on the same stream). Null
  /// detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

  /// Bind the introspection snapshotter to this device (stream header
  /// from the scheme's geometry, crash hook installed) and hand its
  /// flight recorder to the controller, and to the scheme's GC decision
  /// hook (replacing any hook set before). Null detaches the recorder
  /// and clears the hook; the snapshotter must outlive the device or be
  /// detached first.
  void attach_introspection(telemetry::introspect::Snapshotter* snap);
  /// The attached bundle, or null. The replayer uses this for host-level
  /// spans and sampler ticks.
  [[nodiscard]] telemetry::Telemetry* telemetry() const { return telemetry_; }

  /// True while a telemetry bundle or a flight recorder is attached: both
  /// stages then write to shared observers, so the replay walk runs them
  /// in lockstep (sim/replayer.h).
  [[nodiscard]] bool observed() const {
    return telemetry_ != nullptr || ctrl_.op_stream().attached();
  }

 private:
  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);

  /// The checkpoint stream save() writes.
  void write_state(io::StateSink& sink) const;

  /// A background op whose scheduling is deferred for GC interleaving.
  /// Its dependency is carried either as an already-known finish time
  /// (dep_finish) or as the index of an earlier deferred entry that will
  /// be scheduled first (dep_entry).
  struct Deferred {
    cache::PhysOp op;
    SimTime dep_finish = 0;
    std::size_t dep_entry = kNoEntry;
    SimTime finish = 0;  // set once scheduled
    bool scheduled = false;
  };

  SimTime schedule_deferred(Deferred& d, SimTime now);

  std::unique_ptr<cache::Scheme> scheme_;
  std::uint64_t logical_subpages_;
  /// config().cache.gc_interleave_ops, kept here so that pricing reads
  /// nothing of the scheme while the placing thread changes it.
  std::uint32_t gc_interleave_ops_;
  Controller ctrl_;
  telemetry::Telemetry* telemetry_ = nullptr;
  std::vector<cache::PhysOp> ops_;        // submit()'s op buffer
  std::vector<SimTime> op_finish_;        // reused per request
  std::vector<std::size_t> op_deferred_;  // reused per request
  std::vector<Deferred> deferred_;        // background ops not yet scheduled
  std::size_t deferred_head_ = 0;
  EventQueue<HostCompletion> pending_;
  std::uint64_t next_request_id_ = 0;
};

}  // namespace ppssd::sim
