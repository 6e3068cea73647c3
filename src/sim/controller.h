// Event-driven flash controller: per-chip command lanes, a simulation
// clock, and dependency-aware command scheduling.
//
// The controller owns the device's timing resources. Each chip lane
// executes one array operation (read sense / program pulse) at a time;
// each channel serialises data transfers; ECC decoding happens
// controller-side after a read transfer and scales with the raw BER
// (ecc::EccLatencyModel). Erases run on a separate, suspendable per-chip
// horizon: a foreground (host) command suspends an in-progress erase and
// executes immediately, while background (GC) commands wait for the erase
// to finish — the paper's erase-suspend semantics.
//
// Commands are scheduled one at a time via schedule(op, ready): the op
// starts no earlier than `ready` (its arrival time joined with the
// completion of its dependency, resolved by the caller from
// PhysOp::depends_on), then queues FIFO behind the commands already
// claimed on its lane and channel. Because callers submit commands in
// arrival order, this eager per-command scheduling is exactly equivalent
// to a lazy event-driven dispatch with FIFO resource queues — while
// keeping the hot path allocation-free and bit-reproducible.
//
// Command retirement is a running maximum: every scheduled command folds
// its completion time into the latest completion seen, and advance_to(now)
// moves the controller clock forward (advance_to(kNoTime) lands it on
// that latest completion). Host-request completions are delivered out of
// submission order by the Ssd's own completion queue, not here.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/scheme.h"
#include "common/config.h"
#include "ecc/latency_model.h"
#include "nand/timing.h"
#include "telemetry/op_stream.h"

namespace ppssd::sim {

class Controller {
 public:
  Controller(const SsdConfig& cfg, std::uint32_t chips,
             std::uint32_t channels);

  /// Price one command. The op may not start before `ready`; it then
  /// queues behind the commands already scheduled on its chip lane and
  /// channel. Returns the completion time (for reads: after the
  /// controller-side ECC decode).
  SimTime schedule(const cache::PhysOp& op, SimTime ready);

  /// Advance the controller clock to `now`; it never moves backwards.
  /// kNoTime retires every scheduled command: the clock lands on the
  /// latest completion instead of the sentinel. Header-inline: called
  /// once per scheduled op and once per host request (DESIGN.md §10).
  void advance_to(SimTime now) {
    clock_ = std::max(clock_, now == kNoTime ? last_completion_ : now);
  }

  [[nodiscard]] SimTime clock() const { return clock_; }
  /// Total commands scheduled since construction / reset(). This is the
  /// denominator-free "controller events" count the wall-clock perf layer
  /// divides by measured seconds (events/s); deterministic per replay.
  [[nodiscard]] std::uint64_t scheduled_ops() const { return scheduled_ops_; }

  [[nodiscard]] SimTime chip_free_at(std::uint32_t chip) const {
    return lanes_[chip].busy_until;
  }

  /// Decode latency the model charges for a read op (exposed for tests).
  [[nodiscard]] SimTime ecc_cost(const cache::PhysOp& op) const;

  /// Accumulated chip-occupancy by op kind (ns), foreground/background.
  /// In-place reprograms (IPS) fold into the program buckets: they occupy
  /// the lane exactly like a program pulse, just without the channel leg.
  struct Usage {
    SimTime read_fg = 0, read_bg = 0;
    SimTime program_fg = 0, program_bg = 0;
    SimTime erase_bg = 0;
    [[nodiscard]] SimTime total() const {
      return read_fg + read_bg + program_fg + program_bg + erase_bg;
    }
  };
  [[nodiscard]] const Usage& usage() const { return usage_; }

  /// Accumulated array-op occupancy per chip (ns) — load-balance probe.
  [[nodiscard]] const std::vector<SimTime>& chip_occupancy() const {
    return chip_occupancy_;
  }

  void reset();

  /// Hand the bundle to the op stream (flash-op counters, wait
  /// histograms, trace spans, blame ledger). An attached ledger is bound
  /// to this controller's resources, with the current horizons seeded as
  /// prefill claims. Null detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

  /// Attach (or detach, with null) the crash flight recorder: every
  /// scheduled command records begin/finish events (ids match the
  /// attribution ledger's op sequence numbers), and a foreground command
  /// preempting an in-progress erase records a kEraseSuspend. Survives
  /// reset() — the recorder's lifetime is managed by the snapshotter.
  void set_flight_recorder(telemetry::introspect::FlightRecorder* flight) {
    stream_.set_flight(flight);
  }

  /// The per-op observer fan-out; the Ssd brackets host requests on it.
  [[nodiscard]] telemetry::OpStream& op_stream() { return stream_; }
  [[nodiscard]] const telemetry::OpStream& op_stream() const {
    return stream_;
  }

 private:
  /// Per-chip command lane: the array horizon (one read/program at a
  /// time) and the suspendable-erase horizon.
  struct ChipLane {
    SimTime busy_until = 0;
    SimTime erase_until = 0;
  };
  /// What a chip leg priced: the lane wait, the erase wait (background
  /// ops only; a foreground op suspends the erase) and the array time.
  struct ChipLeg {
    telemetry::Interval lane_wait;
    telemetry::Interval erase_wait;
    telemetry::Interval array;
  };
  /// What a channel leg priced: the channel wait and the transfer.
  struct ChannelLeg {
    telemetry::Interval wait;
    telemetry::Interval transfer;
  };
  /// Price `service` ns of array time on the op's chip lane from `at`;
  /// advances the lane horizon and usage.
  ChipLeg chip_leg(const cache::PhysOp& op, SimTime at, SimTime service);
  /// Price the op's transfer on its channel from `at`; advances the
  /// channel horizon.
  ChannelLeg channel_leg(const cache::PhysOp& op, SimTime at);

  nand::TimingModel timing_;
  ecc::EccLatencyModel ecc_;
  std::vector<ChipLane> lanes_;
  std::vector<SimTime> channel_busy_;
  std::vector<SimTime> chip_occupancy_;
  Usage usage_;
  std::uint64_t scheduled_ops_ = 0;
  SimTime clock_ = 0;
  SimTime last_completion_ = 0;  // running max of scheduled completions

  // Every per-op observer: one attached() test per scheduled op.
  telemetry::OpStream stream_;
};

}  // namespace ppssd::sim
