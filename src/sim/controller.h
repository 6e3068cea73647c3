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
#include "telemetry/telemetry.h"

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

  [[nodiscard]] std::uint32_t chip_count() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  [[nodiscard]] std::uint32_t channel_count() const {
    return static_cast<std::uint32_t>(channel_busy_.size());
  }

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
  [[nodiscard]] SimTime channel_free_at(std::uint32_t ch) const {
    return channel_busy_[ch];
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

  [[nodiscard]] SimTime chip_erase_free_at(std::uint32_t chip) const {
    return lanes_[chip].erase_until;
  }

  /// Accumulated array-op occupancy per chip (ns) — load-balance probe.
  [[nodiscard]] const std::vector<SimTime>& chip_occupancy() const {
    return chip_occupancy_;
  }

  void reset();

  /// Register flash-op counters / wait histograms and adopt the bundle's
  /// trace log for per-op chip-lane spans. Null detaches.
  void attach_telemetry(telemetry::Telemetry* telemetry);

  /// Attach (or detach, with null) the crash flight recorder: every
  /// scheduled command records begin/finish events (ids match the
  /// attribution ledger's op sequence numbers), and a foreground command
  /// preempting an in-progress erase records a kEraseSuspend. Pure
  /// observer; one branch per scheduled op when detached. Survives
  /// reset() — the recorder's lifetime is managed by the snapshotter.
  void set_flight_recorder(telemetry::introspect::FlightRecorder* flight) {
    flight_ = flight;
  }

 private:
  /// Per-chip command lane: the array horizon (one read/program at a
  /// time) and the suspendable-erase horizon.
  struct ChipLane {
    SimTime busy_until = 0;
    SimTime erase_until = 0;
  };
  /// One occupancy interval of a lane or channel.
  struct Leg {
    SimTime start = 0;
    SimTime end = 0;
  };

  /// Price the op's array time on its chip lane from `at`: lane wait,
  /// then the erase wait (background) or the suspend saving (foreground),
  /// `service` ns of occupancy, lane claim and usage.
  Leg chip_leg(const cache::PhysOp& op, SimTime at, SimTime service);
  /// Price the op's data transfer on its channel from `at`: channel
  /// wait, transfer and channel claim.
  Leg channel_leg(const cache::PhysOp& op, SimTime at);

  nand::TimingModel timing_;
  ecc::EccLatencyModel ecc_;
  std::vector<ChipLane> lanes_;
  std::vector<SimTime> channel_busy_;
  std::vector<SimTime> chip_occupancy_;
  Usage usage_;
  std::uint64_t scheduled_ops_ = 0;
  SimTime clock_ = 0;
  SimTime last_completion_ = 0;  // running max of scheduled completions

  // Telemetry handles (null until attached).
  telemetry::TraceLog* trace_ = nullptr;
  // Blame ledger (null when detached — the attribution hot path is one
  // pointer test per scheduled op). attach_telemetry() binds the
  // resource topology and seeds current horizons as prefill claims.
  telemetry::attribution::AttributionLedger* attrib_ = nullptr;
  // Flight recorder (null when detached; see set_flight_recorder).
  telemetry::introspect::FlightRecorder* flight_ = nullptr;
  // flash_ops counters indexed [PhysOp::Kind][CellMode]. Erases and
  // reprograms have one mode-free series, held in both columns.
  telemetry::Counter* tl_ops_[4][2] = {};
  telemetry::Counter* tl_ecc_decodes_ = nullptr;
  telemetry::Counter* tl_ecc_saturated_ = nullptr;
  telemetry::Histogram* tl_chip_wait_ = nullptr;
  telemetry::Histogram* tl_ecc_ns_ = nullptr;
};

}  // namespace ppssd::sim
