#include "sim/controller.h"

#include <algorithm>

#include "common/check.h"

namespace ppssd::sim {

namespace {

using Kind = cache::PhysOp::Kind;
using telemetry::FlashOp;
using telemetry::attribution::OpClass;
using telemetry::attribution::Resource;

// OpRecord::kind is PhysOp::Kind under its telemetry-side name.
constexpr bool same_kind(Kind k, FlashOp f) {
  return static_cast<int>(k) == static_cast<int>(f);
}
static_assert(same_kind(Kind::kRead, FlashOp::kRead) &&
              same_kind(Kind::kProgram, FlashOp::kProgram) &&
              same_kind(Kind::kErase, FlashOp::kErase) &&
              same_kind(Kind::kReprogram, FlashOp::kReprogram));

/// PhysOp -> attribution class: erases have their own suspendable
/// horizon; otherwise the scheme's origin tag decides, with background
/// ops defaulting to GC when a host-origin tag leaks onto one.
OpClass classify(const cache::PhysOp& op) {
  if (op.kind == Kind::kErase) return OpClass::kErase;
  const bool read = op.kind == Kind::kRead;
  switch (op.origin) {
    case cache::OpOrigin::kPrefill:
      return OpClass::kPrefill;
    case cache::OpOrigin::kGc:
      return read ? OpClass::kGcRead : OpClass::kGcProgram;
    case cache::OpOrigin::kHost:
      break;
  }
  if (op.background) return read ? OpClass::kGcRead : OpClass::kGcProgram;
  return OpClass::kHost;
}

}  // namespace

Controller::Controller(const SsdConfig& cfg, std::uint32_t chips,
                       std::uint32_t channels)
    : timing_(cfg.timing), ecc_(cfg.ecc) {
  PPSSD_CHECK(chips > 0 && channels > 0);
  lanes_.assign(chips, ChipLane{});
  channel_busy_.assign(channels, 0);
  chip_occupancy_.assign(chips, 0);
}

void Controller::reset() {
  std::fill(lanes_.begin(), lanes_.end(), ChipLane{});
  std::fill(channel_busy_.begin(), channel_busy_.end(), SimTime{0});
  std::fill(chip_occupancy_.begin(), chip_occupancy_.end(), SimTime{0});
  usage_ = Usage{};
  scheduled_ops_ = 0;
  clock_ = 0;
  last_completion_ = 0;
  // Horizons are zero again: stale claims would break interval coverage.
  if (auto* ledger = stream_.ledger()) ledger->reset_resources();
}

SimTime Controller::ecc_cost(const cache::PhysOp& op) const {
  return ecc_.decode_time(op.ber, op.subpages);
}

void Controller::attach_telemetry(telemetry::Telemetry* telemetry) {
  stream_.attach(telemetry);
  auto* ledger = stream_.ledger();
  if (ledger == nullptr) return;
  ledger->bind_resources(static_cast<std::uint32_t>(lanes_.size()),
                         static_cast<std::uint32_t>(channel_busy_.size()));
  // Mid-run attach: outstanding horizon state predates the ledger, so
  // seed it as prefill claims to keep wait intervals fully covered.
  for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
    ledger->seed(Resource::kLane, c, lanes_[c].busy_until);
    ledger->seed(Resource::kErase, c, lanes_[c].erase_until);
  }
  for (std::uint32_t ch = 0; ch < channel_busy_.size(); ++ch) {
    ledger->seed(Resource::kChannel, ch, channel_busy_[ch]);
  }
}

Controller::ChipLeg Controller::chip_leg(const cache::PhysOp& op,
                                         SimTime at, SimTime service) {
  // A background op queues behind an in-progress erase; a foreground op
  // suspends it and starts as soon as the lane is free.
  ChipLane& lane = lanes_[op.chip];
  const SimTime lane_free = std::max(at, lane.busy_until);
  const SimTime start =
      op.background ? std::max(lane_free, lane.erase_until) : lane_free;
  lane.busy_until = start + service;
  const bool read = op.kind == Kind::kRead;
  (read ? (op.background ? usage_.read_bg : usage_.read_fg)
        : (op.background ? usage_.program_bg : usage_.program_fg)) += service;
  chip_occupancy_[op.chip] += service;
  return {{at, lane_free}, {lane_free, start}, {start, start + service}};
}

Controller::ChannelLeg Controller::channel_leg(const cache::PhysOp& op,
                                               SimTime at) {
  SimTime& busy = channel_busy_[op.channel];
  const SimTime start = std::max(at, busy);
  busy = start + timing_.transfer_latency(op.subpages);
  return {{at, start}, {start, busy}};
}

SimTime Controller::schedule(const cache::PhysOp& op, SimTime ready) {
  PPSSD_CHECK(op.chip < lanes_.size());
  PPSSD_CHECK(op.channel < channel_busy_.size());
  advance_to(ready);

  // The erase horizon before this op: only an erase moves it.
  const SimTime erase_was = lanes_[op.chip].erase_until;
  ChipLeg chip;     // lane wait, erase wait, array occupancy
  ChannelLeg chan;  // channel wait, transfer (reads and programs)
  SimTime ecc_ns = 0;
  SimTime end = 0;
  switch (op.kind) {
    case Kind::kRead:
      // Array sense, then transfer out, then controller-side ECC.
      chip = chip_leg(op, ready, timing_.read_latency(op.mode));
      chan = channel_leg(op, chip.array.to);
      ecc_ns = ecc_cost(op);
      end = chan.transfer.to + ecc_ns;
      break;
    case Kind::kProgram:
      // Transfer in, then the program pulse on the chip.
      chan = channel_leg(op, ready);
      chip = chip_leg(op, chan.transfer.to, timing_.program_latency(op.mode));
      end = chip.array.to;
      break;
    case Kind::kReprogram:
      // In-place SLC->dense switch (IPS): one continued-ISPP pulse
      // sequence on the chip. The data never leaves the array, so there
      // is no channel leg and no ECC decode.
      chip = chip_leg(op, ready, timing_.reprogram_latency());
      end = chip.array.to;
      break;
    case Kind::kErase: {
      // Erase-suspend: the controller suspends a background erase when a
      // host command arrives, so erases occupy a *separate* per-chip
      // horizon that serialises only background work. Host ops see the
      // chip as available; the erase's wall-clock completion still gates
      // background progress on the lane.
      ChipLane& lane = lanes_[op.chip];
      const SimTime after_erase = std::max(ready, erase_was);
      const SimTime start = std::max(after_erase, lane.busy_until);
      chip.erase_wait = {ready, after_erase};
      chip.lane_wait = {after_erase, start};
      chip.array = {start, start + timing_.erase_latency()};
      lane.erase_until = chip.array.to;
      usage_.erase_bg += chip.array.length();
      chip_occupancy_[op.chip] += chip.array.length();
      end = chip.array.to;
      break;
    }
  }
  // The record is assembled only when something observes it, so the
  // detached path stays one test per op.
  if (stream_.attached()) [[unlikely]] {
    stream_.on_op({.id = scheduled_ops_,
                   .kind = static_cast<FlashOp>(op.kind),
                   .mode = op.mode,
                   .cls = classify(op),
                   .background = op.background,
                   .ecc_saturated = ecc_.saturated(op.ber),
                   .chip = op.chip,
                   .channel = op.channel,
                   .subpages = op.subpages,
                   .ber = op.ber,
                   .ready = ready,
                   .lane_wait = chip.lane_wait,
                   .erase_wait = chip.erase_wait,
                   .channel_wait = chan.wait,
                   .array = chip.array,
                   .transfer = chan.transfer,
                   .ecc_ns = ecc_ns,
                   .erase_was = erase_was,
                   .end = end});
  }

  ++scheduled_ops_;
  last_completion_ = std::max(last_completion_, end);
  return end;
}

}  // namespace ppssd::sim
