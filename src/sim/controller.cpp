#include "sim/controller.h"

#include <algorithm>

#include "common/check.h"

namespace ppssd::sim {

namespace {

/// PhysOp -> attribution class: erases have their own suspendable
/// horizon; otherwise the scheme's origin tag decides, with background
/// ops defaulting to GC when a host-origin tag leaks onto one.
telemetry::attribution::OpClass classify(const cache::PhysOp& op) {
  using telemetry::attribution::OpClass;
  if (op.kind == cache::PhysOp::Kind::kErase) return OpClass::kErase;
  const bool read = op.kind == cache::PhysOp::Kind::kRead;
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
  if (attrib_) attrib_->reset_resources();
}

SimTime Controller::ecc_cost(const cache::PhysOp& op) const {
  return ecc_.decode_time(op.ber, op.subpages);
}

void Controller::attach_telemetry(telemetry::Telemetry* telemetry) {
  attrib_ = telemetry ? telemetry->attribution() : nullptr;
  if (attrib_) {
    attrib_->bind_resources(static_cast<std::uint32_t>(lanes_.size()),
                            static_cast<std::uint32_t>(channel_busy_.size()));
    // Mid-run attach: outstanding horizon state predates the ledger, so
    // seed it as prefill claims to keep wait intervals fully covered.
    for (std::uint32_t c = 0; c < lanes_.size(); ++c) {
      attrib_->seed_lane(c, lanes_[c].busy_until);
      attrib_->seed_erase(c, lanes_[c].erase_until);
    }
    for (std::uint32_t ch = 0; ch < channel_busy_.size(); ++ch) {
      attrib_->seed_channel(ch, channel_busy_[ch]);
    }
  }
  if (telemetry == nullptr) {
    trace_ = nullptr;
    for (auto& row : tl_ops_) row[0] = row[1] = nullptr;
    tl_ecc_decodes_ = tl_ecc_saturated_ = nullptr;
    tl_chip_wait_ = tl_ecc_ns_ = nullptr;
    return;
  }
  auto& reg = telemetry->registry();
  trace_ = telemetry->trace();
  using Kind = cache::PhysOp::Kind;
  const char* modes[2] = {"slc", "mlc"};
  for (const Kind k : {Kind::kRead, Kind::kProgram}) {
    const char* kind = k == Kind::kRead ? "read" : "program";
    for (int m = 0; m < 2; ++m) {
      tl_ops_[static_cast<int>(k)][m] =
          reg.counter("flash_ops", {{"kind", kind}, {"mode", modes[m]}});
    }
  }
  // Erases and reprograms carry no mode label: both modes share a series.
  for (const Kind k : {Kind::kErase, Kind::kReprogram}) {
    auto& row = tl_ops_[static_cast<int>(k)];
    row[0] = row[1] = reg.counter(
        "flash_ops", {{"kind", k == Kind::kErase ? "erase" : "reprogram"}});
  }
  tl_ecc_decodes_ = reg.counter("ecc_decodes");
  tl_ecc_saturated_ = reg.counter("ecc_decodes_saturated");
  // Chip queueing delay seen by array ops (ns): 100 ns .. 10 s.
  tl_chip_wait_ = reg.histogram("chip_wait_ns", {}, 1e2, 1e10);
  tl_ecc_ns_ = reg.histogram("ecc_decode_ns", {}, 1e2, 1e8);
}

Controller::Leg Controller::chip_leg(const cache::PhysOp& op, SimTime at,
                                     SimTime service) {
  // A background op queues behind an in-progress erase; a foreground op
  // suspends it and starts as soon as the lane is free.
  ChipLane& lane = lanes_[op.chip];
  const SimTime lane_free = std::max(at, lane.busy_until);
  const SimTime start =
      op.background ? std::max(lane_free, lane.erase_until) : lane_free;
  const SimTime end = start + service;
  lane.busy_until = end;
  const bool read = op.kind == cache::PhysOp::Kind::kRead;
  (read ? (op.background ? usage_.read_bg : usage_.read_fg)
        : (op.background ? usage_.program_bg : usage_.program_fg)) += service;
  chip_occupancy_[op.chip] += service;
  if (attrib_) {
    attrib_->wait_lane(op.chip, at, lane_free);
    if (op.background) {
      attrib_->wait_erase(op.chip, lane_free, start);
    } else if (lane.erase_until > start) {
      attrib_->note_suspend_saved(lane.erase_until - start);
    }
    attrib_->add_service(service);
    attrib_->claim_lane(op.chip, end);
  }
  return {start, end};
}

Controller::Leg Controller::channel_leg(const cache::PhysOp& op, SimTime at) {
  SimTime& busy = channel_busy_[op.channel];
  const SimTime start = std::max(at, busy);
  const SimTime end = start + timing_.transfer_latency(op.subpages);
  busy = end;
  if (attrib_) {
    attrib_->wait_channel(op.channel, at, start);
    attrib_->add_service(end - start);
    attrib_->claim_channel(op.channel, end);
  }
  return {start, end};
}

SimTime Controller::schedule(const cache::PhysOp& op, SimTime ready) {
  using Kind = cache::PhysOp::Kind;
  PPSSD_CHECK(op.chip < lanes_.size());
  PPSSD_CHECK(op.channel < channel_busy_.size());
  advance_to(ready);
  if (attrib_) {
    attrib_->op_begin(scheduled_ops_, classify(op), op.mode, op.background,
                      op.chip, op.channel, ready);
  }

  // The erase horizon before this op: only an erase moves it.
  const SimTime erase_was = lanes_[op.chip].erase_until;
  Leg array;  // array occupancy: sense, pulse or erase
  SimTime span_start = 0;
  SimTime end = 0;
  SimTime ecc_ns = 0;
  switch (op.kind) {
    case Kind::kRead: {
      // Array sense, then transfer out, then controller-side ECC.
      array = chip_leg(op, ready, timing_.read_latency(op.mode));
      ecc_ns = ecc_cost(op);
      end = channel_leg(op, array.end).end + ecc_ns;
      if (attrib_) attrib_->add_ecc(ecc_ns);
      span_start = array.start;
      break;
    }
    case Kind::kProgram: {
      // Transfer in, then the program pulse on the chip.
      const Leg xfer = channel_leg(op, ready);
      array = chip_leg(op, xfer.end, timing_.program_latency(op.mode));
      end = array.end;
      span_start = xfer.start;
      break;
    }
    case Kind::kReprogram: {
      // In-place SLC->dense switch (IPS): one continued-ISPP pulse
      // sequence on the chip. The data never leaves the array, so there
      // is no channel leg and no ECC decode.
      array = chip_leg(op, ready, timing_.reprogram_latency());
      end = array.end;
      span_start = array.start;
      break;
    }
    case Kind::kErase: {
      // Erase-suspend: the controller suspends a background erase when a
      // host command arrives, so erases occupy a *separate* per-chip
      // horizon that serialises only background work. Host ops see the
      // chip as available; the erase's wall-clock completion still gates
      // background progress on the lane.
      ChipLane& lane = lanes_[op.chip];
      const SimTime after_erase = std::max(ready, erase_was);
      array.start = std::max(after_erase, lane.busy_until);
      array.end = array.start + timing_.erase_latency();
      lane.erase_until = array.end;
      usage_.erase_bg += array.end - array.start;
      chip_occupancy_[op.chip] += array.end - array.start;
      if (attrib_) {
        attrib_->wait_erase(op.chip, ready, after_erase);
        attrib_->wait_lane(op.chip, after_erase, array.start);
        attrib_->add_service(array.end - array.start);
        attrib_->claim_erase(op.chip, array.end);
      }
      end = array.end;
      span_start = array.start;
      break;
    }
  }
  if (attrib_) attrib_->op_end(end);

  const auto kind = static_cast<int>(op.kind);
  const auto mode = static_cast<int>(op.mode);
  if (tl_chip_wait_ != nullptr) {
    tl_ops_[kind][mode]->inc();
    if (op.kind != Kind::kErase) {
      tl_chip_wait_->observe(static_cast<double>(array.start - ready));
    }
    if (op.kind == Kind::kRead) {
      tl_ecc_decodes_->inc(op.subpages);
      if (ecc_.saturated(op.ber)) tl_ecc_saturated_->inc(op.subpages);
      tl_ecc_ns_->observe(static_cast<double>(ecc_ns));
    }
  }
  if (trace_ && trace_->enabled(telemetry::TraceCategory::kFlash)) {
    static constexpr const char* kSpanNames[4][2] = {
        {"read_slc", "read_mlc"},
        {"prog_slc", "prog_mlc"},
        {"erase", "erase"},
        {"reprog", "reprog"}};
    const char* name = kSpanNames[kind][mode];
    const auto cat = telemetry::TraceCategory::kFlash;
    const double subpages = static_cast<double>(op.subpages);
    const double bg = op.background ? 1.0 : 0.0;
    if (op.kind == Kind::kErase) {
      trace_->span(cat, name, span_start, end, op.chip,
                   {{"mode", static_cast<double>(mode)}});
    } else if (op.kind == Kind::kRead) {
      trace_->span(cat, name, span_start, end, op.chip,
                   {{"subpages", subpages}, {"ber", op.ber}, {"bg", bg}});
    } else {
      trace_->span(cat, name, span_start, end, op.chip,
                   {{"subpages", subpages}, {"bg", bg}});
    }
  }
  if (flight_ != nullptr) [[unlikely]] {
    using telemetry::introspect::FlightEvent;
    using telemetry::introspect::FlightEventKind;
    const auto detail = static_cast<std::uint8_t>((kind << 2) | (mode << 1) |
                                                  (op.background ? 1 : 0));
    flight_->record(FlightEvent{ready, scheduled_ops_, op.chip, op.channel,
                                FlightEventKind::kOpBegin, detail});
    // A foreground array op starting under a pending erase horizon is
    // exactly the condition the attribution layer books as suspend
    // savings; record it with the saved nanoseconds.
    if (!op.background && op.kind != Kind::kErase && erase_was > array.start) {
      flight_->record(FlightEvent{
          array.start, scheduled_ops_, op.chip,
          static_cast<std::uint32_t>(
              std::min<SimTime>(erase_was - array.start, UINT32_MAX)),
          FlightEventKind::kEraseSuspend, detail});
    }
    flight_->record(FlightEvent{end, scheduled_ops_, op.chip, op.channel,
                                FlightEventKind::kOpFinish, detail});
  }

  ++scheduled_ops_;
  last_completion_ = std::max(last_completion_, end);
  return end;
}

}  // namespace ppssd::sim
