#include "telemetry/op_stream.h"

#include <algorithm>

#include "telemetry/introspect/format.h"
#include "telemetry/telemetry.h"

namespace ppssd::telemetry {

void OpStream::attach(Telemetry* telemetry) {
  // Drop the bundle's sinks; the flight recorder is attached separately.
  introspect::FlightRecorder* const flight = flight_;
  *this = OpStream{};
  flight_ = flight;
  if (telemetry != nullptr) {
    ledger_ = telemetry->attribution();
    trace_ = telemetry->trace();
    auto& reg = telemetry->registry();
    static constexpr const char* kKinds[4] = {"read", "program", "erase",
                                              "reprogram"};
    const char* modes[2] = {"slc", "mlc"};
    for (int k = 0; k < 4; ++k) {
      for (int m = 0; m < 2; ++m) {
        // Erases and reprograms carry no mode label: both columns get the
        // same series.
        ops_[k][m] = k < 2 ? reg.counter("flash_ops", {{"kind", kKinds[k]},
                                                       {"mode", modes[m]}})
                           : reg.counter("flash_ops", {{"kind", kKinds[k]}});
      }
    }
    ecc_decodes_ = reg.counter("ecc_decodes");
    ecc_saturated_ = reg.counter("ecc_decodes_saturated");
    // Chip queueing delay seen by array ops (ns): 100 ns .. 10 s.
    chip_wait_ = reg.histogram("chip_wait_ns", {}, 1e2, 1e10);
    ecc_ns_ = reg.histogram("ecc_decode_ns", {}, 1e2, 1e8);
  }
  attached_ = chip_wait_ != nullptr || flight_ != nullptr;
}

void OpStream::set_flight(introspect::FlightRecorder* flight) {
  flight_ = flight;
  attached_ = chip_wait_ != nullptr || flight_ != nullptr;
}

void OpStream::on_op(const OpRecord& rec) {
  if (ledger_ != nullptr) ledger_->on_op(rec);
  if (chip_wait_ != nullptr) count(rec);
  if (trace_ != nullptr && trace_->enabled(TraceCategory::kFlash)) span(rec);
  if (flight_ != nullptr) flight(rec);
}

void OpStream::count(const OpRecord& rec) {
  ops_[static_cast<int>(rec.kind)][static_cast<int>(rec.mode)]->inc();
  if (rec.kind != FlashOp::kErase) {
    chip_wait_->observe(static_cast<double>(rec.array.from - rec.ready));
  }
  if (rec.kind == FlashOp::kRead) {
    ecc_decodes_->inc(rec.subpages);
    if (rec.ecc_saturated) ecc_saturated_->inc(rec.subpages);
    ecc_ns_->observe(static_cast<double>(rec.ecc_ns));
  }
}

void OpStream::span(const OpRecord& rec) {
  static constexpr const char* kNames[4][2] = {{"read_slc", "read_mlc"},
                                               {"prog_slc", "prog_mlc"},
                                               {"erase", "erase"},
                                               {"reprog", "reprog"}};
  const auto mode = static_cast<int>(rec.mode);
  const char* name = kNames[static_cast<int>(rec.kind)][mode];
  const auto cat = TraceCategory::kFlash;
  // A program occupies the channel first; everything else the array.
  const SimTime from =
      rec.kind == FlashOp::kProgram ? rec.transfer.from : rec.array.from;
  const double subpages = static_cast<double>(rec.subpages);
  const double bg = rec.background ? 1.0 : 0.0;
  if (rec.kind == FlashOp::kErase) {
    trace_->span(cat, name, from, rec.end, rec.chip,
                 {{"mode", static_cast<double>(mode)}});
  } else if (rec.kind == FlashOp::kRead) {
    trace_->span(cat, name, from, rec.end, rec.chip,
                 {{"subpages", subpages}, {"ber", rec.ber}, {"bg", bg}});
  } else {
    trace_->span(cat, name, from, rec.end, rec.chip,
                 {{"subpages", subpages}, {"bg", bg}});
  }
}

void OpStream::flight(const OpRecord& rec) {
  using introspect::FlightEvent;
  using introspect::FlightEventKind;
  const auto detail = static_cast<std::uint8_t>(
      (static_cast<int>(rec.kind) << 2) | (static_cast<int>(rec.mode) << 1) |
      (rec.background ? 1 : 0));
  flight_->record(FlightEvent{rec.ready, rec.id, rec.chip, rec.channel,
                              FlightEventKind::kOpBegin, detail});
  // The ledger's suspend-savings condition, with the saved nanoseconds.
  if (const SimTime saved = rec.suspend_saved(); saved > 0) {
    flight_->record(FlightEvent{
        rec.array.from, rec.id, rec.chip,
        static_cast<std::uint32_t>(std::min<SimTime>(saved, UINT32_MAX)),
        FlightEventKind::kEraseSuspend, detail});
  }
  flight_->record(FlightEvent{rec.end, rec.id, rec.chip, rec.channel,
                              FlightEventKind::kOpFinish, detail});
}

}  // namespace ppssd::telemetry
