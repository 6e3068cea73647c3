// One record per scheduled flash command, and the fan-out that folds it
// into every per-op observer (DESIGN.md §5.1, §6).
//
// Behind one attached() test, Controller::schedule builds one OpRecord
// from what its legs priced; the intervals tile [ready, end] in leg
// order (an interval not waited on is empty):
//
//   read       lane_wait, erase_wait, array, channel_wait, transfer, ecc
//   program    channel_wait, transfer, lane_wait, erase_wait, array
//   reprogram  lane_wait, erase_wait, array
//   erase      erase_wait, lane_wait, array
//
// The OpStream folds the record into the blame ledger, the flash-op
// instruments, one flash trace span and the flight ring; no sink
// recomputes the timeline. The sinks are a fixed set of
// pointers, each null when detached. Common/ types only, like the rest
// of ppssd_telemetry: the controller maps cache::PhysOp onto the record.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "telemetry/attribution/attribution.h"

namespace ppssd::telemetry {

class Telemetry;
class TraceLog;
namespace introspect {
class FlightRecorder;
}

/// Flash command kind; values match cache::PhysOp::Kind.
enum class FlashOp : std::uint8_t { kRead, kProgram, kErase, kReprogram };

/// Sim-time interval [from, to).
struct Interval {
  SimTime from = 0;
  SimTime to = 0;
  [[nodiscard]] SimTime length() const { return to - from; }
};

struct OpRecord {
  std::uint64_t id = 0;  // controller sequence number (scheduled_ops)
  FlashOp kind = FlashOp::kRead;
  CellMode mode = CellMode::kSlc;
  attribution::OpClass cls = attribution::OpClass::kHost;
  bool background = false;
  bool ecc_saturated = false;  // reads: BER beyond the decoder's range
  std::uint32_t chip = 0;
  std::uint32_t channel = 0;
  std::uint32_t subpages = 0;
  double ber = 0.0;
  SimTime ready = 0;  // no-earlier-than time the op was scheduled against
  Interval lane_wait;
  Interval erase_wait;
  Interval channel_wait;
  Interval array;     // sense, program pulse, reprogram or erase
  Interval transfer;  // channel data transfer (reads and programs)
  SimTime ecc_ns = 0;     // controller-side decode after a read transfer
  SimTime erase_was = 0;  // the chip's erase horizon before this op
  SimTime end = 0;

  /// Ticks a foreground array op skipped by suspending an in-progress
  /// erase (0 when there was nothing to suspend).
  [[nodiscard]] SimTime suspend_saved() const {
    return !background && kind != FlashOp::kErase && erase_was > array.from
               ? erase_was - array.from
               : 0;
  }
};

class OpStream {
 public:
  /// Adopt the bundle's trace log and ledger and register the flash-op
  /// instruments in its registry. Null detaches all three.
  void attach(Telemetry* telemetry);
  /// Attach (or detach, with null) the crash flight recorder.
  void set_flight(introspect::FlightRecorder* flight);

  /// True when any sink is attached: the controller's one test per op.
  [[nodiscard]] bool attached() const { return attached_; }
  [[nodiscard]] attribution::AttributionLedger* ledger() const {
    return ledger_;
  }

  /// Fold one scheduled command into every attached sink.
  void on_op(const OpRecord& rec);

  void begin_request(std::uint64_t id, OpType op, SimTime arrival) {
    if (ledger_ != nullptr) ledger_->begin_request(id, op, arrival);
  }
  void finish_request(SimTime finish) {
    if (ledger_ != nullptr) ledger_->finish_request(finish);
  }

 private:
  void count(const OpRecord& rec);
  void span(const OpRecord& rec);
  void flight(const OpRecord& rec);

  attribution::AttributionLedger* ledger_ = nullptr;
  TraceLog* trace_ = nullptr;
  introspect::FlightRecorder* flight_ = nullptr;
  // flash_ops counters indexed [FlashOp][CellMode]. Erases and
  // reprograms have one mode-free series, held in both columns.
  Counter* ops_[4][2] = {};
  Counter* ecc_decodes_ = nullptr;
  Counter* ecc_saturated_ = nullptr;
  Histogram* chip_wait_ = nullptr;  // null when no bundle is attached
  Histogram* ecc_ns_ = nullptr;
  bool attached_ = false;
};

}  // namespace ppssd::telemetry
