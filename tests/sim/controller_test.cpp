#include "sim/controller.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/units.h"
#include "sim/event_queue.h"

namespace ppssd::sim {
namespace {

SsdConfig cfg() { return SsdConfig::scaled(1024); }

cache::PhysOp read_op(std::uint32_t chip, std::uint32_t channel = 0,
                      bool bg = false) {
  cache::PhysOp op;
  op.chip = chip;
  op.channel = channel;
  op.kind = cache::PhysOp::Kind::kRead;
  op.mode = CellMode::kSlc;
  op.subpages = 1;
  op.ber = 0.0;
  op.background = bg;
  return op;
}

cache::PhysOp program_op(std::uint32_t chip, std::uint32_t channel = 0,
                         bool bg = false) {
  cache::PhysOp op;
  op.chip = chip;
  op.channel = channel;
  op.kind = cache::PhysOp::Kind::kProgram;
  op.mode = CellMode::kSlc;
  op.subpages = 1;
  op.background = bg;
  return op;
}

cache::PhysOp erase_op(std::uint32_t chip) {
  cache::PhysOp op;
  op.chip = chip;
  op.channel = 0;
  op.kind = cache::PhysOp::Kind::kErase;
  op.background = true;
  return op;
}

// Single-command pricing and resource serialisation (Table 2 timings).

TEST(Controller, SingleReadLatency) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  // sense + transfer + min ECC decode (ber = 0).
  EXPECT_EQ(ctrl.schedule(read_op(0), 0),
            c.timing.slc_read + c.timing.transfer_per_subpage +
                c.ecc.min_decode);
}

TEST(Controller, SingleProgramLatency) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  EXPECT_EQ(ctrl.schedule(program_op(0), 1000),
            1000 + c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, IdleChipStartsAtReadyTime) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  EXPECT_EQ(ctrl.schedule(program_op(0), ms_to_ns(500.0)),
            ms_to_ns(500.0) + c.timing.transfer_per_subpage +
                c.timing.slc_write);
}

TEST(Controller, MlcOpsSlower) {
  const SsdConfig c = cfg();
  Controller slc_ctrl(c, 2, 2);
  Controller mlc_ctrl(c, 2, 2);
  cache::PhysOp mlc = program_op(0);
  mlc.mode = CellMode::kMlc;
  EXPECT_EQ(mlc_ctrl.schedule(mlc, 0) - slc_ctrl.schedule(program_op(0), 0),
            c.timing.mlc_write - c.timing.slc_write);
}

TEST(Controller, SameChipSerializes) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  ctrl.schedule(program_op(0), 0);
  EXPECT_GE(ctrl.schedule(program_op(0), 0), 2 * c.timing.slc_write);
}

TEST(Controller, DifferentChipsParallel) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const SimTime a = ctrl.schedule(program_op(0, 0), 0);
  const SimTime b = ctrl.schedule(program_op(1, 1), 0);  // independent bus
  EXPECT_EQ(a, c.timing.transfer_per_subpage + c.timing.slc_write);
  EXPECT_EQ(b, a);
}

TEST(Controller, ChannelSerializesTransfers) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 1);
  // Two programs on different chips but one channel: transfers serialize.
  cache::PhysOp a = program_op(0);
  cache::PhysOp b = program_op(1);
  a.subpages = b.subpages = 4;
  ctrl.schedule(a, 0);
  EXPECT_EQ(ctrl.schedule(b, 0),
            2 * 4 * c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, EccCostScalesWithBer) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  cache::PhysOp op = read_op(0);
  const SimTime clean = ctrl.ecc_cost(op);
  op.ber = 5e-4;
  const SimTime noisy = ctrl.ecc_cost(op);
  EXPECT_GT(noisy, clean);
  op.subpages = 4;
  EXPECT_EQ(ctrl.ecc_cost(op), 4 * noisy);
}

TEST(Controller, EraseSuspendDoesNotBlockHostOps) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  ctrl.schedule(erase_op(0), 0);
  // A host program right after the (suspended) erase starts immediately.
  EXPECT_EQ(ctrl.schedule(program_op(0), 100),
            100 + c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, ErasesSerializeWithEachOther) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  ctrl.schedule(erase_op(0), 0);
  EXPECT_EQ(ctrl.schedule(erase_op(0), 0), 2 * c.timing.erase);
}

TEST(Controller, UsageAccounting) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  ctrl.schedule(program_op(0), 0);
  ctrl.schedule(read_op(1, 0, true), 0);
  ctrl.schedule(erase_op(0), 0);
  EXPECT_EQ(ctrl.usage().program_fg, c.timing.slc_write);
  EXPECT_EQ(ctrl.usage().read_bg, c.timing.slc_read);
  EXPECT_EQ(ctrl.usage().erase_bg, c.timing.erase);
  EXPECT_EQ(ctrl.usage().total(),
            c.timing.slc_write + c.timing.slc_read + c.timing.erase);
}

TEST(Controller, ResetClearsState) {
  Controller ctrl(cfg(), 2, 2);
  ctrl.schedule(program_op(0), 0);
  EXPECT_GT(ctrl.chip_free_at(0), 0u);
  ctrl.reset();
  EXPECT_EQ(ctrl.chip_free_at(0), 0u);
  EXPECT_EQ(ctrl.usage().total(), 0u);
}

// A dependency's completion gates the dependent op even when its own chip
// and channel are idle: the GC relocation program cannot start before the
// page read that sources its data.
TEST(Controller, DependencyReadyTimeGatesIdleChip) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);
  const SimTime read_end = ctrl.schedule(read_op(0, 0, true), 0);
  EXPECT_EQ(read_end,
            c.timing.slc_read + c.timing.transfer_per_subpage +
                c.ecc.min_decode);
  // Chip 1 / channel 1 are idle, yet the program starts only at read_end.
  const SimTime prog_end = ctrl.schedule(program_op(1, 1, true), read_end);
  EXPECT_EQ(prog_end,
            read_end + c.timing.transfer_per_subpage + c.timing.slc_write);
}

TEST(Controller, ForegroundSuspendsEraseBackgroundWaits) {
  const SsdConfig c = cfg();
  // Background case: the program queues behind the whole erase.
  {
    Controller ctrl(c, 2, 2);
    ctrl.schedule(erase_op(0), 0);
    const SimTime end = ctrl.schedule(program_op(0, 0, true), 100);
    EXPECT_EQ(end, c.timing.erase + c.timing.slc_write);
  }
  // Foreground case: the host program suspends the erase and runs as if
  // the chip were idle.
  {
    Controller ctrl(c, 2, 2);
    ctrl.schedule(erase_op(0), 0);
    const SimTime end = ctrl.schedule(program_op(0, 0, false), 100);
    EXPECT_EQ(end, 100 + c.timing.transfer_per_subpage + c.timing.slc_write);
  }
}

TEST(Controller, AdvanceToRetiresInflightCommands) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 4, 2);
  const SimTime a = ctrl.schedule(program_op(0), 0);
  const SimTime b = ctrl.schedule(read_op(1, 1), 0);  // finishes earlier
  ASSERT_NE(a, b);
  EXPECT_EQ(ctrl.clock(), 0u);  // scheduling alone does not move the clock
  ctrl.advance_to(std::min(a, b));
  EXPECT_EQ(ctrl.clock(), std::min(a, b));
  ctrl.advance_to(kNoTime);  // retire everything; clock lands on last end
  EXPECT_EQ(ctrl.clock(), std::max(a, b));
  ctrl.advance_to(kNoTime);  // nothing left: the clock stays put
  EXPECT_EQ(ctrl.clock(), std::max(a, b));
}

TEST(Controller, ClockNeverMovesBackwards) {
  Controller ctrl(cfg(), 2, 2);
  ctrl.advance_to(5000);
  ctrl.advance_to(1000);
  EXPECT_EQ(ctrl.clock(), 5000u);
  // A full drain past every completion does not pull the clock back.
  const SimTime past = std::max<SimTime>(ctrl.schedule(program_op(0), 0),
                                         5000) + 1000;
  ctrl.advance_to(past);
  ctrl.advance_to(kNoTime);
  EXPECT_EQ(ctrl.clock(), past);
}

// The acceptance scenario for out-of-order host completions: chip 1 is
// mired in a GC chain (page read -> relocation program -> erase) when a
// host write lands on it; a short host read on idle chip 0, submitted
// later, finishes first. Delivering completions through the stable event
// queue hands the host the read before the write.
TEST(Controller, ShortReadOvertakesGcLadenWrite) {
  const SsdConfig c = cfg();
  Controller ctrl(c, 2, 2);

  // GC chain on chip 1 / channel 1.
  const SimTime gc_read = ctrl.schedule(read_op(1, 1, true), 0);
  const SimTime gc_prog = ctrl.schedule(program_op(1, 1, true), gc_read);
  ctrl.schedule(erase_op(1), gc_prog);

  EventQueue<char> completions;  // payload: which host request
  const SimTime w = ctrl.schedule(program_op(1, 1, false), 100);
  completions.push(w, 'W');
  const SimTime r = ctrl.schedule(read_op(0, 0, false), 200);
  completions.push(r, 'R');

  // The write queued behind the GC program on its lane (the erase was
  // suspended); the read ran on the idle chip.
  EXPECT_GE(w, gc_prog + c.timing.slc_write);
  EXPECT_EQ(r, 200 + c.timing.slc_read + c.timing.transfer_per_subpage +
                   c.ecc.min_decode);
  EXPECT_LT(r, w);
  EXPECT_EQ(completions.pop().payload, 'R');
  EXPECT_EQ(completions.pop().payload, 'W');
}

// ---- erase-suspend attribution edge cases --------------------------------
//
// Each test attaches an in-memory attribution ledger and asserts the
// suspend-remainder / suspend-savings ticks the controller reports for
// the paper's erase-suspend corner cases. Per-op conservation
// (components tile [ready, end] exactly) is asserted alongside.

namespace attr = telemetry::attribution;

constexpr std::size_t kEraseRem =
    static_cast<std::size_t>(attr::Component::kEraseRemainder);

TEST(Controller, BackToBackSuspendsOfOneEraseEachRecordShrinkingSavings) {
  const SsdConfig c = cfg();
  const SimTime T = c.timing.transfer_per_subpage;
  const SimTime W = c.timing.slc_write;
  const SimTime E = c.timing.erase;
  ASSERT_GT(E, 2 * T + W);  // the erase outlives both suspending writes

  Controller ctrl(c, 1, 1);
  telemetry::TelemetryOptions opts;
  opts.attribution = true;
  telemetry::Telemetry tel(opts);
  ctrl.attach_telemetry(&tel);
  attr::AttributionLedger* led = tel.attribution();
  ASSERT_NE(led, nullptr);

  ctrl.schedule(erase_op(0), 0);  // erase horizon [0, E)
  // First host write suspends: it runs as if the chip were idle, and the
  // ledger records how long it *would* have waited.
  const SimTime end1 = ctrl.schedule(program_op(0), 0);
  EXPECT_EQ(end1, T + W);
  EXPECT_EQ(led->suspend_saved_ns(), E - T);
  EXPECT_EQ(led->last_op().comp[kEraseRem], 0u);
  EXPECT_EQ(led->last_op().component_sum(), end1);
  // Second host write suspends the *same* still-pending erase; the saved
  // remainder shrank by exactly the simulated time that passed.
  const SimTime end2 = ctrl.schedule(program_op(0), end1);
  EXPECT_EQ(end2, end1 + T + W);
  EXPECT_EQ(led->suspend_saved_ns(), (E - T) + (E - (2 * T + W)));
  EXPECT_EQ(led->last_op().comp[kEraseRem], 0u);
  EXPECT_EQ(led->last_op().component_sum(), end2 - end1);
}

TEST(Controller, SuspendAtExactEraseCompletionTickSavesNothing) {
  const SsdConfig c = cfg();
  const SimTime T = c.timing.transfer_per_subpage;
  const SimTime W = c.timing.slc_write;
  const SimTime E = c.timing.erase;

  Controller ctrl(c, 1, 1);
  telemetry::TelemetryOptions opts;
  opts.attribution = true;
  telemetry::Telemetry tel(opts);
  ctrl.attach_telemetry(&tel);
  attr::AttributionLedger* led = tel.attribution();

  ctrl.schedule(erase_op(0), 0);
  // The program pulse starts exactly when the erase completes: there is
  // nothing to suspend, so no savings and no remainder.
  const SimTime end = ctrl.schedule(program_op(0), E - T);
  EXPECT_EQ(end, E + W);
  EXPECT_EQ(led->suspend_saved_ns(), 0u);
  EXPECT_EQ(led->last_op().comp[kEraseRem], 0u);
  EXPECT_EQ(led->last_op().component_sum(), T + W);

  // One tick earlier and the suspend is real: exactly one saved tick.
  Controller ctrl2(c, 1, 1);
  telemetry::Telemetry tel2(opts);
  ctrl2.attach_telemetry(&tel2);
  ctrl2.schedule(erase_op(0), 0);
  const SimTime end2 = ctrl2.schedule(program_op(0), E - T - 1);
  EXPECT_EQ(end2, E - 1 + W);
  EXPECT_EQ(tel2.attribution()->suspend_saved_ns(), 1u);
}

TEST(Controller, ResumeThenImmediateGcWaitsOutRemainderChargedToErase) {
  const SsdConfig c = cfg();
  const SimTime T = c.timing.transfer_per_subpage;
  const SimTime W = c.timing.slc_write;
  const SimTime E = c.timing.erase;
  ASSERT_GT(E, 2 * T + W);

  Controller ctrl(c, 1, 1);
  telemetry::TelemetryOptions opts;
  opts.attribution = true;
  telemetry::Telemetry tel(opts);
  ctrl.attach_telemetry(&tel);
  attr::AttributionLedger* led = tel.attribution();

  ctrl.schedule(erase_op(0), 0);
  // Host write suspends the erase...
  const SimTime end1 = ctrl.schedule(program_op(0), 0);
  EXPECT_EQ(end1, T + W);
  // ...the erase resumes, and a GC relocation program issued right after
  // the host write must wait out the remainder — charged tick-for-tick
  // to kEraseRemainder and blamed on the erase op.
  const SimTime end2 = ctrl.schedule(program_op(0, 0, true), end1);
  EXPECT_EQ(end2, E + W);
  const attr::OpBlame& op = led->last_op();
  EXPECT_EQ(op.comp[kEraseRem], E - (end1 + T));
  EXPECT_EQ(op.component_sum(), end2 - end1);
  EXPECT_EQ(op.blocker_cls, attr::OpClass::kErase);
  EXPECT_EQ(op.blocker_res, attr::Resource::kErase);
  EXPECT_EQ(led->wait_ns(attr::OpClass::kGcProgram, attr::OpClass::kErase,
                         attr::Resource::kErase, CellMode::kSlc),
            E - (end1 + T));
}

TEST(Controller, ResetClearsClockAndInflight) {
  Controller ctrl(cfg(), 2, 2);
  ctrl.schedule(program_op(0), 0);
  ctrl.advance_to(10);
  ctrl.reset();
  EXPECT_EQ(ctrl.clock(), 0u);
  // The pre-reset command no longer counts: a full drain stays at zero.
  ctrl.advance_to(kNoTime);
  EXPECT_EQ(ctrl.clock(), 0u);
  EXPECT_EQ(ctrl.chip_free_at(0), 0u);
  EXPECT_EQ(ctrl.usage().total(), 0u);
}

// The shared counter tail: every op kind x mode lands in its own
// flash_ops series. A distinct op count per cell makes any cross-wiring
// show up as a wrong total; erases and reprograms have one mode-free
// series that counts each op once in either mode.
TEST(Controller, FlashOpCountersCountEachKindAndModeOnce) {
  using Kind = cache::PhysOp::Kind;
  telemetry::Telemetry tel;  // registry only
  Controller ctrl(cfg(), 4, 2);
  ctrl.attach_telemetry(&tel);

  std::uint64_t n = 0;
  SimTime now = 0;
  for (const Kind kind :
       {Kind::kRead, Kind::kProgram, Kind::kErase, Kind::kReprogram}) {
    for (const CellMode mode : {CellMode::kSlc, CellMode::kMlc}) {
      ++n;
      for (std::uint64_t i = 0; i < n; ++i) {
        cache::PhysOp op;
        op.chip = static_cast<std::uint32_t>(i % 4);
        op.channel = static_cast<std::uint32_t>(i % 2);
        op.kind = kind;
        op.mode = mode;
        op.subpages = 2;
        op.ber = 1e-4;
        op.background = kind == Kind::kErase || i % 2 == 1;
        ctrl.schedule(op, now);
        now += us_to_ns(10.0);
      }
    }
  }

  const auto value = [&](const std::string& series) {
    for (const auto& s : tel.registry().snapshot()) {
      if (s.series == series) return static_cast<std::uint64_t>(s.value);
    }
    ADD_FAILURE() << "no series " << series;
    return std::uint64_t{0};
  };
  EXPECT_EQ(value("flash_ops{kind=read,mode=slc}"), 1u);
  EXPECT_EQ(value("flash_ops{kind=read,mode=mlc}"), 2u);
  EXPECT_EQ(value("flash_ops{kind=program,mode=slc}"), 3u);
  EXPECT_EQ(value("flash_ops{kind=program,mode=mlc}"), 4u);
  EXPECT_EQ(value("flash_ops{kind=erase}"), 5u + 6u);
  EXPECT_EQ(value("flash_ops{kind=reprogram}"), 7u + 8u);
  std::size_t flash_series = 0;
  for (const auto& s : tel.registry().snapshot()) {
    flash_series += s.series.rfind("flash_ops", 0) == 0;
  }
  EXPECT_EQ(flash_series, 6u);
  // One chip-wait sample per non-erase op, one decode per read.
  EXPECT_EQ(value("chip_wait_ns.count"), 1u + 2u + 3u + 4u + 7u + 8u);
  EXPECT_EQ(value("ecc_decode_ns.count"), 1u + 2u);
  EXPECT_EQ(value("ecc_decodes"), 2u * (1u + 2u));

  // Detached, scheduling counts nothing.
  ctrl.attach_telemetry(nullptr);
  ctrl.schedule(read_op(0), now);
  EXPECT_EQ(value("flash_ops{kind=read,mode=slc}"), 1u);
  EXPECT_EQ(value("ecc_decode_ns.count"), 1u + 2u);
}

}  // namespace
}  // namespace ppssd::sim
