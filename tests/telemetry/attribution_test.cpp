#include "telemetry/attribution/attribution.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "telemetry/op_stream.h"

namespace ppssd::telemetry::attribution {
namespace {

constexpr std::size_t kService = static_cast<std::size_t>(Component::kService);
constexpr std::size_t kLaneHost =
    static_cast<std::size_t>(Component::kLaneHost);
constexpr std::size_t kLaneGcRead =
    static_cast<std::size_t>(Component::kLaneGcRead);
constexpr std::size_t kLanePrefill =
    static_cast<std::size_t>(Component::kLanePrefill);

/// A lane-only command (the reprogram shape): waits on `chip`'s array
/// lane over [ready, start), then occupies it until `end`.
OpRecord lane_op(std::uint64_t id, OpClass cls, CellMode mode,
                 bool background, SimTime ready, SimTime start, SimTime end,
                 std::uint32_t chip = 0) {
  OpRecord rec;
  rec.id = id;
  rec.kind = FlashOp::kReprogram;
  rec.mode = mode;
  rec.cls = cls;
  rec.background = background;
  rec.chip = chip;
  rec.ready = ready;
  rec.lane_wait = {ready, start};
  rec.array = {start, end};
  rec.end = end;
  return rec;
}

TEST(AttributionLedger, WaitsChargeHeadOfQueueClaims) {
  AttributionLedger led;
  led.bind_resources(1, 1);

  // Op 1 (host) occupies the lane until t=100.
  led.on_op(lane_op(1, OpClass::kHost, CellMode::kSlc, false, 0, 0, 100));

  // Op 2 (GC read) waits out op 1, then occupies until t=150.
  led.on_op(lane_op(2, OpClass::kGcRead, CellMode::kSlc, true, 0, 100, 150));
  EXPECT_EQ(led.last_op().comp[kLaneHost], 100u);

  // Op 3 (host, MLC) waits out both: the wait partitions exactly at the
  // claim boundary, blaming each slice on its occupant.
  led.on_op(lane_op(3, OpClass::kHost, CellMode::kMlc, false, 0, 150, 160));

  const OpBlame& op = led.last_op();
  EXPECT_EQ(op.comp[kLaneHost], 100u);
  EXPECT_EQ(op.comp[kLaneGcRead], 50u);
  EXPECT_EQ(op.component_sum(), 160u);
  // Worst single slice: the 100-tick stall behind op 1.
  EXPECT_EQ(op.blocker_op, 1u);
  EXPECT_EQ(op.blocker_cls, OpClass::kHost);
  EXPECT_EQ(op.blocker_res, Resource::kLane);
  EXPECT_EQ(op.blocked_ns, 100u);

  // Interference matrix, split by the blocked op's cell mode.
  EXPECT_EQ(led.wait_ns(OpClass::kHost, OpClass::kHost, Resource::kLane,
                        CellMode::kMlc),
            100u);
  EXPECT_EQ(led.wait_ns(OpClass::kHost, OpClass::kGcRead, Resource::kLane,
                        CellMode::kMlc),
            50u);
  EXPECT_EQ(led.wait_ns(OpClass::kGcRead, OpClass::kHost, Resource::kLane,
                        CellMode::kSlc),
            100u);
  EXPECT_EQ(led.ops(), 3u);
}

TEST(AttributionLedger, SeededHorizonChargesPrefill) {
  AttributionLedger led;
  led.bind_resources(1, 1);
  // Mid-run attach: the lane was already busy until t=70 when the ledger
  // bound. That occupancy has no claim, so it is seeded as prefill.
  led.seed(Resource::kLane, 0, 70);
  led.on_op(lane_op(1, OpClass::kHost, CellMode::kSlc, false, 0, 70, 100));
  EXPECT_EQ(led.last_op().comp[kLanePrefill], 70u);
  EXPECT_EQ(led.last_op().component_sum(), 100u);
}

TEST(AttributionLedger, RequestFoldTelescopesAlongCriticalChain) {
  AttributionLedger led;
  led.bind_resources(2, 1);
  led.set_keep_records(true);

  led.begin_request(7, OpType::kWrite, 10);
  // Op A: ready at arrival, 30 ticks of service, ends at 40.
  led.on_op(lane_op(1, OpClass::kHost, CellMode::kSlc, false, 10, 10, 40));
  // A parallel foreground op on another chip, off the critical chain
  // (ends at 35 — no link's ready equals that): folded out.
  led.on_op(lane_op(2, OpClass::kHost, CellMode::kSlc, false, 10, 10, 35,
                    /*chip=*/1));
  // Op B depends on A (ready == A's end), 50 ticks, ends at 90.
  led.on_op(lane_op(3, OpClass::kHost, CellMode::kSlc, false, 40, 40, 90));
  led.finish_request(90);

  ASSERT_EQ(led.records().size(), 1u);
  const RequestBlame& r = led.records().back();
  EXPECT_EQ(r.id, 7u);
  EXPECT_EQ(r.fg_ops, 2u);  // A and B; the off-chain op contributes nothing
  EXPECT_EQ(r.comp[kService], 80u);
  EXPECT_EQ(r.latency(), 80u);
  EXPECT_EQ(r.component_sum(), r.latency());
}

TEST(AttributionLedger, BackgroundOpsStayOutOfRequestFolds) {
  AttributionLedger led;
  led.bind_resources(1, 1);
  led.set_keep_records(true);

  led.begin_request(1, OpType::kRead, 0);
  // A GC program emitted while the request was open: it feeds the
  // interference matrix but never the request fold.
  led.on_op(lane_op(1, OpClass::kGcProgram, CellMode::kSlc, true, 0, 0, 200));
  // The host read waits the GC program out.
  led.on_op(lane_op(2, OpClass::kHost, CellMode::kSlc, false, 0, 200, 225));
  led.finish_request(225);

  const RequestBlame& r = led.records().back();
  EXPECT_EQ(r.fg_ops, 1u);
  EXPECT_EQ(r.comp[static_cast<std::size_t>(Component::kLaneGcProgram)],
            200u);
  EXPECT_EQ(r.component_sum(), 225u);
  EXPECT_EQ(r.blocker_op, 1u);
  EXPECT_EQ(r.blocker_cls, OpClass::kGcProgram);
}

TEST(AttributionLedger, ClaimOverflowCoarsensBlameButConserves) {
  AttributionLedger led;
  led.bind_resources(1, 1);
  // 80 consecutive occupants overflow the 64-claim cap; blame for the
  // dropped prefix coarsens to the oldest surviving claim, but the wait
  // interval still tiles exactly.
  for (std::uint64_t i = 0; i < 80; ++i) {
    // Each op finds the lane free at its ready time: an empty wait.
    led.on_op(lane_op(i + 1, OpClass::kGcRead, CellMode::kSlc, true, i * 10,
                      i * 10, (i + 1) * 10));
  }
  led.on_op(
      lane_op(100, OpClass::kHost, CellMode::kSlc, false, 0, 800, 805));
  const OpBlame& op = led.last_op();
  EXPECT_EQ(op.comp[kLaneGcRead], 800u);  // all slices blamed on GC reads
  EXPECT_EQ(op.component_sum(), 805u);    // conservation intact
}

TEST(AttributionLedger, DumpRoundTripsThroughLoader) {
  const std::string path = ::testing::TempDir() + "ppssd_ledger_test.bin";
  AttributionLedger led;
  led.bind_resources(1, 1);
  led.set_keep_records(true);
  ASSERT_TRUE(led.open_dump(path));

  for (std::uint64_t i = 0; i < 3; ++i) {
    const SimTime arrival = 1000 * i;
    led.begin_request(i, i % 2 ? OpType::kWrite : OpType::kRead, arrival);
    led.on_op(lane_op(i + 1, OpClass::kHost, CellMode::kSlc, false, arrival,
                      arrival, arrival + 40 + i));
    led.finish_request(arrival + 40 + i);
  }
  led.close_dump();

  LedgerFile file;
  std::string error;
  ASSERT_TRUE(load_ledger(path, &file, &error)) << error;
  EXPECT_EQ(file.version, kLedgerVersion);
  ASSERT_EQ(file.component_names.size(), kComponentCount);
  EXPECT_EQ(file.component_names[kService], "service");
  ASSERT_EQ(file.class_names.size(), kClassCount);
  EXPECT_EQ(file.class_names.back(), "prefill");
  ASSERT_EQ(file.records.size(), led.records().size());
  for (std::size_t i = 0; i < file.records.size(); ++i) {
    const RequestBlame& got = file.records[i];
    const RequestBlame& want = led.records()[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.op, want.op);
    EXPECT_EQ(got.arrival, want.arrival);
    EXPECT_EQ(got.finish, want.finish);
    EXPECT_EQ(got.fg_ops, want.fg_ops);
    for (std::size_t c = 0; c < kComponentCount; ++c) {
      EXPECT_EQ(got.comp[c], want.comp[c]);
    }
  }

  // A file truncated mid-record (aborted run) loads the complete prefix.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 7));
  out.close();
  ASSERT_TRUE(load_ledger(path, &file, &error)) << error;
  EXPECT_EQ(file.records.size(), 2u);

  // Garbage input is rejected with a diagnostic, not a crash.
  std::ofstream bad(path, std::ios::binary | std::ios::trunc);
  bad << "definitely not a ledger";
  bad.close();
  EXPECT_FALSE(load_ledger(path, &file, &error));
  EXPECT_FALSE(error.empty());
  std::remove(path.c_str());
}

TEST(AttributionLedger, ResetClearsClaimsButKeepsAggregates) {
  AttributionLedger led;
  led.bind_resources(1, 1);
  led.on_op(lane_op(1, OpClass::kGcProgram, CellMode::kSlc, true, 0, 0, 100));
  led.on_op(lane_op(2, OpClass::kHost, CellMode::kSlc, false, 0, 100, 110));
  led.reset_resources();
  // Aggregates survive the reset...
  EXPECT_EQ(led.wait_ns(OpClass::kHost, OpClass::kGcProgram, Resource::kLane,
                        CellMode::kSlc),
            100u);
  EXPECT_EQ(led.ops(), 2u);
  // ...but the claims are gone: a fresh op at t=0 sees an empty lane.
  led.on_op(lane_op(3, OpClass::kHost, CellMode::kSlc, false, 0, 0, 10));
  EXPECT_EQ(led.last_op().component_sum(), 10u);
}

TEST(AttributionLedger, ProgramChargesChannelBeforeLaneSoEqualWaitsBlameChannel) {
  AttributionLedger led;
  led.bind_resources(2, 1);

  // Op 1: a host program on chip 1 holds the shared channel over [0, 50).
  OpRecord xfer;
  xfer.id = 1;
  xfer.kind = FlashOp::kProgram;
  xfer.chip = 1;
  xfer.transfer = {0, 50};
  xfer.lane_wait = {50, 50};
  xfer.erase_wait = {50, 50};
  xfer.array = {50, 60};
  xfer.end = 60;
  led.on_op(xfer);
  // Op 2: a GC read-shaped lane occupant holds chip 0's lane to t=110.
  led.on_op(lane_op(2, OpClass::kGcRead, CellMode::kSlc, true, 0, 0, 110));

  // Op 3: a host program on chip 0 waits 50 ticks for the channel (op 1),
  // transfers, then waits 50 more for the lane (op 2). The two slices are
  // equal; the program leg charges the channel first, so op 1 is named.
  OpRecord prog;
  prog.id = 3;
  prog.kind = FlashOp::kProgram;
  prog.channel_wait = {0, 50};
  prog.transfer = {50, 60};
  prog.lane_wait = {60, 110};
  prog.erase_wait = {110, 110};
  prog.array = {110, 120};
  prog.end = 120;
  led.on_op(prog);

  const OpBlame& op = led.last_op();
  EXPECT_EQ(op.component_sum(), 120u);
  EXPECT_EQ(op.comp[static_cast<std::size_t>(Component::kChanHost)], 50u);
  EXPECT_EQ(op.comp[kLaneGcRead], 50u);
  EXPECT_EQ(op.blocked_ns, 50u);
  EXPECT_EQ(op.blocker_op, 1u);
  EXPECT_EQ(op.blocker_cls, OpClass::kHost);
  EXPECT_EQ(op.blocker_res, Resource::kChannel);
}

}  // namespace
}  // namespace ppssd::telemetry::attribution
