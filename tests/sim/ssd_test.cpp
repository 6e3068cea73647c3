#include "sim/ssd.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "cache/ipu_scheme.h"
#include "common/state_io.h"
#include "common/units.h"
#include "support/checkpoint_rows.h"
#include "telemetry/introspect/snapshotter.h"
#include "trace/profiles.h"
#include "trace/synthetic.h"

namespace ppssd::sim {
namespace {

SsdConfig cfg() { return SsdConfig::scaled(1024); }

TEST(Ssd, WriteCompletesAfterArrival) {
  Ssd ssd(cfg(), "IPU");
  const auto done = ssd.submit(OpType::kWrite, 0, 4096, ms_to_ns(10.0));
  EXPECT_EQ(done.start, ms_to_ns(10.0));
  EXPECT_GT(done.finish, done.start);
  EXPECT_GE(done.drained, done.finish);
  // One 4K write: transfer + SLC program.
  EXPECT_EQ(done.latency(), cfg().timing.transfer_per_subpage +
                                cfg().timing.slc_write);
}

TEST(Ssd, ByteAddressingConvertsToSubpages) {
  Ssd ssd(cfg(), "Baseline");
  // A 6000-byte write at offset 100 touches subpages 0 and 1.
  ssd.submit(OpType::kWrite, 100, 6000, 0);
  EXPECT_TRUE(ssd.scheme().device_map().mapped(0));
  EXPECT_TRUE(ssd.scheme().device_map().mapped(1));
  EXPECT_FALSE(ssd.scheme().device_map().mapped(2));
}

TEST(Ssd, OffsetWrapsIntoLogicalSpace) {
  Ssd ssd(cfg(), "Baseline");
  const std::uint64_t logical = ssd.logical_bytes();
  const auto done =
      ssd.submit(OpType::kWrite, logical + 8192, 4096, ms_to_ns(1.0));
  EXPECT_GT(done.latency(), 0u);
  EXPECT_TRUE(ssd.scheme().device_map().mapped(2));  // wrapped to lsn 2
}

TEST(Ssd, SizeClampedAtTopOfLogicalSpace) {
  Ssd ssd(cfg(), "Baseline");
  const std::uint64_t logical = ssd.logical_bytes();
  // A write straddling the end of the logical space is truncated.
  const auto done =
      ssd.submit(OpType::kWrite, logical - 4096, 64 * 1024, ms_to_ns(1.0));
  EXPECT_GT(done.latency(), 0u);
  ssd.scheme().check_consistency();
}

TEST(Ssd, ReadOfWrittenDataIsFasterThanWrite) {
  Ssd ssd(cfg(), "IPU");
  const auto w = ssd.submit(OpType::kWrite, 0, 8192, ms_to_ns(1.0));
  const auto r = ssd.submit(OpType::kRead, 0, 8192, ms_to_ns(100.0));
  EXPECT_LT(r.latency(), w.latency());
}

TEST(Ssd, BackgroundWorkDeferredAndDrainable) {
  SsdConfig c = cfg();
  c.cache.gc_interleave_ops = 1;
  Ssd ssd(c, "Baseline");
  SimTime now = 0;
  // Enough writes to trigger GC; with interleave the deferred queue sees
  // traffic and fully drains at the end.
  for (Lsn lsn = 0; lsn < 50'000; lsn += 2) {
    ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 8192,
               now += ms_to_ns(0.05));
  }
  ssd.drain_background(now);
  EXPECT_EQ(ssd.deferred_background_ops(), 0u);
  ssd.scheme().check_consistency();
}

TEST(Ssd, InlineGcModeHasNoDeferredOps) {
  SsdConfig c = cfg();
  c.cache.gc_interleave_ops = 0;
  Ssd ssd(c, "Baseline");
  SimTime now = 0;
  for (Lsn lsn = 0; lsn < 30'000; lsn += 2) {
    ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 8192,
               now += ms_to_ns(0.05));
  }
  EXPECT_EQ(ssd.deferred_background_ops(), 0u);
}

TEST(Ssd, InlineBackgroundOpsDoNotExtendForegroundEnd) {
  // gc_interleave_ops = 0 schedules a request's GC work with the request
  // itself, yet the host-visible finish covers the foreground ops only:
  // the background ops show up in `drained` alone.
  SsdConfig c = cfg();
  c.cache.gc_interleave_ops = 0;
  Ssd ssd(c, "Baseline");
  const auto background_ns = [&] {
    const auto& u = ssd.controller().usage();
    return u.read_bg + u.program_bg + u.erase_bg;
  };
  SimTime now = 0;
  std::uint64_t gc_requests = 0;
  std::uint64_t extended = 0;
  for (Lsn lsn = 0; lsn < 30'000; lsn += 2) {
    const SimTime bg_before = background_ns();
    const auto done = ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 8192,
                                 now += ms_to_ns(0.05));
    if (background_ns() == bg_before) {
      ASSERT_EQ(done.drained, done.finish);
      continue;
    }
    ++gc_requests;
    ASSERT_GE(done.drained, done.finish);
    if (done.drained > done.finish) ++extended;
  }
  EXPECT_GT(gc_requests, 0u);
  EXPECT_GT(extended, 0u);
  EXPECT_EQ(ssd.deferred_background_ops(), 0u);
}

TEST(Ssd, EnqueueMatchesSubmitTiming) {
  // The pipelined path schedules through the same controller: identical
  // request streams produce identical completion times.
  Ssd sync_ssd(cfg(), "IPU");
  Ssd async_ssd(cfg(), "IPU");
  SimTime now = 0;
  for (Lsn lsn = 0; lsn < 2000; lsn += 2) {
    now += ms_to_ns(0.05);
    const auto a = sync_ssd.submit(OpType::kWrite, lsn * kSubpageBytes, 8192,
                                   now);
    const auto b = async_ssd.enqueue(OpType::kWrite, lsn * kSubpageBytes,
                                     8192, now);
    ASSERT_EQ(a.finish, b.finish);
    ASSERT_EQ(a.drained, b.drained);
  }
  EXPECT_EQ(async_ssd.in_flight(), 1000u);
  async_ssd.drain_completions(kNoTime, [](const auto&) {});
  EXPECT_EQ(async_ssd.in_flight(), 0u);
}

TEST(Ssd, CompletionsHarvestedOutOfSubmissionOrder) {
  // A fast read enqueued after a slow write is delivered to the host
  // first: the completion queue orders by finish time, not submission.
  Ssd ssd(cfg(), "Baseline");
  // Prime one LSN so the read touches flash, then clear the horizons.
  ssd.submit(OpType::kWrite, 0, 4096, 0);
  ssd.reset_timing();

  const auto w = ssd.enqueue(OpType::kWrite, 1 << 20, 16384, 1000);
  const auto r = ssd.enqueue(OpType::kRead, 0, 4096, 2000);
  ASSERT_LT(r.finish, w.finish);  // short read overtakes the long write
  EXPECT_EQ(ssd.in_flight(), 2u);
  EXPECT_EQ(ssd.next_completion_time(), r.finish);

  std::vector<std::uint64_t> order;
  ssd.drain_completions(r.finish, [&](const Ssd::HostCompletion& c) {
    order.push_back(c.id);
    EXPECT_EQ(c.op, OpType::kRead);
    EXPECT_EQ(c.latency(), r.finish - 2000);
  });
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], r.id);
  EXPECT_EQ(ssd.in_flight(), 1u);

  ssd.drain_completions(kNoTime, [&](const Ssd::HostCompletion& c) {
    order.push_back(c.id);
  });
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[1], w.id);
  EXPECT_EQ(ssd.in_flight(), 0u);
}

TEST(Ssd, ResetTimingDropsPendingCompletions) {
  Ssd ssd(cfg(), "Baseline");
  ssd.enqueue(OpType::kWrite, 0, 4096, 1000);
  EXPECT_EQ(ssd.in_flight(), 1u);
  ssd.reset_timing();
  EXPECT_EQ(ssd.in_flight(), 0u);
  EXPECT_EQ(ssd.next_completion_time(), kNoTime);
}

TEST(Ssd, CustomSchemeInjection) {
  SsdConfig c = cfg();
  auto ipu = std::make_unique<cache::IpuScheme>(c);
  ipu->set_options({false, false, true});
  Ssd ssd(c, std::move(ipu));
  EXPECT_STREQ(ssd.scheme().name(), "IPU");
}

TEST(Ssd, LogicalBytesMatchesGeometry) {
  Ssd ssd(cfg(), "Baseline");
  EXPECT_EQ(ssd.logical_bytes(),
            ssd.scheme().array().geometry().logical_subpages() *
                kSubpageBytes);
}

/// Byte offset of the map section in an IPU device's Ssd::save stream:
/// it follows the array and block-manager sections.
std::size_t map_section_at(const Ssd& ssd) {
  io::StateSink prefix;
  ssd.scheme().array().save(prefix);
  ssd.scheme().blocks().save(prefix);
  return prefix.buffer().size();
}

// The map section of a checkpoint is the entry row, the mapped count and
// the version overflow pairs. Restore rejects each corrupt form with its
// own message: a slot code outside the array, a mapped count that
// disagrees with the entries, a saturated entry with no overflow pair, or
// an overflow pair for an unmapped LSN.
TEST(SsdDeathTest, RestoreRejectsOutOfShapeMapSection) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Ssd ssd(cfg(), "IPU");
  ssd.submit(OpType::kWrite, 0, 4 * kSubpageBytes, 0);
  ssd.submit(OpType::kWrite, kSubpageBytes, kSubpageBytes, ms_to_ns(1.0));
  ssd.reset_timing();
  ASSERT_EQ(ssd.scheme().version_of(1), 2u);
  io::StateSink sink;
  ssd.save(sink);
  const std::vector<std::uint8_t> saved = sink.take();

  // u64 entry count, one u32 entry per LSN, the u64 mapped count, then
  // the u64 overflow count (0 here) and its (u32 LSN, u32 version) pairs.
  const ftl::DeviceMap& map = ssd.scheme().device_map();
  const std::size_t entries = map_section_at(ssd) + 8;
  const std::size_t mapped_at = entries + 4 * map.logical_subpages();
  const std::size_t overflow_at = mapped_at + 8;
  std::uint64_t overflow = 0;
  std::memcpy(&overflow, saved.data() + overflow_at, sizeof overflow);
  ASSERT_EQ(overflow, 0u);
  std::uint32_t entry1 = 0;
  std::memcpy(&entry1, saved.data() + entries + 4, sizeof entry1);

  const GeometryConfig& g = cfg().geometry;
  const std::uint32_t code_bits =
      g.slot_block_bits() + g.slot_page_bits() + g.slot_subpage_bits();
  const std::uint32_t code_mask = (std::uint32_t{1} << code_bits) - 1;
  const std::uint32_t cap = map.version_cap();
  const auto restore = [&](const std::vector<std::uint8_t>& bytes) {
    Ssd twin(cfg(), "IPU");
    io::StateSource src(bytes);
    twin.restore(src);
    twin.scheme().check_consistency();
    return twin.scheme().version_of(1);
  };
  ASSERT_EQ(restore(saved), 2u);
  // LSN 1 saturated, with its full version in one overflow pair.
  const auto saturated = [&](std::vector<std::pair<std::uint32_t,
                                                   std::uint32_t>> pairs) {
    std::vector<std::uint8_t> bytes = saved;
    nand::poke(bytes, entries, 1, cap << code_bits | (entry1 & code_mask));
    nand::poke(bytes, overflow_at, 0, std::uint64_t{pairs.size()});
    io::StateSink tail;
    for (const auto& [lsn, version] : pairs) {
      tail.u32(lsn);
      tail.u32(version);
    }
    bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(overflow_at + 8),
                 tail.buffer().begin(), tail.buffer().end());
    return bytes;
  };
  EXPECT_EQ(restore(saturated({{1, cap + 5}})), cap + 5);

  // A slot code whose page lies past an SLC block's last page.
  const PhysicalAddress a = map.lookup(1);
  ASSERT_TRUE(ssd.scheme().array().geometry().is_slc_block(a.block));
  std::vector<std::uint8_t> outside = saved;
  const std::uint32_t page_field =
      ((std::uint32_t{1} << g.slot_page_bits()) - 1) << g.slot_subpage_bits();
  ASSERT_GE(page_field >> g.slot_subpage_bits(), g.pages_per_slc_block);
  nand::poke(outside, entries, 1, entry1 | page_field);
  EXPECT_DEATH(restore(outside), "map code outside the array");

  std::vector<std::uint8_t> count = saved;
  nand::poke(count, mapped_at, 0, map.mapped_count() + 1);
  EXPECT_DEATH(restore(count), "mapped count disagrees with the map entries");
  EXPECT_DEATH(restore(saturated({})),
               "saturated map entry has no overflow entry");
  const auto unmapped = static_cast<std::uint32_t>(map.logical_subpages() - 1);
  ASSERT_FALSE(map.mapped(unmapped));
  EXPECT_DEATH(restore(saturated({{1, cap + 5}, {unmapped, cap + 5}})),
               "overflow entry for an unmapped LSN");
}

// The array section's slot and page rows are range-checked on restore:
// a stream with one field out of shape aborts with its own message
// instead of restoring silently.
TEST(SsdDeathTest, RestoreRejectsOutOfShapeArrayRows) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  Ssd ssd(cfg(), "IPU");
  ssd.submit(OpType::kWrite, 0, 2 * kSubpageBytes, 0);
  ssd.submit(OpType::kWrite, kSubpageBytes, kSubpageBytes, ms_to_ns(1.0));
  ssd.reset_timing();
  io::StateSink sink;
  ssd.save(sink);
  const std::vector<std::uint8_t> saved = sink.take();
  const nand::ArrayRowOffsets rows = nand::locate_array_rows(saved);

  const nand::FlashArray& array = ssd.scheme().array();
  const PhysicalAddress a = ssd.scheme().device_map().lookup(0);
  ASSERT_TRUE(a.valid());
  const std::size_t slot = array.slot_index(a.block, a.page, a.subpage);
  const std::size_t page = array.page_index(a.block, a.page);
  const std::uint32_t spp = array.subpages_per_page();
  ASSERT_EQ(array.page(a.block, a.page).program_ops(), 2u);

  const auto restores = [&](const std::vector<std::uint8_t>& bytes) {
    Ssd twin(cfg(), "IPU");
    io::StateSource src(bytes);
    twin.restore(src);
    return src.exhausted();
  };
  ASSERT_TRUE(restores(saved));
  const auto altered = [&](std::size_t at, auto value) {
    std::vector<std::uint8_t> bytes = saved;
    nand::poke(bytes, at, 0, value);
    return bytes;
  };
  // A slot record: the owner in the low 30 bits, the state in the top 2.
  const auto record = [](std::uint32_t state, std::uint32_t owner) {
    return state << kSlotOwnerBits | owner;
  };
  const std::size_t slot_at = rows.slots + 4 * slot;
  // Each bound itself restores.
  ASSERT_TRUE(restores(altered(rows.page_ops(page), std::uint8_t(spp))));
  ASSERT_TRUE(restores(
      altered(rows.page_neighbors(page), std::uint8_t(2 * spp))));
  ASSERT_TRUE(restores(
      altered(rows.slc_neighbors_before, std::uint8_t(2 * spp))));

  EXPECT_DEATH(restores(altered(slot_at, record(3, 0))),
               "slot state out of range");
  const auto lsns = static_cast<std::uint32_t>(
      array.geometry().logical_subpages());
  EXPECT_DEATH(restores(altered(slot_at, record(1, lsns))),
               "slot owner beyond the logical subpage count");
  EXPECT_DEATH(restores(altered(rows.page_ops(page), std::uint8_t(spp + 1))),
               "page program count above subpages per page");
  EXPECT_DEATH(restores(altered(rows.page_neighbors(page),
                                std::uint8_t(2 * spp + 1))),
               "neighbour count above twice the subpages per page");
  EXPECT_DEATH(restores(altered(rows.slc_neighbors_before,
                                std::uint8_t(2 * spp + 1))),
               "neighbour count above twice the subpages per page");
  // A free slot holds nothing: the slot after LSN 1's page is unwritten.
  const std::size_t free_slot = array.slot_index(a.block, a.page, spp - 1);
  ASSERT_EQ(array.subpage_state(a.block, a.page, spp - 1),
            nand::SubpageState::kFree);
  EXPECT_DEATH(restores(altered(rows.slots + 4 * free_slot, record(0, 1))),
               "free slot holds an owner");
}

/// A prefilled device whose ts0 replay runs SLC and MLC GC.
std::unique_ptr<Ssd> gc_device() {
  auto ssd = std::make_unique<Ssd>(cfg(), "Baseline");
  ssd->scheme().prefill_mlc(
      ssd->scheme().array().geometry().logical_subpages(),
      ssd->scheme().blocks().gc_threshold_blocks(CellMode::kMlc) + 3);
  return ssd;
}

void replay_ts0(Ssd& ssd, double scale) {
  trace::SyntheticWorkload wl(trace::profile_by_name("ts0"),
                              ssd.logical_bytes(), scale);
  trace::TraceRecord rec;
  while (wl.next(rec)) ssd.submit(rec.op, rec.offset, rec.size, rec.arrival);
}

// The flight ring's kGcDecision events come from the scheme's decision
// hook: each carries the victim, the plane and that plane's free-block
// count at decision time. A twin device without a snapshotter records
// the same decisions through a test hook as the reference.
TEST(Ssd, FlightRingRecordsGcDecisionsWithPlaneFreeBlocks) {
  namespace intro = telemetry::introspect;
  intro::IntrospectOptions opts;
  opts.flight_capacity = 1u << 16;
  opts.flight_path = ::testing::TempDir() + "ssd_gc_flight.bin";
  intro::Snapshotter snap(opts);
  const auto observed = gc_device();
  observed->attach_introspection(&snap);

  std::vector<intro::FlightEvent> expected;
  const auto twin = gc_device();
  const ftl::BlockManager& bm = twin->scheme().blocks();
  twin->scheme().set_gc_decision_hook(
      [&](std::uint32_t plane, CellMode mode, BlockId victim, SimTime now) {
        expected.push_back({now, victim, plane, bm.free_blocks(plane, mode),
                            intro::FlightEventKind::kGcDecision,
                            static_cast<std::uint8_t>(mode)});
      });
  replay_ts0(*observed, 0.01);
  replay_ts0(*twin, 0.01);

  std::vector<intro::FlightEvent> recorded;
  for (const auto& ev : snap.flight()->events()) {
    if (ev.kind == intro::FlightEventKind::kGcDecision) recorded.push_back(ev);
  }
  ASSERT_FALSE(recorded.empty());
  ASSERT_GE(expected.size(), recorded.size());
  // The ring keeps the newest events: compare against the twin's tail.
  const std::size_t skip = expected.size() - recorded.size();
  for (std::size_t i = 0; i < recorded.size(); ++i) {
    const auto& want = expected[skip + i];
    EXPECT_EQ(recorded[i].time, want.time) << i;
    EXPECT_EQ(recorded[i].id, want.id) << i;
    EXPECT_EQ(recorded[i].a, want.a) << i;
    EXPECT_EQ(recorded[i].b, want.b) << i;
    EXPECT_EQ(recorded[i].detail, want.detail) << i;
  }

  // Detaching clears the hook: further GC passes record nothing.
  observed->attach_introspection(nullptr);
  const std::uint64_t events = snap.flight()->recorded();
  const std::uint64_t passes = observed->scheme().metrics().slc_gc_count;
  replay_ts0(*observed, 0.01);
  EXPECT_GT(observed->scheme().metrics().slc_gc_count, passes);
  EXPECT_EQ(snap.flight()->recorded(), events);
}

}  // namespace
}  // namespace ppssd::sim
