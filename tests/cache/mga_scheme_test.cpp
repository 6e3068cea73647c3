#include "cache/mga_scheme.h"

#include <gtest/gtest.h>

#include "common/units.h"

namespace ppssd::cache {
namespace {

SsdConfig small_config() {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.gc_interleave_ops = 0;
  return cfg;
}

TEST(MgaScheme, AggregatesRequestsIntoSharedPages) {
  MgaScheme scheme(small_config());
  std::vector<PhysOp> ops;
  const std::uint32_t planes = scheme.array().geometry().planes();
  // One 1-subpage write per plane rotation: after `planes` writes the
  // second round appends into the same pages -> partial programs.
  for (Lsn lsn = 0; lsn < 4 * planes; ++lsn) {
    ops.clear();
    scheme.host_write(lsn * 10, 1, ms_to_ns(lsn + 1.0), ops);
  }
  EXPECT_GT(scheme.array().counters().partial_program_ops, 0u);
  scheme.check_consistency();
}

TEST(MgaScheme, SecondLevelTableTracksLiveSlots) {
  MgaScheme scheme(small_config());
  std::vector<PhysOp> ops;
  scheme.host_write(0, 2, ms_to_ns(1.0), ops);
  scheme.host_write(100, 1, ms_to_ns(2.0), ops);
  EXPECT_EQ(scheme.second_level().live_entries(), 3u);

  // Rewriting invalidates the old slots and registers new ones.
  scheme.host_write(0, 2, ms_to_ns(3.0), ops);
  EXPECT_EQ(scheme.second_level().live_entries(), 3u);
  scheme.check_consistency();
}

TEST(MgaScheme, SecondLevelLookupMatchesDeviceMap) {
  MgaScheme scheme(small_config());
  std::vector<PhysOp> ops;
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    ops.clear();
    scheme.host_write(lsn * 4, 1, ms_to_ns(lsn + 1.0), ops);
  }
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    const auto addr = scheme.device_map().lookup(lsn * 4);
    ASSERT_TRUE(addr.valid());
    EXPECT_EQ(scheme.second_level().lookup(scheme.array().geometry(), addr),
              lsn * 4);
  }
}

TEST(MgaScheme, RespectsPartialProgramLimit) {
  SsdConfig cfg = small_config();
  cfg.cache.max_partial_programs = 2;  // page takes at most 2 program ops
  MgaScheme scheme(cfg);
  std::vector<PhysOp> ops;
  SimTime now = 0;
  for (Lsn lsn = 0; lsn < 4000; ++lsn) {
    ops.clear();
    scheme.host_write(lsn * 4, 1, now += ms_to_ns(0.5), ops);
  }
  // Enforcement happens inside FlashArray::program (aborts on violation);
  // surviving the workload plus a full consistency pass is the assertion.
  scheme.check_consistency();
  // With a 2-op limit, pages hold at most 2 appended subpages.
  const auto& geom = scheme.array().geometry();
  for (std::uint32_t ord = 0; ord < geom.slc_block_count(); ++ord) {
    const BlockId b = geom.slc_block_at(ord);
    const auto& blk = scheme.array().block(b);
    for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
      EXPECT_LE(scheme.array().page(b, static_cast<PageId>(p)).program_ops(),
                2);
    }
  }
}

TEST(MgaScheme, NearFullPageUtilizationUnderGc) {
  MgaScheme scheme(small_config());
  std::vector<PhysOp> ops;
  SimTime now = 0;
  for (Lsn lsn = 0; lsn < 120'000; lsn += 2) {
    ops.clear();
    scheme.host_write(lsn, 2, now += ms_to_ns(0.2), ops);
  }
  ASSERT_GT(scheme.metrics().slc_gc_count, 0u);
  // Figure 9: MGA's aggregation keeps GC'd pages ~fully used.
  EXPECT_GT(scheme.metrics().gc_utilization.mean(), 0.95);
  scheme.check_consistency();
}

TEST(MgaScheme, EraseClearsSecondLevelEntries) {
  MgaScheme scheme(small_config());
  std::vector<PhysOp> ops;
  SimTime now = 0;
  for (Lsn lsn = 0; lsn < 120'000; lsn += 2) {
    ops.clear();
    scheme.host_write(lsn, 2, now += ms_to_ns(0.2), ops);
  }
  ASSERT_GT(scheme.array().counters().slc_erases, 0u);
  // Second-level live entries must equal valid SLC subpages.
  std::uint64_t slc_valid = 0;
  const auto& geom = scheme.array().geometry();
  for (std::uint32_t ord = 0; ord < geom.slc_block_count(); ++ord) {
    slc_valid += scheme.array().block(geom.slc_block_at(ord)).valid_subpages();
  }
  EXPECT_EQ(scheme.second_level().live_entries(), slc_valid);
}

TEST(MgaScheme, InPageDisturbRaisesReadBerVsBaseline) {
  // The Figure 8 mechanism at unit scale: aggregate two requests into one
  // page, read the first — it has absorbed in-page disturb.
  MgaScheme scheme(small_config());
  std::vector<PhysOp> ops;
  const std::uint32_t planes = scheme.array().geometry().planes();
  // Two rounds over every plane put two requests into each page.
  for (Lsn lsn = 0; lsn < 2 * planes; ++lsn) {
    ops.clear();
    scheme.host_write(lsn * 8, 1, ms_to_ns(lsn + 1.0), ops);
  }
  ops.clear();
  scheme.host_read(0, 1, ms_to_ns(1000.0), ops);
  const double first_ber = scheme.metrics().read_ber.mean();

  ops.clear();
  scheme.host_read(static_cast<Lsn>(planes) * 8, 1, ms_to_ns(1001.0), ops);
  // The later-written subpage saw no in-page disturb after its write.
  const double later_ber =
      scheme.metrics().read_ber.sum() - first_ber;  // second sample
  EXPECT_GT(first_ber, later_ber);
}

}  // namespace
}  // namespace ppssd::cache
