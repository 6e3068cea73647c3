#include "ftl/mapping.h"

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/state_io.h"

namespace ppssd::ftl {
namespace {

/// A map over `n` LSNs with the paper geometry's slot-code widths.
DeviceMap paper_map(std::uint64_t n) {
  const GeometryConfig g;
  return DeviceMap(n, g.slot_page_bits(), g.slot_subpage_bits());
}

TEST(DeviceMap, StartsUnmapped) {
  DeviceMap map = paper_map(100);
  EXPECT_EQ(map.logical_subpages(), 100u);
  EXPECT_EQ(map.mapped_count(), 0u);
  for (Lsn lsn = 0; lsn < 100; ++lsn) {
    EXPECT_FALSE(map.mapped(lsn));
    EXPECT_FALSE(map.lookup(lsn).valid());
    EXPECT_EQ(map.version(lsn), 0u);
  }
}

TEST(DeviceMap, SetLookupClearRoundTrip) {
  DeviceMap map = paper_map(10);
  const PhysicalAddress addr{42, 7, 3};
  map.set(5, addr);
  EXPECT_TRUE(map.mapped(5));
  EXPECT_EQ(map.lookup(5), addr);
  EXPECT_EQ(map.mapped_count(), 1u);

  map.clear(5);
  EXPECT_FALSE(map.mapped(5));
  EXPECT_EQ(map.mapped_count(), 0u);
}

TEST(DeviceMapDeathTest, DoubleSetAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(10);
  map.set(1, PhysicalAddress{1, 1, 1});
  EXPECT_DEATH(map.set(1, PhysicalAddress{2, 2, 2}), "already mapped");
}

TEST(DeviceMapDeathTest, ClearUnmappedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(10);
  EXPECT_DEATH(map.clear(3), "unmapped");
}

TEST(DeviceMap, ManyEntries) {
  DeviceMap map = paper_map(10000);
  for (Lsn lsn = 0; lsn < 10000; lsn += 7) {
    map.set(lsn, PhysicalAddress{static_cast<BlockId>(lsn / 64),
                                 static_cast<PageId>(lsn % 64),
                                 static_cast<SubpageId>(lsn % 4)});
  }
  for (Lsn lsn = 0; lsn < 10000; ++lsn) {
    if (lsn % 7 == 0) {
      const auto addr = map.lookup(lsn);
      EXPECT_EQ(addr.block, lsn / 64);
      EXPECT_EQ(addr.page, lsn % 64);
      EXPECT_EQ(addr.subpage, lsn % 4);
    } else {
      EXPECT_FALSE(map.mapped(lsn));
    }
  }
}

TEST(DeviceMap, RemapAfterClear) {
  DeviceMap map = paper_map(4);
  map.set(0, PhysicalAddress{1, 2, 3});
  map.clear(0);
  map.set(0, PhysicalAddress{4, 5, 2});
  EXPECT_EQ(map.lookup(0).block, 4u);
  EXPECT_EQ(map.mapped_count(), 1u);
}

// The slot code's field widths follow the geometry: at the largest block
// id a geometry may have, with the last MLC page and the last subpage,
// every field must survive pack/unpack without bleeding into its
// neighbour.
class DeviceMapSlotCode : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(DeviceMapSlotCode, ExtremeAddressesRoundTrip) {
  GeometryConfig g;
  g.page_bytes = g.subpage_bytes * GetParam();
  ASSERT_EQ(g.subpages_per_page(), GetParam());
  const std::uint32_t page_bits = g.slot_page_bits();
  const std::uint32_t sub_bits = g.slot_subpage_bits();
  EXPECT_EQ(page_bits, 7u);  // 128 MLC pages
  EXPECT_EQ(sub_bits, GetParam() == 4 ? 2u : 3u);
  // The largest block count validate() accepts for these widths.
  g.total_blocks = static_cast<std::uint32_t>(
      (std::uint64_t{1} << (32 - page_bits - sub_bits)) - 1);
  SsdConfig cfg;
  cfg.geometry = g;
  cfg.geometry.total_blocks -= cfg.geometry.total_blocks % g.planes();
  EXPECT_EQ(cfg.validate().find("slot code"), std::string::npos)
      << cfg.validate();
  cfg.geometry.total_blocks += g.planes();
  EXPECT_NE(cfg.validate().find("slot code"), std::string::npos);
  const auto max_block = static_cast<BlockId>(g.total_blocks - 1);
  const auto last_page = static_cast<PageId>(g.pages_per_mlc_block - 1);
  const auto last_sub = static_cast<SubpageId>(GetParam() - 1);

  DeviceMap map(8, page_bits, sub_bits);
  const PhysicalAddress cases[] = {
      {max_block, last_page, last_sub}, {max_block, 0, 0},
      {0, last_page, 0},                {0, 0, last_sub},
      {max_block, 0, last_sub},         {1, last_page, last_sub},
      {0, 0, 0},
  };
  Lsn lsn = 0;
  for (const PhysicalAddress& a : cases) {
    map.set(lsn, a);
    EXPECT_TRUE(map.mapped(lsn));
    EXPECT_EQ(map.lookup(lsn), a) << "lsn " << lsn;
    EXPECT_EQ(map.take(lsn), a) << "lsn " << lsn;
    EXPECT_FALSE(map.mapped(lsn));
    ++lsn;
  }
}

INSTANTIATE_TEST_SUITE_P(SubpagesPerPage, DeviceMapSlotCode,
                         ::testing::Values(4u, 8u));

TEST(DeviceMap, VersionsNeverDisturbTheMapping) {
  DeviceMap map = paper_map(4);
  const PhysicalAddress addr{9, 127, 3};
  map.set(2, addr);
  EXPECT_EQ(map.bump_version(2), 1u);
  EXPECT_EQ(map.bump_version(2), 2u);
  EXPECT_EQ(map.lookup(2), addr);
  map.rollback_version(2);
  EXPECT_EQ(map.version(2), 1u);
  EXPECT_EQ(map.lookup(2), addr);
  EXPECT_EQ(map.mapped_count(), 1u);
  // Versions of an unmapped LSN leave it unmapped.
  EXPECT_EQ(map.bump_version(3), 1u);
  EXPECT_FALSE(map.mapped(3));
  EXPECT_EQ(map.mapped_count(), 1u);
}

TEST(DeviceMap, MappingNeverDisturbsTheVersion) {
  DeviceMap map = paper_map(4);
  for (int i = 0; i < 5; ++i) (void)map.bump_version(1);
  map.set(1, PhysicalAddress{3, 4, 1});
  EXPECT_EQ(map.version(1), 5u);
  EXPECT_EQ(map.take(1), (PhysicalAddress{3, 4, 1}));
  EXPECT_EQ(map.version(1), 5u);
  // take() of an unmapped LSN is a no-op on both fields.
  EXPECT_FALSE(map.take(1).valid());
  EXPECT_EQ(map.version(1), 5u);
  map.set(1, PhysicalAddress{0, 0, 0});
  map.clear(1);
  EXPECT_EQ(map.version(1), 5u);
}

TEST(DeviceMapDeathTest, RollbackOfAnUnversionedLsnAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(4);
  EXPECT_DEATH(map.rollback_version(0), "never versioned");
}

TEST(DeviceMap, CheckpointRoundTripsEveryEntry) {
  DeviceMap map = paper_map(64);
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    for (Lsn k = 0; k <= lsn % 5; ++k) (void)map.bump_version(lsn);
    if (lsn % 3 != 0) {
      map.set(lsn, PhysicalAddress{static_cast<BlockId>(lsn * 1000),
                                   static_cast<PageId>(lsn % 128),
                                   static_cast<SubpageId>(lsn % 4)});
    }
  }
  io::StateSink sink;
  map.save(sink);

  DeviceMap back = paper_map(64);
  io::StateSource src(sink.buffer());
  back.restore(src);
  EXPECT_TRUE(src.ok());
  EXPECT_EQ(back.mapped_count(), map.mapped_count());
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    EXPECT_EQ(back.lookup(lsn), map.lookup(lsn)) << "lsn " << lsn;
    EXPECT_EQ(back.version(lsn), map.version(lsn)) << "lsn " << lsn;
  }
}

TEST(DeviceMapDeathTest, CheckpointOfAnotherSizeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(8);
  io::StateSink sink;
  map.save(sink);
  DeviceMap other = paper_map(9);
  io::StateSource src(sink.buffer());
  EXPECT_DEATH(other.restore(src), "mapping shape");
}

}  // namespace
}  // namespace ppssd::ftl
