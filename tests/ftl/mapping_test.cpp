#include "ftl/mapping.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

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

/// A stand-in for the array's version row: the version "stored" in slot
/// `a`, derived from its address.
std::uint32_t version_in_slot(const PhysicalAddress& a) {
  return a.block % 7 + a.page + a.subpage + 1;
}

/// A restore slot hint that does nothing.
void no_hint(const PhysicalAddress&) {}

// An entry is the slot code alone; the checkpoint still writes the former
// (slot code, version) pair, with the version gathered from the slot.
TEST(DeviceMap, FourByteEntryKeepsTheCheckpointLayout) {
  static_assert(sizeof(DeviceMap::Entry) == 4);
  DeviceMap map = paper_map(4);
  const PhysicalAddress a{9, 127, 3};
  const PhysicalAddress b{0, 0, 0};
  map.set(1, a);
  map.set(2, b);
  EXPECT_EQ(map.take(2), b);
  EXPECT_FALSE(map.take(2).valid());
  map.set(2, b);
  map.set(3, a);
  map.clear(3);
  EXPECT_EQ(map.mapped_count(), 2u);

  io::StateSink sink;
  map.save(sink, version_in_slot);
  const std::vector<std::uint8_t>& bytes = sink.buffer();
  ASSERT_EQ(bytes.size(), 8u + 4u * 8u + 8u);
  io::StateSource raw(bytes);
  EXPECT_EQ(raw.u64(), 4u);
  const GeometryConfig g;
  const std::uint32_t shift = g.slot_page_bits() + g.slot_subpage_bits();
  const std::uint32_t expected[4][2] = {
      {0xffffffffu, 0},
      {a.block << shift | std::uint32_t{a.page} << g.slot_subpage_bits() |
           a.subpage,
       version_in_slot(a)},
      {0, version_in_slot(b)},
      {0xffffffffu, 0},
  };
  for (const auto& [slot, version] : expected) {
    EXPECT_EQ(raw.u32(), slot);
    EXPECT_EQ(raw.u32(), version);
  }
  EXPECT_EQ(raw.u64(), 2u);
  EXPECT_TRUE(raw.exhausted());

  DeviceMap back = paper_map(4);
  io::StateSource src(bytes);
  back.restore(src, version_in_slot, no_hint);
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(back.mapped_count(), 2u);
  EXPECT_FALSE(back.mapped(0));
  EXPECT_EQ(back.lookup(1), a);
  EXPECT_EQ(back.lookup(2), b);
  EXPECT_FALSE(back.mapped(3));
}

TEST(DeviceMap, CheckpointRoundTripsEveryEntry) {
  DeviceMap map = paper_map(64);
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    if (lsn % 3 != 0) {
      map.set(lsn, PhysicalAddress{static_cast<BlockId>(lsn * 1000),
                                   static_cast<PageId>(lsn % 128),
                                   static_cast<SubpageId>(lsn % 4)});
    }
  }
  io::StateSink sink;
  map.save(sink, version_in_slot);

  // Restore hints every mapped entry's slot once, in LSN order, and no
  // unmapped one.
  DeviceMap back = paper_map(64);
  io::StateSource src(sink.buffer());
  std::vector<PhysicalAddress> hinted;
  back.restore(src, version_in_slot,
               [&](const PhysicalAddress& a) { hinted.push_back(a); });
  EXPECT_TRUE(src.ok());
  EXPECT_EQ(back.mapped_count(), map.mapped_count());
  std::vector<PhysicalAddress> mapped;
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    EXPECT_EQ(back.lookup(lsn), map.lookup(lsn)) << "lsn " << lsn;
    if (map.mapped(lsn)) mapped.push_back(map.lookup(lsn));
  }
  EXPECT_EQ(hinted, mapped);
}

// Restore checks each entry's version against the slot it names: a
// mapped entry whose version differs, or an unmapped entry with a
// version, means the map disagrees with the array.
TEST(DeviceMapDeathTest, CheckpointVersionThatDisagreesWithItsSlotAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(4);
  map.set(1, PhysicalAddress{3, 4, 1});
  io::StateSink sink;
  map.save(sink, version_in_slot);
  const auto other = [](const PhysicalAddress& a) {
    return version_in_slot(a) + 1;
  };
  {
    DeviceMap back = paper_map(4);
    io::StateSource src(sink.buffer());
    EXPECT_DEATH(back.restore(src, other, no_hint), "disagrees with the versions");
  }
  // LSN 0 is unmapped; give it a version.
  std::vector<std::uint8_t> bytes = sink.buffer();
  bytes[8 + 4] = 1;
  DeviceMap back = paper_map(4);
  io::StateSource src(bytes);
  EXPECT_DEATH(back.restore(src, version_in_slot, no_hint),
               "disagrees with the versions");
}

TEST(DeviceMapDeathTest, CheckpointOfAnotherSizeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(8);
  io::StateSink sink;
  map.save(sink, version_in_slot);
  DeviceMap other = paper_map(9);
  io::StateSource src(sink.buffer());
  EXPECT_DEATH(other.restore(src, version_in_slot, no_hint), "mapping shape");
}

}  // namespace
}  // namespace ppssd::ftl
