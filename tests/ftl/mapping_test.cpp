#include "ftl/mapping.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "common/config.h"
#include "common/state_io.h"

namespace ppssd::ftl {
namespace {

/// A map over `n` LSNs with the paper geometry's slot-code widths (16
/// block, 7 page and 2 subpage bits, so 7 version bits and a cap of 126).
DeviceMap paper_map(std::uint64_t n) {
  const GeometryConfig g;
  return DeviceMap(n, g.slot_block_bits(), g.slot_page_bits(),
                   g.slot_subpage_bits());
}

/// Every block of the paper map's slot-code range at 128 pages, 4
/// subpages each: a restore range check that accepts every slot.
const std::vector<std::uint32_t> kAllBlocks(std::size_t{1} << 16, 128);
constexpr std::uint32_t kSpp = 4;

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
  map.set(5, addr, 3);
  EXPECT_TRUE(map.mapped(5));
  EXPECT_EQ(map.lookup(5), addr);
  EXPECT_EQ(map.version(5), 3u);
  EXPECT_EQ(map.mapped_count(), 1u);

  EXPECT_EQ(map.clear(5), 3u);
  EXPECT_EQ(map.version(5), 0u);
  EXPECT_FALSE(map.mapped(5));
  EXPECT_EQ(map.mapped_count(), 0u);
}

TEST(DeviceMapDeathTest, DoubleSetAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(10);
  map.set(1, PhysicalAddress{1, 1, 1}, 1);
  EXPECT_DEATH(map.set(1, PhysicalAddress{2, 2, 2}, 1), "already mapped");
}

// A run is the per-LSN set() of its LSNs, slot by slot, including a
// version at or above the cap, which every LSN of the run keeps in the
// overflow table.
TEST(DeviceMap, SetRunMatchesSetPerLsn) {
  DeviceMap run = paper_map(40);
  DeviceMap each = paper_map(40);
  struct Case {
    Lsn first;
    BlockId block;
    PageId page;
    std::uint32_t n;
    std::uint32_t version;
  };
  const std::uint32_t cap = run.version_cap();
  const Case cases[] = {{0, 7, 3, 4, 1},
                        {4, 65535, 127, 1, 2},
                        {10, 1, 0, 3, cap},
                        {20, 2, 5, 4, cap + 9},
                        {36, 0, 0, 4, 1}};
  for (const Case& c : cases) {
    run.set_run(c.first, c.block, c.page, c.n, c.version);
    for (std::uint32_t i = 0; i < c.n; ++i) {
      each.set(c.first + i,
               PhysicalAddress{c.block, c.page, static_cast<SubpageId>(i)},
               c.version);
    }
  }
  EXPECT_EQ(run.mapped_count(), each.mapped_count());
  EXPECT_EQ(run.overflow_count(), 7u);
  run.check_versions();
  io::StateSink a;
  io::StateSink b;
  run.save(a);
  each.save(b);
  EXPECT_EQ(a.buffer(), b.buffer());
}

TEST(DeviceMapDeathTest, SetRunOverAMappedLsnAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(10);
  map.set(6, PhysicalAddress{1, 1, 1}, 1);
  // The mapped LSN is the last of the run.
  EXPECT_DEATH(map.set_run(3, 2, 2, 4, 1),
               "mapping an LSN that is already mapped");
  map.set_run(2, 2, 2, 4, 1);  // LSNs 2..5 are all unmapped
  EXPECT_EQ(map.mapped_count(), 5u);
}

TEST(DeviceMapDeathTest, SetRunPastTheEndAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(10);
  EXPECT_DEATH(map.set_run(8, 2, 2, 3, 1), "ppssd check failed");
}

TEST(DeviceMapDeathTest, ClearUnmappedAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(10);
  EXPECT_DEATH(map.clear(3), "unmapped");
}

TEST(DeviceMap, ManyEntries) {
  DeviceMap map = paper_map(10000);
  for (Lsn lsn = 0; lsn < 10000; lsn += 7) {
    map.set(lsn,
            PhysicalAddress{static_cast<BlockId>(lsn / 64),
                            static_cast<PageId>(lsn % 64),
                            static_cast<SubpageId>(lsn % 4)},
            static_cast<std::uint32_t>(lsn + 1));
  }
  for (Lsn lsn = 0; lsn < 10000; ++lsn) {
    if (lsn % 7 == 0) {
      const auto addr = map.lookup(lsn);
      EXPECT_EQ(addr.block, lsn / 64);
      EXPECT_EQ(addr.page, lsn % 64);
      EXPECT_EQ(addr.subpage, lsn % 4);
      EXPECT_EQ(map.version(lsn), lsn + 1);
    } else {
      EXPECT_FALSE(map.mapped(lsn));
    }
  }
}

TEST(DeviceMap, RemapAfterClear) {
  DeviceMap map = paper_map(4);
  map.set(0, PhysicalAddress{1, 2, 3}, 1);
  map.clear(0);
  map.set(0, PhysicalAddress{4, 5, 2}, 2);
  EXPECT_EQ(map.lookup(0).block, 4u);
  EXPECT_EQ(map.mapped_count(), 1u);
}

// The slot code's field widths follow the geometry: at the largest block
// id a geometry may have (one bit left for the version), with the last
// MLC page and the last subpage, every field must survive pack/unpack
// without bleeding into its neighbour or the version bit.
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
  const std::uint32_t block_bits = 31 - page_bits - sub_bits;
  g.total_blocks = std::uint32_t{1} << block_bits;
  EXPECT_EQ(g.slot_block_bits(), block_bits);
  SsdConfig cfg;
  cfg.geometry = g;
  EXPECT_EQ(cfg.validate().find("no version bit"), std::string::npos)
      << cfg.validate();
  cfg.geometry.total_blocks += g.planes();
  EXPECT_NE(cfg.validate().find("no version bit"), std::string::npos);
  const auto max_block = static_cast<BlockId>(g.total_blocks - 1);
  const auto last_page = static_cast<PageId>(g.pages_per_mlc_block - 1);
  const auto last_sub = static_cast<SubpageId>(GetParam() - 1);

  DeviceMap map(8, block_bits, page_bits, sub_bits);
  EXPECT_EQ(map.version_cap(), 0u);  // one version bit: every LSN overflows
  const PhysicalAddress cases[] = {
      {max_block, last_page, last_sub}, {max_block, 0, 0},
      {0, last_page, 0},                {0, 0, last_sub},
      {max_block, 0, last_sub},         {1, last_page, last_sub},
      {0, 0, 0},
  };
  Lsn lsn = 0;
  for (const PhysicalAddress& a : cases) {
    const auto version = static_cast<std::uint32_t>(lsn + 1);
    map.set(lsn, a, version);
    EXPECT_TRUE(map.mapped(lsn));
    EXPECT_EQ(map.lookup(lsn), a) << "lsn " << lsn;
    EXPECT_EQ(map.version(lsn), version) << "lsn " << lsn;
    const DeviceMap::Mapping taken = map.take(lsn);
    EXPECT_EQ(taken.addr, a) << "lsn " << lsn;
    EXPECT_EQ(taken.version, version) << "lsn " << lsn;
    EXPECT_FALSE(map.mapped(lsn));
    EXPECT_EQ(map.overflow_count(), 0u);
    ++lsn;
  }
}

INSTANTIATE_TEST_SUITE_P(SubpagesPerPage, DeviceMapSlotCode,
                         ::testing::Values(4u, 8u));

// An entry is one 4-byte word, [version | block | page | subpage], and the
// checkpoint writes the entry row as it stands, then the mapped count and
// the (LSN, version) overflow pairs sorted by LSN.
TEST(DeviceMap, FourByteEntryKeepsTheCheckpointLayout) {
  static_assert(sizeof(DeviceMap::Entry) == 4);
  DeviceMap map = paper_map(4);
  ASSERT_EQ(map.version_cap(), 126u);
  const PhysicalAddress a{9, 127, 3};
  const PhysicalAddress b{0, 0, 0};
  map.set(1, a, 5);
  map.set(2, b, 1);
  const DeviceMap::Mapping taken = map.take(2);
  EXPECT_EQ(taken.addr, b);
  EXPECT_EQ(taken.version, 1u);
  EXPECT_FALSE(map.take(2).addr.valid());
  map.set(2, b, 900);
  map.set(3, a, 126);
  EXPECT_EQ(map.clear(3), 126u);
  map.set(3, b, 127);
  map.clear(3);
  EXPECT_EQ(map.mapped_count(), 2u);
  EXPECT_EQ(map.overflow_count(), 1u);  // LSN 2 at 900

  io::StateSink sink;
  map.save(sink);
  const std::vector<std::uint8_t>& bytes = sink.buffer();
  ASSERT_EQ(bytes.size(), 8u + 4u * 4u + 8u + 8u + 8u);
  io::StateSource raw(bytes);
  EXPECT_EQ(raw.u64(), 4u);
  const GeometryConfig g;
  const std::uint32_t code_bits =
      g.slot_block_bits() + g.slot_page_bits() + g.slot_subpage_bits();
  const std::uint32_t shift = g.slot_page_bits() + g.slot_subpage_bits();
  const std::uint32_t expected[4] = {
      0xffffffffu,
      5u << code_bits | a.block << shift |
          std::uint32_t{a.page} << g.slot_subpage_bits() | a.subpage,
      126u << code_bits,  // saturated: the version is in the overflow
      0xffffffffu,
  };
  for (const std::uint32_t entry : expected) EXPECT_EQ(raw.u32(), entry);
  EXPECT_EQ(raw.u64(), 2u);  // mapped count
  EXPECT_EQ(raw.u64(), 1u);  // overflow pairs
  EXPECT_EQ(raw.u32(), 2u);
  EXPECT_EQ(raw.u32(), 900u);
  EXPECT_TRUE(raw.exhausted());

  DeviceMap back = paper_map(4);
  io::StateSource src(bytes);
  back.restore(src, kAllBlocks, kSpp);
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(back.mapped_count(), 2u);
  EXPECT_FALSE(back.mapped(0));
  EXPECT_EQ(back.lookup(1), a);
  EXPECT_EQ(back.version(1), 5u);
  EXPECT_EQ(back.lookup(2), b);
  EXPECT_EQ(back.version(2), 900u);
  EXPECT_FALSE(back.mapped(3));
  back.check_versions();
}

TEST(DeviceMap, CheckpointRoundTripsEveryEntry) {
  DeviceMap map = paper_map(64);
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    if (lsn % 3 != 0) {
      map.set(lsn,
              PhysicalAddress{static_cast<BlockId>(lsn * 1000),
                              static_cast<PageId>(lsn % 128),
                              static_cast<SubpageId>(lsn % 4)},
              static_cast<std::uint32_t>(lsn * lsn + 1));
    }
  }
  ASSERT_GT(map.overflow_count(), 0u);
  io::StateSink sink;
  map.save(sink);

  DeviceMap back = paper_map(64);
  io::StateSource src(sink.buffer());
  back.restore(src, kAllBlocks, kSpp);
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(back.mapped_count(), map.mapped_count());
  EXPECT_EQ(back.overflow_count(), map.overflow_count());
  for (Lsn lsn = 0; lsn < 64; ++lsn) {
    EXPECT_EQ(back.lookup(lsn), map.lookup(lsn)) << "lsn " << lsn;
    EXPECT_EQ(back.version(lsn), map.version(lsn)) << "lsn " << lsn;
  }
  io::StateSink again;
  back.save(again);
  EXPECT_EQ(again.buffer(), sink.buffer());
}

// At narrow widths the version field is small: a version below the cap
// stays in the entry, one at or above it goes to the overflow table, and
// both come back exactly through set, lookup, take and clear. With two
// version bits the cap is 2 (3 would make a mapped entry all-ones).
TEST(DeviceMap, NarrowVersionFieldOverflowsAtTheCap) {
  DeviceMap map(1u << 12, 20, 7, 3);
  ASSERT_EQ(map.version_cap(), 2u);
  const PhysicalAddress last{(1u << 20) - 1, 127, 7};
  map.set(0, last, 1);
  map.set(1, last, 2);
  map.set(2, last, 0xFFFFFFFFu);
  EXPECT_EQ(map.overflow_count(), 2u);
  EXPECT_EQ(map.version(0), 1u);
  EXPECT_EQ(map.version(1), 2u);
  EXPECT_EQ(map.version(2), 0xFFFFFFFFu);
  for (Lsn lsn = 0; lsn < 3; ++lsn) EXPECT_EQ(map.lookup(lsn), last);
  map.check_versions();

  // A supersede takes the old version and sets the next one.
  const DeviceMap::Mapping old = map.take(1);
  EXPECT_EQ(old.version, 2u);
  EXPECT_EQ(map.overflow_count(), 1u);
  map.set(1, PhysicalAddress{3, 4, 5}, old.version + 1);
  EXPECT_EQ(map.version(1), 3u);
  EXPECT_EQ(map.clear(2), 0xFFFFFFFFu);
  map.check_versions();

  // Many saturated LSNs grow the table; retiring every one empties it.
  for (Lsn lsn = 3; lsn < map.logical_subpages(); ++lsn) {
    map.set(lsn, PhysicalAddress{static_cast<BlockId>(lsn), 0, 0},
            static_cast<std::uint32_t>(lsn + 7));
  }
  EXPECT_EQ(map.overflow_count(), map.logical_subpages() - 2);
  map.check_versions();
  for (Lsn lsn = 3; lsn < map.logical_subpages(); lsn += 2) {
    EXPECT_EQ(map.clear(lsn), lsn + 7) << "lsn " << lsn;
  }
  map.check_versions();
  for (Lsn lsn = 4; lsn < map.logical_subpages(); lsn += 2) {
    EXPECT_EQ(map.version(lsn), lsn + 7) << "lsn " << lsn;
    EXPECT_EQ(map.take(lsn).version, lsn + 7) << "lsn " << lsn;
  }
  EXPECT_EQ(map.overflow_count(), 1u);  // LSN 1 at version 3
  map.check_versions();
}

// One version bit (the widest legal slot code): the cap is 0, so every
// mapped LSN keeps its version in the overflow table.
TEST(DeviceMap, OneVersionBitOverflowsEveryLsn) {
  DeviceMap map(16, 22, 7, 2);
  ASSERT_EQ(map.version_cap(), 0u);
  for (Lsn lsn = 0; lsn < 16; ++lsn) {
    map.set(lsn, PhysicalAddress{static_cast<BlockId>(lsn << 18), 127, 3},
            1);
  }
  EXPECT_EQ(map.overflow_count(), 16u);
  map.check_versions();
  io::StateSink sink;
  map.save(sink);
  DeviceMap back(16, 22, 7, 2);
  io::StateSource src(sink.buffer());
  back.restore(src, std::vector<std::uint32_t>(std::size_t{1} << 22, 128),
               kSpp);
  for (Lsn lsn = 0; lsn < 16; ++lsn) {
    EXPECT_EQ(back.version(lsn), 1u);
    EXPECT_EQ(back.lookup(lsn), map.lookup(lsn));
  }
}

TEST(DeviceMapDeathTest, CheckpointOfAnotherSizeAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  DeviceMap map = paper_map(8);
  io::StateSink sink;
  map.save(sink);
  DeviceMap other = paper_map(9);
  io::StateSource src(sink.buffer());
  EXPECT_DEATH(other.restore(src, kAllBlocks, kSpp), "mapping shape");
}

/// The map section of paper_map(4) with LSN 1 at `version` on slot
/// {2, 3, 1}, LSN 3 at version 1, and the overflow pairs replaced by
/// `pairs`.
std::vector<std::uint8_t> map_section(
    std::uint32_t version,
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  DeviceMap map = paper_map(4);
  map.set(1, PhysicalAddress{2, 3, 1}, version);
  map.set(3, PhysicalAddress{2, 3, 2}, 1);
  io::StateSink sink;
  map.save(sink);
  std::vector<std::uint8_t> bytes = sink.take();
  bytes.resize(8 + 4 * 4 + 8);  // drop the saved overflow table
  io::StateSink tail;
  tail.u64(pairs.size());
  for (const auto& [lsn, v] : pairs) {
    tail.u32(lsn);
    tail.u32(v);
  }
  bytes.insert(bytes.end(), tail.buffer().begin(), tail.buffer().end());
  return bytes;
}

// A corrupt map section is rejected up front, one message per fault.
TEST(DeviceMapDeathTest, CorruptCheckpointAbortsWithOneMessageEach) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto restore = [](const std::vector<std::uint8_t>& bytes,
                          std::span<const std::uint32_t> blocks = kAllBlocks,
                          std::uint32_t spp = kSpp) {
    DeviceMap back = paper_map(4);
    io::StateSource src(bytes);
    back.restore(src, blocks, spp);
    back.check_versions();
    return back.version(1);
  };
  // The unaltered sections restore.
  EXPECT_EQ(restore(map_section(7, {})), 7u);
  EXPECT_EQ(restore(map_section(300, {{1, 300}})), 300u);
  EXPECT_EQ(restore(map_section(126, {{1, 126}})), 126u);

  // LSNs 1 and 3 are on block 2, page 3, subpages 1 and 2.
  const std::vector<std::uint32_t> two_blocks = {128, 128};
  const std::vector<std::uint32_t> three_pages = {128, 128, 3};
  EXPECT_EQ(restore(map_section(7, {}), std::vector<std::uint32_t>{0, 0, 4},
                    3),
            7u);
  EXPECT_DEATH(restore(map_section(7, {}), two_blocks),
               "map code outside the array");
  EXPECT_DEATH(restore(map_section(7, {}), three_pages),
               "map code outside the array");
  EXPECT_DEATH(restore(map_section(7, {}), kAllBlocks, 2),
               "map code outside the array");
  std::vector<std::uint8_t> count = map_section(7, {});
  count[8 + 4 * 4] = 3;  // the stored mapped count: 2 entries are mapped
  EXPECT_DEATH(restore(count), "mapped count disagrees with the map entries");
  EXPECT_DEATH(restore(map_section(300, {{3, 126}, {1, 300}})),
               "overflow table is not sorted by LSN");
  EXPECT_DEATH(restore(map_section(300, {{1, 300}, {1, 300}})),
               "overflow table repeats an LSN");
  EXPECT_DEATH(restore(map_section(300, {{0, 300}, {1, 300}})),
               "overflow entry for an unmapped LSN");
  EXPECT_DEATH(restore(map_section(300, {{1, 300}, {9, 300}})),
               "overflow entry for an unmapped LSN");
  EXPECT_DEATH(restore(map_section(300, {{1, 125}})),
               "overflow entry below the version cap");
  EXPECT_DEATH(restore(map_section(300, {{1, 300}, {3, 300}})),
               "overflow entry for an unsaturated entry");
  EXPECT_DEATH(restore(map_section(300, {})),
               "saturated map entry has no overflow entry");
}

}  // namespace
}  // namespace ppssd::ftl
