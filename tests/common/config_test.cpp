#include "common/config.h"

#include <gtest/gtest.h>

namespace ppssd {
namespace {

TEST(SsdConfig, PaperDefaultsMatchTable2) {
  const SsdConfig cfg = SsdConfig::paper();
  EXPECT_EQ(cfg.geometry.total_blocks, 65536u);
  EXPECT_EQ(cfg.geometry.page_bytes, 16u * 1024u);
  EXPECT_EQ(cfg.geometry.pages_per_slc_block, 64u);
  EXPECT_EQ(cfg.geometry.pages_per_mlc_block, 128u);
  EXPECT_DOUBLE_EQ(cfg.cache.slc_ratio, 0.05);
  EXPECT_DOUBLE_EQ(cfg.cache.gc_threshold, 0.05);
  EXPECT_EQ(cfg.timing.slc_read, ms_to_ns(0.025));
  EXPECT_EQ(cfg.timing.mlc_read, ms_to_ns(0.05));
  EXPECT_EQ(cfg.timing.slc_write, ms_to_ns(0.3));
  EXPECT_EQ(cfg.timing.mlc_write, ms_to_ns(0.9));
  EXPECT_EQ(cfg.timing.erase, ms_to_ns(10.0));
  EXPECT_EQ(cfg.ecc.min_decode, ms_to_ns(0.0005));
  EXPECT_EQ(cfg.ecc.max_decode, ms_to_ns(0.0968));
  EXPECT_EQ(cfg.wear.initial_pe_cycles, 4000u);
  EXPECT_EQ(cfg.cache.max_partial_programs, 4u);
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
}

TEST(SsdConfig, ScaledKeepsBlocksPerPlane) {
  for (const std::uint32_t blocks : {2048u, 8192u, 16384u, 32768u}) {
    const SsdConfig cfg = SsdConfig::scaled(blocks);
    EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
    EXPECT_EQ(cfg.geometry.total_blocks, blocks);
    EXPECT_EQ(cfg.geometry.total_blocks / cfg.geometry.planes(), 512u)
        << "scaled() should preserve the paper's 512 blocks/plane";
  }
}

TEST(SsdConfig, SubpagesPerPage) {
  const SsdConfig cfg;
  EXPECT_EQ(cfg.geometry.subpages_per_page(), 4u);
}

TEST(SsdConfig, SlcBlockCount) {
  const SsdConfig cfg = SsdConfig::paper();
  EXPECT_EQ(cfg.slc_block_count(), 3276u);  // 5% of 65536
}

TEST(SsdConfig, ValidateCatchesBadGeometry) {
  SsdConfig cfg;
  cfg.geometry.total_blocks = 100;  // not a multiple of 128 planes
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SsdConfig, ValidateCatchesBadRatios) {
  SsdConfig cfg;
  cfg.cache.slc_ratio = 0.0;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SsdConfig{};
  cfg.cache.gc_threshold = 1.5;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SsdConfig{};
  cfg.cache.monitor_ratio = 0.6;
  cfg.cache.hot_ratio = 0.6;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SsdConfig, ValidateCatchesBadEcc) {
  SsdConfig cfg;
  cfg.ecc.min_decode = cfg.ecc.max_decode + 1;
  EXPECT_FALSE(cfg.validate().empty());

  cfg = SsdConfig{};
  cfg.ecc.t_per_codeword = 0;
  EXPECT_FALSE(cfg.validate().empty());
}

TEST(SsdConfig, ValidateCatchesBadPageSplit) {
  SsdConfig cfg;
  cfg.geometry.subpage_bytes = 3000;  // does not divide 16K
  EXPECT_FALSE(cfg.validate().empty());
}

// Geometries the device rows cannot index are rejected by validate(),
// before any row is sized.
TEST(SsdConfig, ValidateRejectsTooFewBlocks) {
  const SsdConfig cfg = SsdConfig::scaled(100);
  EXPECT_NE(cfg.validate().find("slc region too small"), std::string::npos)
      << cfg.validate();
}

TEST(SsdConfig, ValidateBoundsTheSlotCodeAndPageIndex) {
  const GeometryConfig paper;
  EXPECT_EQ(paper.slot_block_bits(), 16u);   // 65,536 blocks
  EXPECT_EQ(paper.slot_page_bits(), 7u);     // 128 MLC pages
  EXPECT_EQ(paper.slot_subpage_bits(), 2u);  // 4 subpages

  const SsdConfig huge = SsdConfig::scaled(3'000'000'000u);
  const std::string err = huge.validate();
  EXPECT_NE(err.find("no version bit in a 32-bit map entry"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("32-bit page index"), std::string::npos) << err;
}

// A device-map entry is 32 bits: the slot code (block, page and subpage
// bits) plus at least one bit of the LSN's version. At 128 pages and 4
// subpages that leaves 22 block bits. A 90% SLC share keeps the logical
// subpage count inside the slot record's owner field, so only the map
// entry is at its edge.
TEST(SsdConfig, ValidateBoundsTheMapEntryByOneVersionBit) {
  SsdConfig edge = SsdConfig::paper();
  edge.cache.slc_ratio = 0.9;
  edge.geometry.total_blocks = 1u << 22;
  EXPECT_EQ(edge.geometry.slot_block_bits(), 22u);
  EXPECT_TRUE(edge.validate().empty()) << edge.validate();
  edge.geometry.total_blocks += edge.geometry.planes();
  EXPECT_EQ(edge.geometry.slot_block_bits(), 23u);
  const std::string err = edge.validate();
  EXPECT_NE(err.find("needs a 32-bit slot code (23 block, 7 page, 2 subpage "
                     "bits), which leaves no version bit in a 32-bit map "
                     "entry"),
            std::string::npos)
      << err;
}

// A slot record keeps its owner LSN in kSlotOwnerBits (30) bits: at the
// paper's ratios that is about 2.2 M blocks.
TEST(SsdConfig, ValidateBoundsTheLogicalSubpagesByTheOwnerField) {
  SsdConfig cfg = SsdConfig::paper();
  cfg.geometry.total_blocks = 2'097'152;  // 2^21: 0.97 G logical subpages
  EXPECT_LE(cfg.geometry.logical_subpages(cfg.cache.slc_ratio),
            std::uint64_t{1} << kSlotOwnerBits);
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
  cfg.geometry.total_blocks = 2'359'296;  // 1.09 G logical subpages
  EXPECT_GT(cfg.geometry.logical_subpages(cfg.cache.slc_ratio),
            std::uint64_t{1} << kSlotOwnerBits);
  const std::string err = cfg.validate();
  EXPECT_NE(err.find("does not fit the 30-bit owner field"), std::string::npos)
      << err;
}

// More than kMaxSubpagesPerPage subpages per page is rejected with a
// message before any block is built.
TEST(SsdConfig, ValidateBoundsTheSubpagesPerPage) {
  SsdConfig cfg = SsdConfig::paper();
  cfg.geometry.page_bytes = 32 * kKiB;  // 8 subpages: the largest page
  EXPECT_TRUE(cfg.validate().empty()) << cfg.validate();
  cfg.geometry.page_bytes = 64 * kKiB;  // 16 subpages
  const std::string err = cfg.validate();
  EXPECT_NE(err.find("(16) exceeds 8 subpages per page"), std::string::npos)
      << err;
}

TEST(Units, Conversions) {
  EXPECT_EQ(ms_to_ns(1.0), 1'000'000u);
  EXPECT_EQ(ms_to_ns(0.0005), 500u);
  EXPECT_EQ(us_to_ns(2.5), 2500u);
  EXPECT_DOUBLE_EQ(ns_to_ms(1'500'000), 1.5);
  EXPECT_EQ(bytes_to_subpages(1), 1u);
  EXPECT_EQ(bytes_to_subpages(4096), 1u);
  EXPECT_EQ(bytes_to_subpages(4097), 2u);
  EXPECT_EQ(bytes_to_subpages(16384), 4u);
}

}  // namespace
}  // namespace ppssd
