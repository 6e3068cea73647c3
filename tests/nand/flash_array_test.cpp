#include "nand/flash_array.h"

#include <gtest/gtest.h>

#include "common/config.h"

namespace ppssd::nand {
namespace {

SsdConfig small_config() { return SsdConfig::scaled(1024); }

SlotWrite w(SubpageId slot, Lsn lsn) { return SlotWrite{slot, lsn, 1}; }

TEST(FlashArray, ConstructionPartitionsModes) {
  FlashArray arr(small_config());
  const auto& g = arr.geometry();
  std::uint32_t slc = 0;
  for (BlockId b = 0; b < g.total_blocks(); ++b) {
    if (arr.block(b).mode() == CellMode::kSlc) {
      ++slc;
      EXPECT_TRUE(g.is_slc_block(b));
      EXPECT_EQ(arr.block(b).page_count(), 64u);
    } else {
      EXPECT_EQ(arr.block(b).page_count(), 128u);
    }
  }
  EXPECT_EQ(slc, g.slc_block_count());
}

TEST(FlashArray, ProgramCountsByRegion) {
  FlashArray arr(small_config());
  const auto& g = arr.geometry();
  const BlockId slc_block = 0;
  const BlockId mlc_block = g.slc_blocks_per_plane();  // first MLC in plane 0

  const SlotWrite ws[] = {w(0, 1), w(1, 2)};
  arr.program(slc_block, 0, ws, 0);
  EXPECT_EQ(arr.counters().slc_program_ops, 1u);
  EXPECT_EQ(arr.counters().slc_subpages_written, 2u);

  const SlotWrite ws2[] = {w(0, 8)};
  arr.program(mlc_block, 0, ws2, 0);
  EXPECT_EQ(arr.counters().mlc_program_ops, 1u);
  EXPECT_EQ(arr.counters().mlc_subpages_written, 1u);
  EXPECT_EQ(arr.counters().partial_program_ops, 0u);
}

TEST(FlashArray, PartialProgramLimitEnforced) {
  SsdConfig cfg = small_config();
  cfg.cache.max_partial_programs = 3;
  FlashArray arr(cfg);
  const SlotWrite s0[] = {w(0, 1)};
  const SlotWrite s1[] = {w(1, 2)};
  const SlotWrite s2[] = {w(2, 3)};
  arr.program(0, 0, s0, 0);
  EXPECT_TRUE(arr.can_partial_program(0, 0));
  arr.program(0, 0, s1, 0);
  arr.program(0, 0, s2, 0);
  // 3 program ops done; limit reached even though slot 3 is free.
  EXPECT_FALSE(arr.can_partial_program(0, 0));
  EXPECT_EQ(arr.counters().partial_program_ops, 2u);
}

TEST(FlashArray, CanPartialProgramNeedsFreeSlot) {
  FlashArray arr(small_config());
  const SlotWrite all[] = {w(0, 1), w(1, 2), w(2, 3), w(3, 4)};
  arr.program(0, 0, all, 0);
  EXPECT_FALSE(arr.can_partial_program(0, 0));  // no free slot
}

TEST(FlashArray, NeighborDisturbPropagation) {
  FlashArray arr(small_config());
  const SlotWrite a[] = {w(0, 1)};
  arr.program(0, 0, a, 0);  // page 0
  arr.program(0, 1, a, 0);  // page 1: disturbs page 0 (page 2 still free)
  arr.program(0, 2, a, 0);  // page 2: disturbs page 1 (page 3 still free)
  EXPECT_EQ(arr.page(0, 0).neighbor_programs(), 1u);
  EXPECT_EQ(arr.page(0, 1).neighbor_programs(), 1u);
  EXPECT_EQ(arr.page(0, 2).neighbor_programs(), 0u);
  // Unprogrammed page 3 absorbed nothing.
  EXPECT_EQ(arr.page(0, 3).neighbor_programs(), 0u);
  // A partial program on page 1 disturbs both programmed neighbours.
  const SlotWrite b[] = {w(1, 2)};
  arr.program(0, 1, b, 0);
  EXPECT_EQ(arr.page(0, 0).neighbor_programs(), 2u);
  EXPECT_EQ(arr.page(0, 2).neighbor_programs(), 1u);
}

TEST(FlashArray, DisturbSnapshotIncludesBasePe) {
  SsdConfig cfg = small_config();
  cfg.wear.initial_pe_cycles = 4000;
  FlashArray arr(cfg);
  const SlotWrite a[] = {w(0, 1)};
  arr.program(0, 0, a, 0);
  const auto snap = arr.disturb_of(0, 0, 0);
  EXPECT_EQ(snap.pe_cycles, 4000u);
  EXPECT_EQ(snap.mode, CellMode::kSlc);
  EXPECT_EQ(snap.in_page_disturbs, 0u);
}

TEST(FlashArrayDeathTest, EraseWithValidDataAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlashArray arr(small_config());
  const SlotWrite a[] = {w(0, 1)};
  arr.program(0, 0, a, 0);
  EXPECT_DEATH(arr.erase(0, 0), "valid data");
}

TEST(FlashArray, EraseCountsByRegion) {
  FlashArray arr(small_config());
  const auto& g = arr.geometry();
  const SlotWrite a[] = {w(0, 1)};
  arr.program(0, 0, a, 0);
  arr.invalidate(0, 0, 0);
  arr.erase(0, 0);
  EXPECT_EQ(arr.counters().slc_erases, 1u);
  EXPECT_EQ(arr.counters().mlc_erases, 0u);
  EXPECT_EQ(arr.total_erases(CellMode::kSlc), 1u);

  const BlockId mlc = g.slc_blocks_per_plane();
  arr.program(mlc, 0, a, 0);
  arr.invalidate(mlc, 0, 0);
  arr.erase(mlc, 0);
  EXPECT_EQ(arr.counters().mlc_erases, 1u);
}

TEST(FlashArrayDeathTest, ProgramPastPartialLimitAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SsdConfig cfg = small_config();
  cfg.cache.max_partial_programs = 1;
  FlashArray arr(cfg);
  const SlotWrite s0[] = {w(0, 1)};
  const SlotWrite s1[] = {w(1, 2)};
  arr.program(0, 0, s0, 0);
  EXPECT_DEATH(arr.program(0, 0, s1, 0), "partial-program limit");
}

// Only the SLC-mode cache is partial-programmed: an MLC page takes one
// program per erase, whatever the partial-program limit and free slots.
TEST(FlashArray, MlcPagesNeverTakeAPartialProgram) {
  FlashArray arr(small_config());
  const BlockId mlc = arr.geometry().slc_blocks_per_plane();
  ASSERT_EQ(arr.block(mlc).mode(), CellMode::kMlc);
  const SlotWrite s0[] = {w(0, 1)};
  arr.program(mlc, 0, s0, 0);
  EXPECT_EQ(arr.page_first_free(mlc, 0), 1u);
  EXPECT_FALSE(arr.can_partial_program(mlc, 0));
  // The same state on an SLC-mode page accepts a partial program.
  arr.program(0, 0, s0, 0);
  EXPECT_TRUE(arr.can_partial_program(0, 0));
  // After an erase the MLC page takes its one program again.
  arr.invalidate(mlc, 0, 0);
  arr.erase(mlc, 0);
  arr.program(mlc, 0, s0, 0);
  EXPECT_EQ(arr.page(mlc, 0).program_ops(), 1u);
}

TEST(FlashArrayDeathTest, SecondProgramOfAnMlcPageAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlashArray arr(small_config());
  const BlockId mlc = arr.geometry().slc_blocks_per_plane();
  const SlotWrite s0[] = {w(0, 1)};
  const SlotWrite s1[] = {w(1, 2)};
  arr.program(mlc, 0, s0, 0);
  EXPECT_DEATH(arr.program(mlc, 0, s1, 0), "second program of an MLC page");
}

}  // namespace
}  // namespace ppssd::nand
