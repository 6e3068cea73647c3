#include "nand/flash_array.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/config.h"
#include "common/state_io.h"
#include "support/checkpoint_rows.h"

namespace ppssd::nand {
namespace {

SsdConfig small_config() { return SsdConfig::scaled(1024); }

SlotWrite w(SubpageId slot, Lsn lsn) { return SlotWrite{slot, lsn}; }

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

// The slot row holds one 4-byte record per slot and the page row one
// 2-byte entry per page (DESIGN.md §10, "Rows sized to their readers").
static_assert(sizeof(SlotRecord) == 4);
static_assert(sizeof(Page) == 2);

// A slot's state shares a word with its owner: each state change must
// keep the owner, and erase must clear both. The owner is all-ones so a
// clobbered bit shows.
TEST(FlashArray, SlotRecordKeepsOwnerAcrossStates) {
  FlashArray arr(small_config());
  const Lsn owner = SlotRecord::kOwnerMask;
  const auto expect_slot = [&](SubpageState st, std::uint32_t lsn) {
    const Subpage sp = arr.subpage(0, 0, 1);
    EXPECT_EQ(sp.state, st);
    EXPECT_EQ(arr.subpage_state(0, 0, 1), st);
    EXPECT_EQ(sp.owner_lsn, lsn);
  };
  expect_slot(SubpageState::kFree, 0);

  const SlotWrite ws[] = {w(0, 7), SlotWrite{1, owner}};
  arr.program(0, 0, ws, 0);
  expect_slot(SubpageState::kValid, SlotRecord::kOwnerMask);
  EXPECT_EQ(arr.page_count_state(0, 0, SubpageState::kValid), 2u);
  EXPECT_EQ(arr.page_first_free(0, 0), 2u);

  arr.invalidate(0, 0, 1);
  expect_slot(SubpageState::kInvalid, SlotRecord::kOwnerMask);
  EXPECT_EQ(arr.page_count_state(0, 0, SubpageState::kInvalid), 1u);
  // The neighbouring slot's record is untouched.
  EXPECT_EQ(arr.subpage(0, 0, 0).owner_lsn, 7u);
  EXPECT_EQ(arr.subpage_state(0, 0, 0), SubpageState::kValid);

  arr.invalidate(0, 0, 0);
  arr.erase(0, 0);
  expect_slot(SubpageState::kFree, 0);
  EXPECT_EQ(arr.page_first_free(0, 0), 0u);
  const SlotWrite again[] = {w(0, 1), SlotWrite{1, 5}};
  arr.program(0, 0, again, 0);
  expect_slot(SubpageState::kValid, 5);
}

// Neighbour counts are bounded by the program counts of the two adjacent
// pages, each at most spp. Programming the middle page and both its
// neighbours spp times reaches 2 * spp - 1: the lower neighbour's first
// program precedes the middle page's (frontier order), so it is not
// absorbed. A checkpoint may carry the bound itself, 2 * spp.
TEST(FlashArray, NeighborCountReachesItsBound) {
  FlashArray arr(small_config());
  const std::uint32_t spp = arr.subpages_per_page();
  ASSERT_EQ(arr.config().cache.max_partial_programs, spp);
  const auto fill = [&](PageId p, SubpageId from, SubpageId to) {
    for (SubpageId s = from; s < to; ++s) {
      const SlotWrite one[] = {w(s, p * spp + s)};
      arr.program(0, p, one, 0);
    }
  };
  fill(0, 0, 1);
  fill(1, 0, 1);
  fill(0, 1, spp);  // spp - 1 lower-neighbour programs reach page 1
  fill(2, 0, spp);  // spp upper-neighbour programs reach page 1
  fill(1, 1, spp);
  for (PageId p = 0; p < 3; ++p) {
    EXPECT_EQ(arr.page(0, p).program_ops(), spp);
  }
  EXPECT_EQ(arr.page(0, 1).neighbor_programs(), 2 * spp - 1);
  EXPECT_EQ(arr.page(0, 0).neighbor_programs(), spp);
  EXPECT_EQ(arr.page(0, 2).neighbor_programs(), spp - 1);
  // Page 1's first slot saw every neighbour program; its last saw none.
  EXPECT_EQ(arr.neighbor_disturbs(0, 1, 0), 2 * spp - 1);
  EXPECT_EQ(arr.neighbor_disturbs(0, 1, spp - 1), 0u);

  io::StateSink sink;
  arr.save(sink);
  std::vector<std::uint8_t> bytes = sink.take();
  const ArrayRowOffsets rows = locate_array_rows(bytes);
  poke<std::uint8_t>(bytes, rows.page_neighbors(arr.page_index(0, 1)), 0,
                     static_cast<std::uint8_t>(2 * spp));
  FlashArray back(small_config());
  io::StateSource src(bytes);
  back.restore(src);
  EXPECT_TRUE(src.exhausted());
  EXPECT_EQ(back.page(0, 1).neighbor_programs(), 2 * spp);
  EXPECT_EQ(back.subpage(0, 1, spp - 1), arr.subpage(0, 1, spp - 1));
}

// A checkpoint written and read back reproduces every slot record, page
// entry and SLC-only snapshot, byte for byte on a second save.
TEST(FlashArray, CheckpointRoundTripsRecordsAndPages) {
  FlashArray arr(small_config());
  const BlockId mlc = arr.geometry().slc_blocks_per_plane();
  const SlotWrite a[] = {w(0, 1), w(1, 2)};
  const SlotWrite b[] = {w(2, 3)};
  arr.program(0, 0, a, 1'000'000);
  arr.program(0, 1, a, 2'000'000);
  arr.program(0, 0, b, 3'000'000);
  arr.invalidate(0, 0, 1);
  arr.program(mlc, 0, a, 4'000'000);
  io::StateSink sink;
  arr.save(sink);

  FlashArray back(small_config());
  io::StateSource src(sink.buffer());
  back.restore(src);
  EXPECT_TRUE(src.exhausted());
  for (const BlockId blk : {BlockId{0}, mlc}) {
    for (PageId p = 0; p < 2; ++p) {
      EXPECT_EQ(back.page(blk, p).program_ops(), arr.page(blk, p).program_ops());
      EXPECT_EQ(back.page(blk, p).neighbor_programs(),
                arr.page(blk, p).neighbor_programs());
      for (SubpageId s = 0; s < arr.subpages_per_page(); ++s) {
        EXPECT_EQ(back.subpage(blk, p, s), arr.subpage(blk, p, s));
      }
    }
  }
  io::StateSink again;
  back.save(again);
  EXPECT_EQ(again.buffer(), sink.buffer());
}

TEST(FlashArrayDeathTest, EmptyProgramAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlashArray arr(small_config());
  EXPECT_DEATH(arr.program(0, 0, std::span<const SlotWrite>(), 0),
               "at least one slot");
}

// SsdConfig::validate bounds the subpages per page with a message, which
// the array's constructor reports before any block is built.
TEST(FlashArrayDeathTest, TooManySubpagesPerPageAbortsWithTheMessage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SsdConfig cfg = small_config();
  cfg.geometry.page_bytes = 64 * kKiB;
  EXPECT_DEATH(FlashArray{cfg}, "exceeds 8 subpages per page");
}

}  // namespace
}  // namespace ppssd::nand
