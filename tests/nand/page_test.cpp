// Per-subpage semantics, exercised through the FlashArray SoA rows (the
// per-subpage fields moved out of Page into flat per-field rows in the
// array; Page keeps only the per-page counters).
#include "nand/page.h"

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/units.h"
#include "nand/flash_array.h"

namespace ppssd::nand {
namespace {

SlotWrite w(SubpageId slot, Lsn lsn) { return SlotWrite{slot, lsn}; }

SsdConfig small_config() {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 4;
  return cfg;
}

struct ArrayFixture {
  FlashArray arr{small_config()};
  BlockId b = 0;  // SLC block, 4 subpages per page
};

TEST(Page, FreshPageState) {
  ArrayFixture f;
  EXPECT_FALSE(f.arr.page(f.b, 0).programmed());
  EXPECT_EQ(f.arr.page(f.b, 0).program_ops(), 0);
  EXPECT_EQ(f.arr.page_count_state(f.b, 0, SubpageState::kFree), 4u);
  EXPECT_EQ(f.arr.page_first_free(f.b, 0), 0);
}

TEST(Page, FirstProgramIsConventional) {
  ArrayFixture f;
  const SlotWrite writes[] = {w(0, 100), w(1, 101)};
  EXPECT_FALSE(f.arr.program(f.b, 0, writes, 0));  // not partial
  EXPECT_TRUE(f.arr.page(f.b, 0).programmed());
  EXPECT_EQ(f.arr.page(f.b, 0).program_ops(), 1);
  EXPECT_EQ(f.arr.page_count_state(f.b, 0, SubpageState::kValid), 2u);
  EXPECT_EQ(f.arr.page_first_free(f.b, 0), 2);
  EXPECT_EQ(f.arr.subpage(f.b, 0, 0).owner_lsn, 100u);
  EXPECT_EQ(f.arr.subpage(f.b, 0, 1).owner_lsn, 101u);
}

TEST(Page, SecondProgramIsPartial) {
  ArrayFixture f;
  const SlotWrite first[] = {w(0, 100)};
  const SlotWrite second[] = {w(1, 200)};
  EXPECT_FALSE(f.arr.program(f.b, 0, first, 0));
  EXPECT_TRUE(f.arr.program(f.b, 0, second, 10));
  EXPECT_EQ(f.arr.page(f.b, 0).program_ops(), 2);
}

TEST(Page, InPageDisturbOnlyHitsEarlierData) {
  ArrayFixture f;
  const SlotWrite a[] = {w(0, 1)};
  const SlotWrite b[] = {w(1, 2)};
  const SlotWrite c[] = {w(2, 3)};
  f.arr.program(f.b, 0, a, 0);
  f.arr.program(f.b, 0, b, 0);
  f.arr.program(f.b, 0, c, 0);
  // Subpage 0 saw two later partial programs, subpage 1 one, subpage 2 none.
  EXPECT_EQ(f.arr.in_page_disturbs(f.b, 0, 0), 2u);
  EXPECT_EQ(f.arr.in_page_disturbs(f.b, 0, 1), 1u);
  EXPECT_EQ(f.arr.in_page_disturbs(f.b, 0, 2), 0u);
}

TEST(Page, NeighborDisturbSnapshotting) {
  ArrayFixture f;
  const SlotWrite a[] = {w(0, 1)};
  f.arr.program(f.b, 0, a, 0);
  // Programming the adjacent page disturbs page 0's stored data.
  const SlotWrite n1[] = {w(0, 2)};
  f.arr.program(f.b, 1, n1, 0);
  EXPECT_EQ(f.arr.neighbor_disturbs(f.b, 0, 0), 1u);
  const SlotWrite n2[] = {w(1, 3)};
  f.arr.program(f.b, 1, n2, 0);
  EXPECT_EQ(f.arr.neighbor_disturbs(f.b, 0, 0), 2u);

  // A later-written subpage starts from the current count: the disturb it
  // absorbed before being written is not charged to it.
  const SlotWrite late[] = {w(1, 4)};
  f.arr.program(f.b, 0, late, 0);
  EXPECT_EQ(f.arr.neighbor_disturbs(f.b, 0, 1), 0u);
  EXPECT_EQ(f.arr.neighbor_disturbs(f.b, 0, 0), 2u);
}

TEST(Page, InvalidateTransitions) {
  ArrayFixture f;
  const SlotWrite a[] = {w(0, 1)};
  f.arr.program(f.b, 0, a, 0);
  f.arr.invalidate(f.b, 0, 0);
  EXPECT_EQ(f.arr.page_count_state(f.b, 0, SubpageState::kInvalid), 1u);
  EXPECT_EQ(f.arr.page_count_state(f.b, 0, SubpageState::kValid), 0u);
  // Invalidation does not free the slot.
  EXPECT_EQ(f.arr.page_first_free(f.b, 0), 1);
}

TEST(PageDeathTest, DoubleProgramSameSlotAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ArrayFixture f;
  const SlotWrite a[] = {w(0, 1)};
  f.arr.program(f.b, 0, a, 0);
  const SlotWrite again[] = {w(0, 2)};
  EXPECT_DEATH(f.arr.program(f.b, 0, again, 0), "write-once");
}

TEST(PageDeathTest, InvalidateFreeSlotAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ArrayFixture f;
  EXPECT_DEATH(f.arr.invalidate(f.b, 0, 0), "not valid");
}

TEST(Page, WriteTimestampAndOwnerStored) {
  ArrayFixture f;
  const SlotWrite a[] = {w(2, 77)};
  f.arr.program(f.b, 0, a, ms_to_ns(123.0));
  EXPECT_EQ(f.arr.subpage(f.b, 0, 2).owner_lsn, 77u);
  EXPECT_EQ(f.arr.subpage(f.b, 0, 2).write_time_ms, 123u);
}

TEST(Page, EraseClearsEverything) {
  ArrayFixture f;
  const SlotWrite a[] = {w(0, 1)};
  f.arr.program(f.b, 0, a, 0);
  const SlotWrite n1[] = {w(0, 2)};
  f.arr.program(f.b, 1, n1, 0);  // neighbor disturb onto page 0
  f.arr.invalidate(f.b, 0, 0);
  f.arr.invalidate(f.b, 1, 0);
  f.arr.erase(f.b, 0);
  EXPECT_FALSE(f.arr.page(f.b, 0).programmed());
  EXPECT_EQ(f.arr.page(f.b, 0).neighbor_programs(), 0);
  EXPECT_EQ(f.arr.page_count_state(f.b, 0, SubpageState::kFree), 4u);
  EXPECT_EQ(f.arr.subpage(f.b, 0, 0), Subpage{});
}

}  // namespace
}  // namespace ppssd::nand
