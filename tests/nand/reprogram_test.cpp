// FlashArray::reprogram — the IPS in-place switch primitive. The
// destination state must be byte-identical to a conventional program of
// the same slot writes (twin-array equivalence), plus the sticky
// `reprogrammed` mark the BER model prices; the SLC-frontier-source
// precondition is an always-on check.
#include "nand/flash_array.h"

#include <gtest/gtest.h>

#include "common/config.h"
#include "common/rng.h"

namespace ppssd::nand {
namespace {

SsdConfig small_config() { return SsdConfig::scaled(1024); }

SlotWrite w(SubpageId slot, Lsn lsn) { return SlotWrite{slot, lsn}; }

struct TestPair {
  FlashArray a{small_config()};  // reprogram path
  FlashArray b{small_config()};  // conventional-program oracle
  BlockId slc = 0;
  BlockId mlc;

  TestPair() : mlc(a.geometry().slc_blocks_per_plane()) {}
};

TEST(Reprogram, DestinationStateMatchesConventionalProgram) {
  TestPair t;
  const SlotWrite src[] = {w(0, 10), w(1, 11), w(2, 12), w(3, 13)};
  t.a.program(t.slc, 0, src, 1000);
  t.b.program(t.slc, 0, src, 1000);

  const SlotWrite moved[] = {w(0, 10), w(2, 12)};  // two slots survived
  t.a.reprogram(t.slc, 0, t.mlc, 0, moved, 2000);
  t.b.program(t.mlc, 0, moved, 2000);

  const Page& pa = t.a.page(t.mlc, 0);
  const Page& pb = t.b.page(t.mlc, 0);
  EXPECT_EQ(pa.program_ops(), pb.program_ops());
  for (SubpageId s = 0; s < 4; ++s) {
    const Subpage sa = t.a.subpage(t.mlc, 0, s);
    const Subpage sb = t.b.subpage(t.mlc, 0, s);
    EXPECT_EQ(sa.state, sb.state) << s;
    EXPECT_EQ(sa.owner_lsn, sb.owner_lsn) << s;
  }
  EXPECT_EQ(t.a.block(t.mlc).valid_subpages(),
            t.b.block(t.mlc).valid_subpages());
  EXPECT_EQ(t.a.block(t.mlc).write_frontier(),
            t.b.block(t.mlc).write_frontier());

  // Only the reprogram path marks the destination and bumps the
  // reprogram counters; the shared program accounting matches.
  EXPECT_TRUE(pa.reprogrammed());
  EXPECT_FALSE(pb.reprogrammed());
  EXPECT_EQ(t.a.counters().reprogram_ops, 1u);
  EXPECT_EQ(t.a.counters().reprogrammed_subpages, 2u);
  EXPECT_EQ(t.b.counters().reprogram_ops, 0u);
  EXPECT_EQ(t.a.counters().mlc_program_ops, t.b.counters().mlc_program_ops);
  EXPECT_EQ(t.a.counters().mlc_subpages_written,
            t.b.counters().mlc_subpages_written);
}

TEST(Reprogram, RandomizedTwinArrayEquivalence) {
  TestPair t;
  Rng rng(99);
  const auto spp = t.a.geometry().subpages_per_page();
  PageId src_page = 0;
  PageId dst_page = 0;
  for (int round = 0; round < 32; ++round) {
    // Fresh SLC frontier page with a random subset of surviving slots.
    std::vector<SlotWrite> full;
    for (SubpageId s = 0; s < spp; ++s) {
      full.push_back(w(s, 100 + round * 8 + s));
    }
    const SimTime now = 1000 * (round + 1);
    t.a.program(t.slc, src_page, full, now);
    t.b.program(t.slc, src_page, full, now);
    std::vector<SlotWrite> moved;
    for (const SlotWrite& sw : full) {
      if (rng.chance(0.7)) moved.push_back(sw);
    }
    if (moved.empty()) moved.push_back(full[0]);
    t.a.reprogram(t.slc, src_page, t.mlc, dst_page, moved, now + 10);
    t.b.program(t.mlc, dst_page, moved, now + 10);

    const Page& pa = t.a.page(t.mlc, dst_page);
    const Page& pb = t.b.page(t.mlc, dst_page);
    ASSERT_EQ(pa.program_ops(), pb.program_ops());
    for (SubpageId s = 0; s < spp; ++s) {
      const Subpage sa = t.a.subpage(t.mlc, dst_page, s);
      const Subpage sb = t.b.subpage(t.mlc, dst_page, s);
      ASSERT_EQ(sa.state, sb.state);
      ASSERT_EQ(sa.owner_lsn, sb.owner_lsn);
    }
    ASSERT_TRUE(pa.reprogrammed());
    ++src_page;
    ++dst_page;
  }
  // Aggregates agree modulo the reprogram-only counters.
  ArrayCounters ca = t.a.counters();
  const ArrayCounters& cb = t.b.counters();
  EXPECT_EQ(ca.reprogram_ops, 32u);
  ca.reprogram_ops = 0;
  ca.reprogrammed_subpages = 0;
  EXPECT_EQ(ca.slc_program_ops, cb.slc_program_ops);
  EXPECT_EQ(ca.mlc_program_ops, cb.mlc_program_ops);
  EXPECT_EQ(ca.slc_subpages_written, cb.slc_subpages_written);
  EXPECT_EQ(ca.mlc_subpages_written, cb.mlc_subpages_written);
  EXPECT_EQ(ca.partial_program_ops, cb.partial_program_ops);
}

TEST(Reprogram, MarkClearsOnEraseAndFeedsDisturbSnapshot) {
  TestPair t;
  const SlotWrite src[] = {w(0, 1)};
  t.a.program(t.slc, 0, src, 0);
  t.a.reprogram(t.slc, 0, t.mlc, 0, src, 10);
  EXPECT_TRUE(t.a.disturb_of(t.mlc, 0, 0).reprogrammed);
  EXPECT_FALSE(t.a.disturb_of(t.slc, 0, 0).reprogrammed);

  t.a.invalidate(t.mlc, 0, 0);
  t.a.erase(t.mlc, 20);
  EXPECT_FALSE(t.a.page(t.mlc, 0).reprogrammed());
}

using ReprogramDeathTest = ::testing::Test;

TEST(ReprogramDeathTest, RejectsNonFrontierSource) {
  // A partially-programmed source page (two program ops) is not in SLC
  // frontier state — the physical premise of the switch is gone.
  EXPECT_DEATH(
      {
        TestPair t;
        const SlotWrite first[] = {w(0, 1)};
        const SlotWrite second[] = {w(1, 2)};
        t.a.program(t.slc, 0, first, 0);
        t.a.program(t.slc, 0, second, 5);  // partial program
        t.a.reprogram(t.slc, 0, t.mlc, 0, first, 10);
      },
      "frontier state");
}

TEST(ReprogramDeathTest, RejectsDenseSourceAndSlcDestination) {
  EXPECT_DEATH(
      {
        TestPair t;
        const SlotWrite ws[] = {w(0, 1)};
        t.a.program(t.mlc, 0, ws, 0);
        t.a.reprogram(t.mlc, 0, t.mlc, 1, ws, 10);
      },
      "source must be an SLC-mode page");
  EXPECT_DEATH(
      {
        TestPair t;
        const SlotWrite ws[] = {w(0, 1)};
        t.a.program(t.slc, 0, ws, 0);
        t.a.reprogram(t.slc, 0, t.slc, 1, ws, 10);
      },
      "destination must be a dense-mode page");
}

}  // namespace
}  // namespace ppssd::nand
