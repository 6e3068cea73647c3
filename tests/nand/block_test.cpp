// Block-level invariants (frontier rule, running aggregates, erase
// lifecycle) driven through the FlashArray — program/invalidate live on
// the array since the SoA refactor — plus the AgeHistogram unit tests and
// the array's SLC-only histogram row.
#include "nand/block.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/state_io.h"
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

TEST(Block, Construction) {
  Block slc(CellMode::kSlc, 64, 4);
  EXPECT_EQ(slc.mode(), CellMode::kSlc);
  EXPECT_EQ(slc.page_count(), 64u);
  EXPECT_EQ(slc.total_subpages(), 256u);
  EXPECT_EQ(slc.level(), BlockLevel::kWork);

  Block mlc(CellMode::kMlc, 128, 4);
  EXPECT_EQ(mlc.level(), BlockLevel::kHighDensity);
}

TEST(Block, SequentialFrontierAdvances) {
  FlashArray arr(small_config());
  EXPECT_EQ(arr.block(0).write_frontier(), 0u);
  const SlotWrite ws[] = {w(0, 1)};
  arr.program(0, 0, ws, 0);
  EXPECT_EQ(arr.block(0).write_frontier(), 1u);
  const SlotWrite ws2[] = {w(0, 2)};
  arr.program(0, 1, ws2, 0);
  EXPECT_EQ(arr.block(0).write_frontier(), 2u);
  EXPECT_TRUE(arr.block(0).has_free_page());
}

TEST(BlockDeathTest, OutOfOrderFirstProgramAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  FlashArray arr(small_config());
  const SlotWrite ws[] = {w(0, 1)};
  EXPECT_DEATH(arr.program(0, 2, ws, 0), "out-of-order");
}

TEST(Block, PartialProgramDoesNotAdvanceFrontier) {
  FlashArray arr(small_config());
  const SlotWrite first[] = {w(0, 1)};
  arr.program(0, 0, first, 0);
  const SlotWrite second[] = {w(1, 2)};
  EXPECT_TRUE(arr.program(0, 0, second, 0));  // partial
  EXPECT_EQ(arr.block(0).write_frontier(), 1u);
}

TEST(Block, ValidInvalidCounters) {
  FlashArray arr(small_config());
  const SlotWrite ws[] = {w(0, 1), w(1, 2), w(2, 3)};
  arr.program(0, 0, ws, 0);
  EXPECT_EQ(arr.block(0).valid_subpages(), 3u);
  EXPECT_EQ(arr.block(0).invalid_subpages(), 0u);
  arr.invalidate(0, 0, 1);
  EXPECT_EQ(arr.block(0).valid_subpages(), 2u);
  EXPECT_EQ(arr.block(0).invalid_subpages(), 1u);
  EXPECT_EQ(arr.block(0).programmed_subpages(), 3u);
}

TEST(Block, EraseResetsAndCounts) {
  FlashArray arr(small_config());
  const SlotWrite ws[] = {w(0, 1)};
  arr.program(0, 0, ws, 0);
  arr.invalidate(0, 0, 0);
  EXPECT_EQ(arr.block(0).erase_count(), 0u);
  arr.erase(0, ms_to_ns(5.0));
  EXPECT_EQ(arr.block(0).erase_count(), 1u);
  EXPECT_EQ(arr.block(0).write_frontier(), 0u);
  EXPECT_EQ(arr.block(0).valid_subpages(), 0u);
  EXPECT_EQ(arr.block(0).invalid_subpages(), 0u);
  EXPECT_EQ(arr.block(0).last_erase_time(), ms_to_ns(5.0));
  // Page 0 is programmable again.
  arr.program(0, 0, ws, ms_to_ns(5.0));
  EXPECT_EQ(arr.block(0).valid_subpages(), 1u);
}

TEST(Block, LevelLabelRoundTrip) {
  Block b(CellMode::kSlc, 4, 4);
  b.set_level(BlockLevel::kHot);
  EXPECT_EQ(b.level(), BlockLevel::kHot);
}

TEST(Block, FullBlockHasNoFreePage) {
  FlashArray arr(small_config());
  const std::uint32_t pages = arr.block(0).page_count();
  for (PageId p = 0; p < pages; ++p) {
    const SlotWrite ws[] = {w(0, p + 1)};
    arr.program(0, p, ws, 0);
  }
  EXPECT_FALSE(arr.block(0).has_free_page());
}

TEST(AgeHistogram, AddRemoveFold) {
  AgeHistogram h;
  h.add(10, 2);
  h.add(1000);
  EXPECT_EQ(h.total(), 3u);
  // Identity fold recovers the exact count; mean-write-time fold recovers
  // the exact sum because each bucket keeps its true sum.
  EXPECT_DOUBLE_EQ(h.fold([](double) { return 1.0; }), 3.0);
  EXPECT_DOUBLE_EQ(h.fold([](double m) { return m; }), 10.0 + 10.0 + 1000.0);
  h.remove(10);
  h.remove(1000);
  EXPECT_EQ(h.total(), 1u);
  EXPECT_DOUBLE_EQ(h.fold([](double m) { return m; }), 10.0);
}

TEST(AgeHistogram, RebasedBucketsAreBaseRelative) {
  AgeHistogram h;
  h.clear(/*base_ms=*/1'000'000);
  // Same offsets from different bases land in the same buckets.
  AgeHistogram h0;
  EXPECT_EQ(h.bucket_of(1'000'000 + 37), h0.bucket_of(37));
  EXPECT_EQ(h.bucket_of(1'000'000), h0.bucket_of(0));
}

TEST(AgeHistogram, SubBucketsSeparateSameOctave) {
  // Offsets sharing a bit-width but differing in the next two significant
  // bits must not share a bucket (the width/8 error bound depends on it).
  AgeHistogram h;
  EXPECT_NE(h.bucket_of(0b100000), h.bucket_of(0b111000));
  EXPECT_NE(h.bucket_of(0b100000), h.bucket_of(0b101000));
}

TEST(AgeHistogramRow, OnlySlcBlocksHaveOne) {
  const FlashArray arr(small_config());
  const Geometry& geom = arr.geometry();
  std::uint32_t with_hist = 0;
  const AgeHistogram* prev = nullptr;
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const AgeHistogram* h = arr.age_histogram(b);
    ASSERT_EQ(h != nullptr, arr.block(b).mode() == CellMode::kSlc) << b;
    if (h == nullptr) continue;
    // Each SLC block owns its own histogram.
    EXPECT_NE(h, prev) << b;
    EXPECT_EQ(h->total(), 0u) << b;
    prev = h;
    ++with_hist;
  }
  EXPECT_EQ(with_hist, geom.slc_block_count());
}

/// Every SLC block's histogram equals a from-scratch recount of its
/// never-updated valid subpages, rebased on its last erase; no MLC block
/// has one.
void expect_histograms_match_recount(const FlashArray& arr) {
  for (BlockId b = 0; b < arr.geometry().total_blocks(); ++b) {
    const Block& blk = arr.block(b);
    const AgeHistogram* hist = arr.age_histogram(b);
    if (blk.mode() == CellMode::kMlc) {
      ASSERT_EQ(hist, nullptr) << "MLC block " << b;
      continue;
    }
    ASSERT_NE(hist, nullptr) << "SLC block " << b;
    AgeHistogram recount;
    recount.clear(static_cast<std::uint32_t>(blk.last_erase_time() /
                                             1'000'000));
    for (PageId p = 0; p < blk.write_frontier(); ++p) {
      if (arr.page(b, p).program_ops() != 1) continue;
      for (SubpageId s = 0; s < arr.subpages_per_page(); ++s) {
        const Subpage sp = arr.subpage(b, p, s);
        if (sp.state == SubpageState::kValid) recount.add(sp.write_time_ms);
      }
    }
    ASSERT_TRUE(recount == *hist) << "SLC block " << b;
  }
}

TEST(AgeHistogramRow, RandomWalkMatchesRecountAcrossRestore) {
  const SsdConfig cfg = small_config();
  FlashArray arr(cfg);
  const Geometry& geom = arr.geometry();
  const std::uint32_t spp = arr.subpages_per_page();

  // Four SLC and four MLC blocks, spread over planes.
  std::vector<BlockId> walked;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const std::uint32_t plane = (i * 5) % geom.planes();
    walked.push_back(geom.plane_first_block(plane) + i);
    walked.push_back(geom.plane_first_block(plane) +
                     geom.slc_blocks_per_plane() + i);
  }
  for (std::uint32_t i = 0; i < walked.size(); ++i) {
    ASSERT_LT(walked[i], geom.total_blocks());
    ASSERT_EQ(arr.block(walked[i]).mode(),
              i % 2 == 0 ? CellMode::kSlc : CellMode::kMlc);
  }

  Rng rng(77);
  Lsn next_lsn = 0;
  std::uint64_t erases = 0;
  std::uint64_t partials = 0;
  std::uint64_t invalidates = 0;
  for (int step = 0; step < 6000; ++step) {
    const BlockId b = walked[rng.next_below(walked.size())];
    const Block& blk = arr.block(b);
    // Sim time moves in uneven strides so writes span many buckets.
    const SimTime now = ms_to_ns(static_cast<double>(step) * 37.0);
    const double roll = rng.next_double();
    if (roll < 0.01) {
      // Erase: retire the block's valid data first, as GC would.
      for (PageId p = 0; p < blk.write_frontier(); ++p) {
        for (SubpageId s = 0; s < spp; ++s) {
          if (arr.subpage_state(b, p, s) == SubpageState::kValid) {
            arr.invalidate(b, p, s);
          }
        }
      }
      arr.erase(b, now);
      ++erases;
    } else if (roll < 0.35) {
      // Invalidate one random valid subpage below the frontier.
      if (blk.write_frontier() == 0) continue;
      const auto p = static_cast<PageId>(rng.next_below(blk.write_frontier()));
      const auto s = static_cast<SubpageId>(rng.next_below(spp));
      if (arr.subpage_state(b, p, s) != SubpageState::kValid) continue;
      arr.invalidate(b, p, s);
      ++invalidates;
    } else {
      PageId p = 0;
      if (roll < 0.7 && blk.has_free_page()) {
        p = static_cast<PageId>(blk.write_frontier());  // first program
      } else if (blk.write_frontier() > 0) {
        p = static_cast<PageId>(rng.next_below(blk.write_frontier()));
        if (!arr.can_partial_program(b, p)) continue;
        ++partials;
      } else {
        continue;
      }
      const SubpageId first = arr.page_first_free(b, p);
      const auto n =
          static_cast<std::uint32_t>(1 + rng.next_below(spp - first));
      std::array<SlotWrite, kMaxSubpagesPerPage> writes;
      for (std::uint32_t k = 0; k < n; ++k) {
        writes[k] = SlotWrite{static_cast<SubpageId>(first + k), next_lsn++};
      }
      arr.program(b, p, std::span<const SlotWrite>(writes.data(), n), now);
    }
    if (step % 1500 == 0) expect_histograms_match_recount(arr);
  }
  EXPECT_GT(erases, 0u);
  EXPECT_GT(partials, 0u);
  EXPECT_GT(invalidates, 0u);
  expect_histograms_match_recount(arr);

  io::StateSink sink;
  arr.save(sink);
  FlashArray restored(cfg);
  io::StateSource src(sink.buffer());
  restored.restore(src);
  EXPECT_TRUE(src.exhausted());
  expect_histograms_match_recount(restored);
  for (const BlockId b : walked) {
    if (arr.age_histogram(b) != nullptr) {
      EXPECT_TRUE(*arr.age_histogram(b) == *restored.age_histogram(b)) << b;
    }
  }
}

class BlockAggregates : public ::testing::TestWithParam<CellMode> {};

// The SLC lifecycle takes a partial program; the MLC one cannot (one
// program per erase) and keeps no write times, so its sum stays 0.
TEST_P(BlockAggregates, MaintainedAcrossLifecycle) {
  FlashArray arr(small_config());
  const bool slc = GetParam() == CellMode::kSlc;
  const BlockId b = slc ? BlockId{0} : arr.geometry().slc_blocks_per_plane();
  ASSERT_EQ(arr.block(b).mode(), GetParam());
  const Block& blk = arr.block(b);
  const auto expect_sum = [&](std::uint64_t slc_sum) {
    EXPECT_EQ(blk.sum_write_time_ms(), slc ? slc_sum : 0u);
  };
  // The cold population (valid subpages of never-updated pages) lives in
  // the SLC block's age histogram; an MLC block has no histogram at all.
  const auto expect_cold = [&](std::uint32_t n) {
    const AgeHistogram* hist = arr.age_histogram(b);
    if (!slc) {
      EXPECT_EQ(hist, nullptr);
      return;
    }
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->total(), n);
  };

  // First program: both subpages enter the sum and the cold histogram.
  const SlotWrite first[] = {w(0, 1), w(1, 2)};
  arr.program(b, 0, first, ms_to_ns(2.0));
  expect_sum(4);  // 2 * 2 ms
  expect_cold(2);

  // Partial program (SLC only): the page becomes "updated", so its valid
  // subpages leave the cold population but stay in the age sum.
  EXPECT_EQ(arr.can_partial_program(b, 0), slc);
  std::uint64_t page0 = 4;
  if (slc) {
    const SlotWrite upd[] = {w(2, 3)};
    arr.program(b, 0, upd, ms_to_ns(7.0));
    page0 += 7;  // 2 + 2 + 7
    expect_sum(page0);
    expect_cold(0);
  }
  const std::uint32_t page0_cold = slc ? 0 : 2;

  // A fresh page keeps its own subpages cold.
  const SlotWrite second[] = {w(0, 4), w(1, 5), w(2, 6), w(3, 7)};
  arr.program(b, 1, second, ms_to_ns(9.0));
  expect_sum(page0 + 4 * 9);
  expect_cold(page0_cold + 4);

  // Invalidation drops the subpage from the sum; only never-updated pages
  // also shed a histogram entry.
  arr.invalidate(b, 0, 0);  // SLC: updated page, histogram untouched
  expect_sum(page0 - 2 + 4 * 9);
  expect_cold(page0_cold + 4 - (slc ? 0 : 1));
  arr.invalidate(b, 1, 3);  // never-updated page
  expect_sum(page0 - 2 + 3 * 9);

  // Erase zeroes everything and rebases the histogram on the erase time.
  for (PageId p = 0; p < 2; ++p) {
    for (SubpageId s = 0; s < 4; ++s) {
      if (arr.subpage_state(b, p, s) == SubpageState::kValid) {
        arr.invalidate(b, p, s);
      }
    }
  }
  EXPECT_EQ(blk.valid_subpages(), 0u);
  arr.erase(b, ms_to_ns(50.0));
  expect_sum(0);
  expect_cold(0);
  if (slc) {
    EXPECT_EQ(arr.age_histogram(b)->base_ms(), 50u);
  }

  // Reprogram after erase: aggregates restart from the new base.
  const SlotWrite again[] = {w(0, 8)};
  arr.program(b, 0, again, ms_to_ns(60.0));
  expect_sum(60);
  expect_cold(1);
  EXPECT_EQ(arr.subpage(b, 0, 0).write_time_ms, slc ? 60u : 0u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, BlockAggregates,
                         ::testing::Values(CellMode::kSlc, CellMode::kMlc));

}  // namespace
}  // namespace ppssd::nand
