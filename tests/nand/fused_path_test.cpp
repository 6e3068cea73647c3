// Fused vs reference write-path equivalence (DESIGN.md §10).
//
// FlashArray::program / ::invalidate are single-pass fused
// implementations. Their layer-by-layer oracles are ReferencePaths
// (tests/support/reference_paths.h, a friend of FlashArray); this file
// drives thousands of
// randomized program / invalidate / erase sequences through two arrays
// built from the same config — one using the fused entry points, one the
// oracles — asserting the complete observable state stays identical at
// every step: per-subpage fields (owner, write time, disturb
// snapshots), page counters, block running aggregates including the age
// histogram, array counters, and the BlockObserver event stream.
// prefill_block is additionally locked to frontier programs through the
// reference path at sim time 0.
#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/units.h"
#include "nand/flash_array.h"
#include "support/reference_paths.h"

namespace ppssd::nand {

namespace {

struct ObservedEvent {
  BlockId block;
  std::uint32_t invalid;
  bool operator==(const ObservedEvent&) const = default;
};

class RecordingObserver : public BlockObserver {
 public:
  void on_subpage_invalidated(BlockId b, std::uint32_t invalid) override {
    events.push_back({b, invalid});
  }
  std::vector<ObservedEvent> events;
};

void expect_same_state(const FlashArray& fused, const FlashArray& ref) {
  const auto& geom = fused.geometry();
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const Block& fb = fused.block(b);
    const Block& rb = ref.block(b);
    ASSERT_EQ(fb.write_frontier(), rb.write_frontier()) << "block " << b;
    ASSERT_EQ(fb.valid_subpages(), rb.valid_subpages()) << "block " << b;
    ASSERT_EQ(fb.invalid_subpages(), rb.invalid_subpages()) << "block " << b;
    ASSERT_EQ(fb.sum_write_time_ms(), rb.sum_write_time_ms())
        << "block " << b;
    // SLC-mode blocks keep an age histogram; MLC blocks keep none.
    const AgeHistogram* fh = fused.age_histogram(b);
    const AgeHistogram* rh = ref.age_histogram(b);
    ASSERT_EQ(fh != nullptr, fb.mode() == CellMode::kSlc) << "block " << b;
    ASSERT_EQ(rh != nullptr, rb.mode() == CellMode::kSlc) << "block " << b;
    if (fh != nullptr) {
      ASSERT_EQ(fh->total(), rh->total()) << "block " << b;
      ASSERT_TRUE(*fh == *rh) << "block " << b;
    }
    ASSERT_EQ(fb.erase_count(), rb.erase_count()) << "block " << b;
    ASSERT_EQ(fb.last_erase_time(), rb.last_erase_time()) << "block " << b;
    for (PageId p = 0; p < fb.page_count(); ++p) {
      const Page& fp = fused.page(b, p);
      const Page& rp = ref.page(b, p);
      ASSERT_EQ(fp.program_ops(), rp.program_ops())
          << "block " << b << " page " << p;
      ASSERT_EQ(fp.neighbor_programs(), rp.neighbor_programs())
          << "block " << b << " page " << p;
      for (SubpageId s = 0; s < fb.subpages_per_page(); ++s) {
        const Subpage fs = fused.subpage(b, p, s);
        const Subpage rs = ref.subpage(b, p, s);
        ASSERT_EQ(fs.state, rs.state)
            << "block " << b << " page " << p << " slot " << int(s);
        ASSERT_EQ(fs.owner_lsn, rs.owner_lsn);
        ASSERT_EQ(fs.write_time_ms, rs.write_time_ms);
        ASSERT_EQ(fs.programs_before, rs.programs_before);
        ASSERT_EQ(fs.neighbors_before, rs.neighbors_before);
        if (fs.state != SubpageState::kFree) {
          ASSERT_EQ(fused.disturb_of(b, p, s).in_page_disturbs,
                    ref.disturb_of(b, p, s).in_page_disturbs);
          ASSERT_EQ(fused.disturb_of(b, p, s).neighbor_disturbs,
                    ref.disturb_of(b, p, s).neighbor_disturbs);
        }
      }
    }
  }
  const ArrayCounters& fc = fused.counters();
  const ArrayCounters& rc = ref.counters();
  ASSERT_EQ(fc.slc_program_ops, rc.slc_program_ops);
  ASSERT_EQ(fc.mlc_program_ops, rc.mlc_program_ops);
  ASSERT_EQ(fc.partial_program_ops, rc.partial_program_ops);
  ASSERT_EQ(fc.slc_subpages_written, rc.slc_subpages_written);
  ASSERT_EQ(fc.mlc_subpages_written, rc.mlc_subpages_written);
  ASSERT_EQ(fc.slc_erases, rc.slc_erases);
  ASSERT_EQ(fc.mlc_erases, rc.mlc_erases);
  for (std::uint32_t p = 0; p < fused.geometry().planes(); ++p) {
    ASSERT_EQ(fused.plane(p).programs(), ref.plane(p).programs());
    ASSERT_EQ(fused.plane(p).erases(), ref.plane(p).erases());
  }
}

class FusedPathEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FusedPathEquivalence, RandomSequencesAgree) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 4;
  FlashArray fused(cfg);
  FlashArray ref(cfg);
  RecordingObserver fused_obs;
  RecordingObserver ref_obs;
  fused.set_block_observer(&fused_obs);
  ref.set_block_observer(&ref_obs);

  const auto& geom = fused.geometry();
  Rng rng(GetParam());
  Lsn next_lsn = 1;
  SimTime now = 0;

  // Valid slots available to invalidate, appended as programs land.
  struct Slot {
    BlockId b;
    PageId p;
    SubpageId s;
  };
  std::vector<Slot> valid_slots;

  for (int step = 0; step < 4000; ++step) {
    now += ms_to_ns(static_cast<double>(rng.next_below(5)));
    const auto op = rng.next_below(100);
    if (op < 70) {
      // Program: pick a block, then either its frontier page (first
      // program) or an already-programmed page (partial program).
      const BlockId b =
          static_cast<BlockId>(rng.next_below(geom.total_blocks()));
      const Block& blk = fused.block(b);
      PageId p = kInvalidPage;
      if (blk.has_free_page() && rng.chance(0.6)) {
        p = static_cast<PageId>(blk.write_frontier());
      } else if (blk.write_frontier() > 0) {
        p = static_cast<PageId>(rng.next_below(blk.write_frontier()));
        if (!fused.can_partial_program(b, p)) p = kInvalidPage;
      }
      if (p == kInvalidPage) continue;
      // Fill 1..free_slots random free slots.
      std::vector<SlotWrite> writes;
      for (SubpageId s = 0; s < blk.subpages_per_page(); ++s) {
        if (fused.subpage_state(b, p, s) == SubpageState::kFree &&
            (writes.empty() || rng.chance(0.4))) {
          writes.push_back({s, next_lsn});
          ++next_lsn;
        }
      }
      if (writes.empty()) continue;
      const bool fused_partial = fused.program(b, p, writes, now);
      const bool ref_partial = ReferencePaths::program(ref, b, p, writes, now);
      ASSERT_EQ(fused_partial, ref_partial);
      for (const SlotWrite& w : writes) valid_slots.push_back({b, p, w.slot});
    } else if (op < 95) {
      if (valid_slots.empty()) continue;
      const auto i = rng.next_below(valid_slots.size());
      const Slot slot = valid_slots[i];
      valid_slots[i] = valid_slots.back();
      valid_slots.pop_back();
      fused.invalidate(slot.b, slot.p, slot.s);
      ReferencePaths::invalidate(ref, slot.b, slot.p, slot.s);
    } else {
      // Erase a block with no remaining valid data.
      const BlockId b =
          static_cast<BlockId>(rng.next_below(geom.total_blocks()));
      if (fused.block(b).valid_subpages() != 0 ||
          fused.block(b).programmed_subpages() == 0) {
        continue;
      }
      fused.erase(b, now);
      ref.erase(b, now);
    }
    if (step % 256 == 0) {
      expect_same_state(fused, ref);
      ASSERT_EQ(fused_obs.events, ref_obs.events);
    }
  }
  expect_same_state(fused, ref);
  ASSERT_EQ(fused_obs.events, ref_obs.events);
  ASSERT_FALSE(fused_obs.events.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FusedPathEquivalence,
                         ::testing::Values(1u, 2u, 3u, 29u, 1234567u));

// prefill_block must equal one frontier program per page through the
// reference chain at sim time 0 — it is the Scheme setup fast path.
TEST(FusedPathEquivalence, PrefillMatchesReferenceFrontierFill) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  FlashArray fused(cfg);
  FlashArray ref(cfg);
  const auto& geom = fused.geometry();
  const std::uint32_t spp = geom.subpages_per_page();
  const BlockId mlc0 = geom.slc_blocks_per_plane();  // first MLC, plane 0
  struct Case {
    BlockId block;
    std::uint32_t pages;
    Lsn first_lsn;
    std::uint64_t stride;
    std::uint32_t last_slots;
  };
  const std::uint32_t slc_pages = geom.pages_per_block(CellMode::kSlc);
  const std::uint32_t mlc_pages = geom.pages_per_block(CellMode::kMlc);
  // Whole and partial blocks, strided like prefill_mlc's round-robin
  // layout, with full and short final pages.
  const Case cases[] = {
      {0, slc_pages, 0, spp, 1},
      {1, 1, 7, spp, spp},
      {mlc0, mlc_pages, 3 * spp, 16 * spp, spp},
      {mlc0 + 1, mlc_pages / 3, 5, 128 * spp, spp - 1},
      {mlc0 + 2, 1, 11, spp, 2},
  };
  std::vector<SlotWrite> writes;
  for (const Case& c : cases) {
    fused.prefill_block(c.block, c.pages, c.first_lsn, c.stride, c.last_slots);
    for (PageId p = 0; p < c.pages; ++p) {
      writes.clear();
      const std::uint32_t n = p + 1u == c.pages ? c.last_slots : spp;
      for (std::uint32_t s = 0; s < n; ++s) {
        writes.push_back(
            {static_cast<SubpageId>(s), c.first_lsn + p * c.stride + s});
      }
      ReferencePaths::program(ref, c.block, p, writes, /*now=*/0);
    }
  }
  expect_same_state(fused, ref);
}

TEST(FusedPathDeathTest, PrefillBlockRejectsProgrammedBlock) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  FlashArray arr(cfg);
  const BlockId mlc0 = arr.geometry().slc_blocks_per_plane();
  arr.prefill_block(mlc0, 2, 0, 4, 4);
  EXPECT_DEATH(arr.prefill_block(mlc0, 2, 8, 4, 4),
               "bulk prefill of a programmed block");
}

// The bulk fill checks the write-once rule once per block, over every
// slot it takes: a taken slot anywhere in the fill aborts with program()'s
// message, and one past the fill's last slot is left alone.
TEST(FusedPathDeathTest, PrefillBlockRejectsATakenSlot) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  const BlockId mlc0 = FlashArray(cfg).geometry().slc_blocks_per_plane();
  for (const PageId p : {PageId{0}, PageId{2}}) {
    FlashArray arr(cfg);
    ReferencePaths::plant_valid_slot(arr, mlc0, p, 2, 99);
    EXPECT_DEATH(arr.prefill_block(mlc0, 3, 0, 4, 3),
                 "programming a non-free subpage \\(NAND write-once rule\\)")
        << "page " << p;
  }
  FlashArray arr(cfg);
  ReferencePaths::plant_valid_slot(arr, mlc0, 2, 3, 99);
  arr.prefill_block(mlc0, 3, 0, 4, 3);  // takes slots 0..2 of page 2
  EXPECT_EQ(arr.block(mlc0).valid_subpages(), 11u);
}

}  // namespace
}  // namespace ppssd::nand
