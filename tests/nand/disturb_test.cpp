// DisturbSnapshot assembly (FlashArray::disturb_of): in-page and
// neighbour disturb counts relative to each subpage's write, and P/E
// cycles from configured initial wear plus block erases; and a random
// program / partial-program / erase walk checked against a shadow
// recount, before and after a checkpoint round trip.
#include "nand/disturb.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "common/state_io.h"
#include "nand/flash_array.h"

namespace ppssd::nand {
namespace {

SlotWrite w(SubpageId slot, Lsn lsn) { return SlotWrite{slot, lsn}; }

SsdConfig worn_config(std::uint64_t initial_pe) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 4;
  cfg.wear.initial_pe_cycles = initial_pe;
  return cfg;
}

TEST(Disturb, SnapshotTracksPartialPrograms) {
  FlashArray arr(worn_config(4000));
  const SlotWrite first[] = {w(0, 10)};
  const SlotWrite second[] = {w(1, 11)};
  const SlotWrite third[] = {w(2, 12)};
  arr.program(0, 0, first, 0);
  arr.program(0, 0, second, 0);
  arr.program(0, 0, third, 0);

  EXPECT_EQ(arr.disturb_of(0, 0, 0).in_page_disturbs, 2u);
  EXPECT_EQ(arr.disturb_of(0, 0, 2).in_page_disturbs, 0u);
}

TEST(Disturb, PeIncludesBlockErases) {
  FlashArray arr(worn_config(1000));
  const BlockId mlc = arr.geometry().slc_blocks_per_plane();
  ASSERT_EQ(arr.block(mlc).mode(), CellMode::kMlc);
  const SlotWrite a[] = {w(0, 1)};
  arr.program(mlc, 0, a, 0);
  arr.invalidate(mlc, 0, 0);
  arr.erase(mlc, 0);
  arr.program(mlc, 0, a, 0);
  const auto snap = arr.disturb_of(mlc, 0, 0);
  EXPECT_EQ(snap.pe_cycles, 1001u);
  EXPECT_EQ(snap.mode, CellMode::kMlc);
}

TEST(Disturb, NeighborCountsRelativeToWrite) {
  FlashArray arr(worn_config(0));
  const SlotWrite a[] = {w(0, 1)};
  arr.program(0, 0, a, 0);
  // Two programs of the adjacent wordline disturb page 0's stored data.
  const SlotWrite n1[] = {w(0, 2)};
  const SlotWrite n2[] = {w(1, 3)};
  arr.program(0, 1, n1, 0);
  arr.program(0, 1, n2, 0);
  EXPECT_EQ(arr.disturb_of(0, 0, 0).neighbor_disturbs, 2u);
}

/// Event-counting model of the disturb counters for a few blocks.
struct ShadowSlot {
  bool written = false;
  std::uint32_t programs_before = 0;
  std::uint32_t neighbors_before = 0;
};
struct ShadowPage {
  std::uint32_t programs = 0;
  std::uint32_t neighbors = 0;
  std::array<ShadowSlot, kMaxSubpagesPerPage> slots{};
};
struct ShadowBlock {
  BlockId id = 0;
  std::uint32_t erases = 0;
  std::uint32_t frontier = 0;
  std::vector<ShadowPage> pages;
};

void expect_snapshots_match(const FlashArray& arr,
                            const std::vector<ShadowBlock>& shadow,
                            std::uint32_t initial_pe) {
  const std::uint32_t spp = arr.subpages_per_page();
  for (const ShadowBlock& sb : shadow) {
    for (PageId p = 0; p < sb.pages.size(); ++p) {
      const ShadowPage& sp = sb.pages[p];
      for (SubpageId s = 0; s < spp; ++s) {
        const ShadowSlot& slot = sp.slots[s];
        if (!slot.written) continue;
        const DisturbSnapshot snap = arr.disturb_of(sb.id, p, s);
        ASSERT_EQ(snap.mode, arr.block(sb.id).mode());
        ASSERT_EQ(snap.pe_cycles, initial_pe + sb.erases)
            << "block " << sb.id;
        ASSERT_EQ(snap.in_page_disturbs,
                  sp.programs - slot.programs_before - 1)
            << "block " << sb.id << " page " << p << " slot " << int{s};
        ASSERT_EQ(snap.neighbor_disturbs, sp.neighbors - slot.neighbors_before)
            << "block " << sb.id << " page " << p << " slot " << int{s};
        ASSERT_FALSE(snap.reprogrammed);
      }
    }
  }
}

TEST(Disturb, RandomWalkMatchesShadowRecountAcrossRestore) {
  constexpr std::uint32_t kInitialPe = 3000;
  const SsdConfig cfg = worn_config(kInitialPe);
  FlashArray arr(cfg);
  const std::uint32_t spp = arr.subpages_per_page();
  const std::uint32_t max_programs = cfg.cache.max_partial_programs;

  // Three SLC and three MLC blocks, so both page-row strides are covered.
  std::vector<ShadowBlock> shadow;
  for (std::uint32_t i = 0; i < 3; ++i) {
    shadow.push_back({arr.geometry().slc_block_at(i), 0, 0, {}});
    shadow.push_back(
        {arr.geometry().slc_blocks_per_plane() + 2 * i, 0, 0, {}});
  }
  for (ShadowBlock& sb : shadow) {
    sb.pages.resize(arr.block(sb.id).page_count());
  }
  ASSERT_EQ(arr.block(shadow[1].id).mode(), CellMode::kMlc);
  ASSERT_EQ(arr.block(shadow[5].id).mode(), CellMode::kMlc);

  Rng rng(2024);
  Lsn next_lsn = 0;
  for (int step = 0; step < 4000; ++step) {
    ShadowBlock& sb = shadow[rng.next_below(shadow.size())];
    const double roll = rng.next_double();
    if (roll < 0.02) {
      // Erase: retire the block's valid data first, as GC would.
      for (PageId p = 0; p < sb.frontier; ++p) {
        for (SubpageId s = 0; s < spp; ++s) {
          if (arr.subpage_state(sb.id, p, s) == SubpageState::kValid) {
            arr.invalidate(sb.id, p, s);
          }
        }
      }
      arr.erase(sb.id, static_cast<SimTime>(step));
      ++sb.erases;
      sb.frontier = 0;
      for (ShadowPage& sp : sb.pages) sp = ShadowPage{};
      continue;
    }
    PageId p = 0;
    if (roll < 0.5 && sb.frontier < sb.pages.size()) {
      p = static_cast<PageId>(sb.frontier++);  // first program
    } else if (sb.frontier > 0) {
      p = static_cast<PageId>(rng.next_below(sb.frontier));  // partial
      if (!arr.can_partial_program(sb.id, p)) continue;
    } else {
      continue;
    }
    ShadowPage& sp = sb.pages[p];
    const SubpageId first = arr.page_first_free(sb.id, p);
    const auto n = static_cast<std::uint32_t>(
        1 + rng.next_below(spp - first));
    std::array<SlotWrite, kMaxSubpagesPerPage> writes;
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto slot = static_cast<SubpageId>(first + k);
      writes[k] = SlotWrite{slot, next_lsn++};
      sp.slots[slot] = {true, sp.programs, sp.neighbors};
    }
    arr.program(sb.id, p, std::span<const SlotWrite>(writes.data(), n),
                static_cast<SimTime>(step));
    ++sp.programs;
    ASSERT_LE(sp.programs, max_programs);
    // Wordline neighbours absorb the program if they hold data.
    if (p > 0 && sb.pages[p - 1].programs > 0) ++sb.pages[p - 1].neighbors;
    if (p + 1u < sb.pages.size() && sb.pages[p + 1].programs > 0) {
      ++sb.pages[p + 1].neighbors;
    }
    if (step % 200 == 0) expect_snapshots_match(arr, shadow, kInitialPe);
  }
  expect_snapshots_match(arr, shadow, kInitialPe);
  std::uint32_t erases = 0;
  for (const ShadowBlock& sb : shadow) erases += sb.erases;
  EXPECT_GT(erases, 0u);

  io::StateSink sink;
  arr.save(sink);
  FlashArray restored(cfg);
  io::StateSource src(sink.buffer());
  restored.restore(src);
  EXPECT_TRUE(src.exhausted());
  expect_snapshots_match(restored, shadow, kInitialPe);
}

}  // namespace
}  // namespace ppssd::nand
