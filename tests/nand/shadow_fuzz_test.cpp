// Shadow-model fuzzing of the NAND layer: random program/invalidate/erase
// sequences run against both the real FlashArray and a trivially-correct
// reference model; every observable must agree at every step.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "nand/flash_array.h"

namespace ppssd::nand {
namespace {

struct ShadowSubpage {
  Lsn owner = kInvalidLsn;
  SubpageState state = SubpageState::kFree;
};

struct ShadowPage {
  std::vector<ShadowSubpage> slots;
  std::uint32_t program_ops = 0;
};

struct ShadowBlock {
  bool mlc = false;
  std::vector<ShadowPage> pages;
  std::uint32_t frontier = 0;
  std::uint32_t erases = 0;
};

class ShadowModel {
 public:
  explicit ShadowModel(const nand::Geometry& geom) {
    for (BlockId b = 0; b < geom.total_blocks(); ++b) {
      const CellMode mode =
          geom.is_slc_block(b) ? CellMode::kSlc : CellMode::kMlc;
      ShadowBlock blk;
      blk.mlc = mode == CellMode::kMlc;
      blk.pages.resize(geom.pages_per_block(mode));
      for (auto& p : blk.pages) {
        p.slots.resize(geom.subpages_per_page());
      }
      blocks_.push_back(std::move(blk));
    }
  }

  bool can_program(BlockId b, PageId p, std::span<const SlotWrite> ws,
                   std::uint32_t max_partials) const {
    const ShadowBlock& blk = blocks_[b];
    if (p >= blk.pages.size()) return false;
    const ShadowPage& page = blk.pages[p];
    if (page.program_ops == 0 && p != blk.frontier) return false;
    // Only SLC-mode pages take partial programs: an MLC page takes one
    // program per erase.
    if (page.program_ops > 0 &&
        (blk.mlc || page.program_ops >= max_partials)) {
      return false;
    }
    for (const auto& w : ws) {
      if (page.slots[w.slot].state != SubpageState::kFree) return false;
    }
    return true;
  }

  void program(BlockId b, PageId p, std::span<const SlotWrite> ws) {
    ShadowBlock& blk = blocks_[b];
    ShadowPage& page = blk.pages[p];
    if (page.program_ops == 0) ++blk.frontier;
    ++page.program_ops;
    for (const auto& w : ws) {
      page.slots[w.slot] = {w.lsn, SubpageState::kValid};
    }
  }

  void invalidate(BlockId b, PageId p, SubpageId s) {
    blocks_[b].pages[p].slots[s].state = SubpageState::kInvalid;
  }

  bool can_erase(BlockId b) const {
    for (const auto& page : blocks_[b].pages) {
      for (const auto& slot : page.slots) {
        if (slot.state == SubpageState::kValid) return false;
      }
    }
    return true;
  }

  void erase(BlockId b) {
    ShadowBlock& blk = blocks_[b];
    for (auto& page : blk.pages) {
      for (auto& slot : page.slots) slot = ShadowSubpage{};
      page.program_ops = 0;
    }
    blk.frontier = 0;
    ++blk.erases;
  }

  void verify_against(const FlashArray& arr) const {
    for (BlockId b = 0; b < blocks_.size(); ++b) {
      const ShadowBlock& sblk = blocks_[b];
      const Block& rblk = arr.block(b);
      ASSERT_EQ(sblk.frontier, rblk.write_frontier()) << "block " << b;
      ASSERT_EQ(sblk.erases, rblk.erase_count()) << "block " << b;
      std::uint32_t valid = 0;
      std::uint32_t invalid = 0;
      for (PageId p = 0; p < sblk.pages.size(); ++p) {
        const ShadowPage& spage = sblk.pages[p];
        ASSERT_EQ(spage.program_ops, arr.page(b, p).program_ops())
            << "block " << b << " page " << p;
        for (SubpageId s = 0; s < spage.slots.size(); ++s) {
          const ShadowSubpage& sslot = spage.slots[s];
          const Subpage rslot = arr.subpage(b, p, s);
          ASSERT_EQ(sslot.state, rslot.state)
              << "block " << b << " page " << p << " slot " << int(s);
          if (sslot.state != SubpageState::kFree) {
            ASSERT_EQ(sslot.owner, rslot.owner_lsn);
          }
          if (sslot.state == SubpageState::kValid) ++valid;
          if (sslot.state == SubpageState::kInvalid) ++invalid;
        }
      }
      ASSERT_EQ(valid, rblk.valid_subpages()) << "block " << b;
      ASSERT_EQ(invalid, rblk.invalid_subpages()) << "block " << b;
      if (sblk.mlc) {
        ASSERT_EQ(rblk.sum_write_time_ms(), 0u) << "block " << b;
      }
    }
  }

  const ShadowBlock& block(BlockId b) const { return blocks_[b]; }

 private:
  std::vector<ShadowBlock> blocks_;
};

class NandShadowFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NandShadowFuzz, RandomOpsAgreeWithReference) {
  SsdConfig cfg = SsdConfig::scaled(1024);
  cfg.cache.max_partial_programs = 4;
  FlashArray arr(cfg);
  ShadowModel shadow(arr.geometry());
  Rng rng(GetParam());

  // Operate on a handful of blocks from both regions so erase cycles and
  // frontier resets happen many times.
  std::vector<BlockId> pool = {0, 1, 2, arr.geometry().slc_block_at(3)};
  pool.push_back(arr.geometry().slc_blocks_per_plane());      // MLC block
  pool.push_back(arr.geometry().slc_blocks_per_plane() + 1);  // MLC block
  Lsn next_lsn = 1;

  int programs = 0;
  int mlc_programs = 0;
  int erases = 0;
  for (int iter = 0; iter < 20'000; ++iter) {
    const BlockId b = pool[rng.next_below(pool.size())];
    const auto choice = rng.next_below(10);
    if (choice < 6) {
      // Program: either the frontier page (fresh) or a partial program of
      // a random already-programmed page.
      const auto& blk = arr.block(b);
      PageId p;
      if (rng.chance(0.5) && blk.write_frontier() > 0) {
        p = static_cast<PageId>(rng.next_below(blk.write_frontier()));
      } else {
        p = static_cast<PageId>(
            std::min<std::uint32_t>(blk.write_frontier(),
                                    blk.page_count() - 1));
      }
      // Random free-slot subset (contiguity not required).
      std::array<SlotWrite, kMaxSubpagesPerPage> ws;
      std::size_t n = 0;
      for (std::uint32_t s = 0; s < blk.subpages_per_page(); ++s) {
        if (arr.subpage_state(b, p, static_cast<SubpageId>(s)) ==
                SubpageState::kFree &&
            rng.chance(0.5)) {
          ws[n++] = {static_cast<SubpageId>(s), next_lsn++};
        }
      }
      if (n == 0) continue;
      const std::span<const SlotWrite> span(ws.data(), n);
      if (shadow.can_program(b, p, span, cfg.cache.max_partial_programs)) {
        shadow.program(b, p, span);
        arr.program(b, p, span, iter * 1000);
        ++programs;
        if (shadow.block(b).mlc) ++mlc_programs;
      }
      // The array's own rule agrees with the shadow's.
      if (arr.page(b, p).programmed()) {
        ASSERT_EQ(arr.can_partial_program(b, p),
                  !shadow.block(b).mlc &&
                      arr.page(b, p).program_ops() <
                          cfg.cache.max_partial_programs &&
                      arr.page_first_free(b, p) != kInvalidSubpage);
      }
    } else if (choice < 9) {
      // Invalidate a random valid subpage of the block.
      const auto& blk = arr.block(b);
      if (blk.valid_subpages() == 0) continue;
      for (int attempts = 0; attempts < 8; ++attempts) {
        const auto p = static_cast<PageId>(
            rng.next_below(std::max(1u, blk.write_frontier())));
        const auto s =
            static_cast<SubpageId>(rng.next_below(blk.subpages_per_page()));
        if (arr.subpage_state(b, p, s) == SubpageState::kValid) {
          shadow.invalidate(b, p, s);
          arr.invalidate(b, p, s);
          break;
        }
      }
    } else {
      // Erase when legal: invalidate stragglers first half the time.
      if (!shadow.can_erase(b)) {
        if (!rng.chance(0.5)) continue;
        const auto& blk = arr.block(b);
        for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
          for (std::uint32_t s = 0; s < blk.subpages_per_page(); ++s) {
            if (arr.subpage_state(b, static_cast<PageId>(p),
                                  static_cast<SubpageId>(s)) ==
                SubpageState::kValid) {
              shadow.invalidate(b, static_cast<PageId>(p),
                                static_cast<SubpageId>(s));
              arr.invalidate(b, static_cast<PageId>(p),
                             static_cast<SubpageId>(s));
            }
          }
        }
      }
      shadow.erase(b);
      arr.erase(b, iter * 1000);
      ++erases;
    }

    if (iter % 5000 == 4999) {
      shadow.verify_against(arr);
    }
  }
  shadow.verify_against(arr);
  EXPECT_GT(programs, 1000);
  EXPECT_GT(mlc_programs, 100);
  EXPECT_GT(erases, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NandShadowFuzz,
                         ::testing::Values(101u, 202u, 303u, 404u));

}  // namespace
}  // namespace ppssd::nand
