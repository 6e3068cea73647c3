// Test-only oracles for the device's fused and bulk fast paths.
//
// * nand::ReferencePaths — FlashArray::program / ::invalidate as
//   layer-by-layer chains (a friend of FlashArray, Block and Page), and
//   a fault injector for the bulk prefill's write-once check.
// * cache::ReferencePrefill — Scheme::prefill_mlc as the page-at-a-time
//   round-robin fill it replaced, each page a frontier program through
//   ReferencePaths at sim time 0 (a friend of Scheme).
//
// The library's fast paths are defined to leave state identical to these.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>

#include "cache/scheme.h"
#include "common/check.h"
#include "nand/flash_array.h"

namespace ppssd::nand {

/// The layer-by-layer program and invalidate chains: checks, then
/// per-slot stamping, then aggregate updates, each as its own pass, with
/// SLC-only row indices derived from the geometry rather than the block's
/// cached ordinal.
struct ReferencePaths {
  static std::size_t slc_slot(const FlashArray& a, BlockId b, PageId p,
                              SubpageId s) {
    const Geometry& g = a.geom_;
    return (static_cast<std::size_t>(g.slc_ordinal(b)) *
                g.pages_per_block(CellMode::kSlc) +
            p) *
               a.spp_ +
           s;
  }

  static bool program(FlashArray& a, BlockId b, PageId p,
                      std::span<const SlotWrite> writes, SimTime now) {
    PPSSD_CHECK(b < a.blocks_.size());
    PPSSD_CHECK(!writes.empty());
    Block& blk = a.blocks_[b];
    PPSSD_CHECK(p < blk.page_count());
    const bool slc = a.geom_.is_slc_block(b);
    const std::size_t pi = a.page_index(b, p);
    Page& pg = a.pages_[pi];
    if (pg.programmed()) {
      PPSSD_CHECK_MSG(a.can_partial_program(b, p),
                      "partial-program limit exceeded or no free slot");
    }
    const std::size_t base = pi * a.spp_;

    // Layer "block": frontier rule and the cold-population transition.
    const std::uint8_t pre_ops = pg.program_ops();
    AgeHistogram* const hist = a.histogram_of(blk);
    if (pre_ops == 0) {
      PPSSD_CHECK_MSG(p == blk.frontier_,
                      "out-of-order first program of a page");
      ++blk.frontier_;
    } else if (pre_ops == 1 && hist != nullptr) {
      for (std::uint32_t s = 0; s < a.spp_; ++s) {
        if (a.slots_[base + s].state() == SubpageState::kValid) {
          hist->remove(
              a.slc_wtime_[slc_slot(a, b, p, static_cast<SubpageId>(s))]);
        }
      }
    }

    // Layer "page": write-once slot stamping in its own pass.
    PPSSD_CHECK(pre_ops < a.spp_);
    const auto wt = static_cast<std::uint32_t>(now / 1'000'000);
    for (const SlotWrite& w : writes) {
      PPSSD_CHECK(w.slot < a.spp_);
      PPSSD_CHECK(w.lsn <= SlotRecord::kOwnerMask);
      SlotRecord& r = a.slots_[base + w.slot];
      PPSSD_CHECK_MSG(r.state() == SubpageState::kFree,
                      "programming a non-free subpage (NAND write-once rule)");
      r = SlotRecord(SubpageState::kValid, static_cast<std::uint32_t>(w.lsn));
      if (slc) {
        const std::size_t j = slc_slot(a, b, p, w.slot);
        a.slc_wtime_[j] = wt;
        a.slc_programs_before_[j] = pre_ops;
        a.slc_neighbors_before_[j] = pg.neighbor_programs_;
      }
    }
    pg.set_program_ops((pre_ops + 1u) & Page::kProgramOpsMask);
    const bool partial = pre_ops > 0;

    // Layer "block" aggregates, separate pass.
    const auto n = static_cast<std::uint32_t>(writes.size());
    blk.valid_ += n;
    if (slc) blk.sum_write_time_ms_ += static_cast<std::uint64_t>(wt) * n;
    if (pre_ops == 0 && hist != nullptr) hist->add(wt, n);

    // Wordline adjacency: programming page p disturbs pages p-1 and p+1
    // of the same block if they already hold data (Figure 1).
    if (p > 0 && a.pages_[pi - 1].programmed()) {
      a.pages_[pi - 1].absorb_neighbor_program();
    }
    if (p + 1u < blk.page_count() && a.pages_[pi + 1].programmed()) {
      a.pages_[pi + 1].absorb_neighbor_program();
    }

    if (blk.mode() == CellMode::kSlc) {
      ++a.counters_.slc_program_ops;
      a.counters_.slc_subpages_written += n;
    } else {
      ++a.counters_.mlc_program_ops;
      a.counters_.mlc_subpages_written += n;
    }
    if (partial) ++a.counters_.partial_program_ops;
    a.planes_[a.geom_.plane_of(b)].count_program();
    return partial;
  }

  /// Fault injection: store a valid record for `lsn` in slot (b, p, s)
  /// and touch nothing else (frontier, counters), a state no legal
  /// operation sequence reaches. The bulk prefill's block-wide
  /// write-once check must still catch it.
  static void plant_valid_slot(FlashArray& a, BlockId b, PageId p,
                               SubpageId s, Lsn lsn) {
    a.slots_[a.slot_index(b, p, s)] =
        SlotRecord(SubpageState::kValid, static_cast<std::uint32_t>(lsn));
  }

  static void invalidate(FlashArray& a, BlockId b, PageId p, SubpageId s) {
    PPSSD_CHECK(b < a.blocks_.size());
    Block& blk = a.blocks_[b];
    PPSSD_CHECK(p < blk.page_count());
    PPSSD_CHECK(s < a.spp_);
    const std::size_t i = a.slot_index(b, p, s);

    // Layer "page": the state flip, keeping the owner.
    SlotRecord& r = a.slots_[i];
    PPSSD_CHECK_MSG(r.state() == SubpageState::kValid,
                    "invalidating a subpage that is not valid");
    r.set_state(SubpageState::kInvalid);

    // Layer "block": aggregates in a separate pass.
    PPSSD_CHECK(blk.valid_ > 0);
    --blk.valid_;
    ++blk.invalid_;
    if (a.geom_.is_slc_block(b)) {
      const std::uint32_t wt = a.slc_wtime_[slc_slot(a, b, p, s)];
      blk.sum_write_time_ms_ -= wt;
      if (a.page(b, p).program_ops() == 1) a.histogram_of(blk)->remove(wt);
    }
    if (a.observer_ != nullptr) {
      a.observer_->on_subpage_invalidated(b, blk.invalid_);
    }
  }
};

}  // namespace ppssd::nand

namespace ppssd::cache {

/// The page-at-a-time MLC prefill: per logical page, the next plane in
/// round-robin order that still has more than `free_floor_blocks` free
/// MLC blocks takes it.
struct ReferencePrefill {
  /// Place the round-robin cursor, so twin fills start on one plane.
  static void set_cursor(Scheme& scheme, std::uint32_t plane) {
    scheme.rr_plane_ = plane;
  }

  static std::uint64_t prefill_mlc(Scheme& scheme, std::uint64_t max_subpages,
                                   std::uint32_t free_floor_blocks) {
    const auto& geom = scheme.array_.geometry();
    const std::uint32_t spp = scheme.spp_;
    max_subpages = std::min(max_subpages, geom.logical_subpages());
    std::uint64_t filled = 0;
    std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
    while (filled < max_subpages) {
      std::uint32_t plane = scheme.next_plane();
      bool room = false;
      for (std::uint32_t attempts = 0; attempts < geom.planes(); ++attempts) {
        if (scheme.bm_.free_blocks(plane, CellMode::kMlc) >
            free_floor_blocks) {
          room = true;
          break;
        }
        plane = scheme.next_plane();
      }
      if (!room) break;

      const auto alloc =
          scheme.bm_.allocate_page(plane, BlockLevel::kHighDensity);
      PPSSD_CHECK(alloc.has_value());
      std::size_t n = 0;
      while (n < spp && filled < max_subpages) {
        const Lsn lsn = filled++;
        writes[n] = {static_cast<SubpageId>(n), lsn};
        ++n;
      }
      nand::ReferencePaths::program(
          scheme.array_, alloc->block, alloc->page,
          std::span<const nand::SlotWrite>(writes.data(), n), /*now=*/0);
      for (std::size_t i = 0; i < n; ++i) {
        // Every LSN of a fresh device is written for the first time.
        scheme.map_.set(writes[i].lsn,
                        PhysicalAddress{alloc->block, alloc->page,
                                        static_cast<SubpageId>(i)},
                        /*version=*/1);
      }
    }
    scheme.reset_metrics();
    return filled;
  }
};

}  // namespace ppssd::cache
