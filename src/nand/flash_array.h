// The flash array: owns every block and enforces NAND physics.
//
// This is the bottom layer of the simulator. It knows nothing about
// logical addresses or caching policy; the FTL and cache schemes above it
// decide *where* to program, the array enforces *how* programming behaves:
// write-once subpages, page-sequential first programs, the per-page
// partial-program limit (an MLC page takes one program per erase: only the
// SLC-mode cache is partial-programmed), disturb propagation to wordline
// neighbours, and erase/wear accounting.
//
// Hot-path layout (DESIGN.md §10, §14): program() and invalidate() are
// *fused* single-pass implementations. Each subpage slot's state and
// owner share one 4-byte record in a flat slot row (indexed by the block's
// page base), so a supersede or a state scan loads one line per slot; the
// array keeps no version (an LSN's version lives in its device-map entry). Page counters live in one flat row of 2-byte entries, and every
// big row sits on huge pages (common/row_alloc.h). A slot's write time
// and disturb snapshots are kept for SLC-mode slots only: an MLC slot is
// written by its page's one program, when both snapshots are 0, and no
// reader needs its write time.
// The layer-by-layer oracles that hold the fused paths state-identical
// live in tests/nand/fused_path_test.cpp. Contract invariants (write-once,
// frontier order, one MLC program, partial-program limit, valid-state)
// stay PPSSD_CHECK in every build; bounds and secondary state checks are
// PPSSD_DCHECK and compile out of Release.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/config.h"
#include "common/row_alloc.h"
#include "common/types.h"
#include "nand/age_histogram.h"
#include "nand/block.h"
#include "nand/chip.h"
#include "nand/disturb.h"
#include "nand/geometry.h"
#include "nand/plane.h"

namespace ppssd::io {
class StateSink;
class StateSource;
}  // namespace ppssd::io

namespace ppssd::nand {

/// Raw operation counters, split by region.
struct ArrayCounters {
  std::uint64_t slc_program_ops = 0;
  std::uint64_t mlc_program_ops = 0;
  std::uint64_t partial_program_ops = 0;
  std::uint64_t slc_subpages_written = 0;
  std::uint64_t mlc_subpages_written = 0;
  std::uint64_t slc_erases = 0;
  std::uint64_t mlc_erases = 0;
  std::uint64_t read_ops = 0;
  /// In-place SLC→dense reprogram operations (IPS promotion path).
  std::uint64_t reprogram_ops = 0;
  std::uint64_t reprogrammed_subpages = 0;
};

/// Observer of block bookkeeping changes. The FTL's victim index hangs
/// off this so per-block scores stay incrementally maintained without the
/// array knowing anything about GC policy.
class BlockObserver {
 public:
  virtual ~BlockObserver() = default;
  /// One subpage of `b` went valid -> invalid; `invalid` is the block's
  /// new invalid-subpage count.
  virtual void on_subpage_invalidated(BlockId b, std::uint32_t invalid) = 0;
};

/// The hot per-block row: each block's physical coordinates, precomputed
/// once at construction so the per-operation paths (and the schemes'
/// op-emission helpers) never pay the plane_of/chip_of/channel_of
/// divisions, plus the two fields the read path needs — where the block's
/// pages start in the flat page row, and its current P/E count (kept in
/// step by erase() and restore()). A BER snapshot reads this 20-byte entry
/// instead of the 48-byte Block.
struct BlockStatic {
  /// Index of the block's page 0 in the page row; its slot rows start at
  /// page_base * subpages_per_page.
  std::uint32_t page_base = 0;
  /// Initial P/E cycles plus the block's erase count.
  std::uint32_t pe_cycles = 0;
  std::uint32_t plane = 0;
  std::uint16_t chip = 0;
  std::uint16_t channel = 0;
  CellMode mode = CellMode::kSlc;
};

class FlashArray {
 public:
  explicit FlashArray(const SsdConfig& cfg);

  [[nodiscard]] const Geometry& geometry() const { return geom_; }
  [[nodiscard]] const SsdConfig& config() const { return cfg_; }

  [[nodiscard]] const Block& block(BlockId b) const { return blocks_[b]; }
  [[nodiscard]] Block& block(BlockId b) { return blocks_[b]; }

  /// Write-time histogram over block `b`'s valid subpages in never-updated
  /// pages (the Eq. 2 cold population), or nullptr for a block that keeps
  /// none: only SLC-mode blocks do.
  [[nodiscard]] const AgeHistogram* age_histogram(BlockId b) const {
    PPSSD_DCHECK(b < blocks_.size());
    const std::uint32_t h = blocks_[b].slc_ordinal_;
    return h == Block::kNotSlc ? nullptr : &hists_[h];
  }

  /// Hot per-block row entry: coordinates, page base, P/E count.
  [[nodiscard]] const BlockStatic& block_static(BlockId b) const {
    PPSSD_DCHECK(b < statics_.size());
    return statics_[b];
  }

  [[nodiscard]] const Plane& plane(std::uint32_t p) const { return planes_[p]; }
  [[nodiscard]] Chip& chip(std::uint32_t c) { return chips_[c]; }
  [[nodiscard]] std::uint32_t chip_count() const {
    return static_cast<std::uint32_t>(chips_.size());
  }

  /// Subpages per page — uniform across cell modes; the slot rows rely on
  /// that uniformity for their fixed per-page stride.
  [[nodiscard]] std::uint32_t subpages_per_page() const { return spp_; }

  /// Flat page-row index of page (b, p).
  [[nodiscard]] std::size_t page_index(BlockId b, PageId p) const {
    PPSSD_DCHECK(b < blocks_.size());
    PPSSD_DCHECK(p < blocks_[b].page_count());
    return static_cast<std::size_t>(statics_[b].page_base) + p;
  }

  /// Flat slot-row index of subpage (b, p, s).
  [[nodiscard]] std::size_t slot_index(BlockId b, PageId p,
                                       SubpageId s) const {
    PPSSD_DCHECK(s < spp_);
    return page_index(b, p) * spp_ + s;
  }

  /// Counters of page (b, p).
  [[nodiscard]] const Page& page(BlockId b, PageId p) const {
    return pages_[page_index(b, p)];
  }

  [[nodiscard]] SubpageState subpage_state(BlockId b, PageId p,
                                           SubpageId s) const {
    return slots_[slot_index(b, p, s)].state();
  }

  /// Materialized copy of one subpage's stored fields (the slot record
  /// plus, for an SLC-mode slot, its SLC-only rows). An MLC slot's write
  /// time and disturb snapshots read as 0.
  [[nodiscard]] Subpage subpage(BlockId b, PageId p, SubpageId s) const {
    const SlotRecord& r = slots_[slot_index(b, p, s)];
    Subpage sp;
    sp.owner_lsn = r.owner();
    sp.state = r.state();
    const Block& blk = blocks_[b];
    if (blk.slc_ordinal_ != Block::kNotSlc) {
      const std::size_t j = slc_slot(blk.slc_ordinal_, p, s);
      sp.write_time_ms = slc_wtime_[j];
      sp.programs_before = slc_programs_before_[j];
      sp.neighbors_before = slc_neighbors_before_[j];
    }
    return sp;
  }

  /// Count of page (b, p)'s subpages in state `st`.
  [[nodiscard]] std::uint32_t page_count_state(BlockId b, PageId p,
                                               SubpageState st) const {
    const std::size_t base = slot_index(b, p, 0);
    std::uint32_t c = 0;
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (slots_[base + s].state() == st) ++c;
    }
    return c;
  }

  /// Index of the first free slot of page (b, p), or kInvalidSubpage.
  /// Slots are consumed in order and invalidation never frees them, so
  /// the free slots of a page always form a suffix.
  [[nodiscard]] SubpageId page_first_free(BlockId b, PageId p) const {
    const std::size_t base = slot_index(b, p, 0);
    for (std::uint32_t s = 0; s < spp_; ++s) {
      if (slots_[base + s].is_free()) return static_cast<SubpageId>(s);
    }
    return kInvalidSubpage;
  }

  /// In-page disturb events absorbed by (b, p, s) since it was written:
  /// the number of partial programs applied to the page afterwards.
  [[nodiscard]] std::uint32_t in_page_disturbs(BlockId b, PageId p,
                                               SubpageId s) const {
    return disturb_of(b, p, s).in_page_disturbs;
  }

  /// Neighbour disturb events absorbed by (b, p, s) since it was written.
  [[nodiscard]] std::uint32_t neighbor_disturbs(BlockId b, PageId p,
                                                SubpageId s) const {
    return disturb_of(b, p, s).neighbor_disturbs;
  }

  /// Apply one program operation to block `b`, page `p`, filling the given
  /// slots. Enforces the per-page partial-program limit (an MLC page takes
  /// one program per erase) and propagates neighbour disturb. Returns true
  /// if it was a partial program.
  ///
  /// Fused single-pass implementation: slot records, page counters, block
  /// aggregates, the age histogram (SLC blocks) and array counters update
  /// in one walk over `writes`. Every program fills at least one free slot
  /// (always checked), which bounds a page's program count by spp.
  bool program(BlockId b, PageId p, std::span<const SlotWrite> writes,
               SimTime now) {
    PPSSD_DCHECK(b < blocks_.size());
    PPSSD_CHECK_MSG(!writes.empty(), "a program must fill at least one slot");
    Block& blk = blocks_[b];
    PPSSD_DCHECK(p < blk.page_count());
    const BlockStatic& bs = statics_[b];
    const std::size_t pi = page_index(b, p);
    Page& pg = pages_[pi];
    const std::size_t base = pi * spp_;
    const std::uint8_t pre_ops = pg.program_ops();
    AgeHistogram* const hist = histogram_of(blk);
    // SLC-only rows: write time and disturb snapshots (MLC slots keep none).
    const std::size_t sbase =
        hist != nullptr ? slc_slot(blk.slc_ordinal_, p, 0) : 0;
    if (pre_ops == 0) {
      // First program of a page must land on the write frontier: NAND
      // blocks are programmed page-sequentially after an erase. The page
      // ahead is unprogrammed and the page behind was programmed while
      // this one was empty, so no neighbour program has reached it yet.
      PPSSD_CHECK_MSG(p == blk.frontier_,
                      "out-of-order first program of a page");
      PPSSD_DCHECK(pg.neighbor_programs_ == 0);
      ++blk.frontier_;
    } else {
      PPSSD_CHECK_MSG(hist != nullptr,
                      "second program of an MLC page (one program per erase)");
      PPSSD_CHECK_MSG(pre_ops < cfg_.cache.max_partial_programs,
                      "partial-program limit exceeded or no free slot");
      if (pre_ops == 1) {
        // The page transitions to "updated": its valid subpages leave the
        // cold (never-updated) population tracked by the age histogram.
        for (std::uint32_t s = 0; s < spp_; ++s) {
          if (slots_[base + s].state() == SubpageState::kValid) {
            hist->remove(slc_wtime_[sbase + s]);
          }
        }
      }
    }
    const auto wt = static_cast<std::uint32_t>(now / 1'000'000);
    for (const SlotWrite& w : writes) {
      PPSSD_DCHECK(w.slot < spp_);
      PPSSD_DCHECK(w.lsn <= SlotRecord::kOwnerMask);
      SlotRecord& r = slots_[base + w.slot];
      PPSSD_CHECK_MSG(r.is_free(),
                      "programming a non-free subpage (NAND write-once rule)");
      r = SlotRecord(SubpageState::kValid, static_cast<std::uint32_t>(w.lsn));
      if (hist != nullptr) {
        slc_wtime_[sbase + w.slot] = wt;
        slc_programs_before_[sbase + w.slot] = pre_ops;
        slc_neighbors_before_[sbase + w.slot] = pg.neighbor_programs_;
      }
    }
    const auto n = static_cast<std::uint32_t>(writes.size());
    if (hist != nullptr) {
      blk.sum_write_time_ms_ += static_cast<std::uint64_t>(wt) * n;
      if (pre_ops == 0) hist->add(wt, n);
    }
    pg.set_program_ops(pre_ops + 1u);
    blk.valid_ += n;

    // Wordline adjacency: programming page p disturbs pages p-1 and p+1
    // of the same block if they already hold data (Figure 1).
    if (p > 0 && pages_[pi - 1].programmed()) {
      pages_[pi - 1].absorb_neighbor_program();
    }
    if (p + 1u < blk.page_count() && pages_[pi + 1].programmed()) {
      pages_[pi + 1].absorb_neighbor_program();
    }

    if (bs.mode == CellMode::kSlc) {
      ++counters_.slc_program_ops;
      counters_.slc_subpages_written += n;
    } else {
      ++counters_.mlc_program_ops;
      counters_.mlc_subpages_written += n;
    }
    if (pre_ops > 0) ++counters_.partial_program_ops;
    planes_[bs.plane].count_program();
    return pre_ops > 0;
  }

  /// In-place switch (IPS, arXiv 2409.14360): promote an SLC-mode cache
  /// page to a dense-mode destination by continuing the ISPP sequence on
  /// the cells instead of read-migrate-program. The destination page's
  /// resulting state is identical to program(dst_b, dst_p, writes, now) —
  /// the caller supplies the surviving slot writes — plus a sticky
  /// `reprogrammed` mark that the BER model prices as a retention/disturb
  /// penalty. The mark clears on erase.
  ///
  /// The source page must be in SLC frontier state: exactly one program
  /// since erase (a single-pulse SLC write, never partially programmed).
  /// Reprogramming from any other state is physically meaningless and is
  /// rejected by an always-on check, as is a non-SLC source or a non-dense
  /// destination. The caller invalidates the source slots itself (they
  /// are superseded data after the switch, exactly as after a migration).
  void reprogram(BlockId src_b, PageId src_p, BlockId dst_b, PageId dst_p,
                 std::span<const SlotWrite> writes, SimTime now) {
    PPSSD_CHECK_MSG(statics_[src_b].mode == CellMode::kSlc,
                    "reprogram source must be an SLC-mode page");
    PPSSD_CHECK_MSG(page(src_b, src_p).program_ops() == 1,
                    "reprogram source not in SLC frontier state (exactly one "
                    "program since erase required)");
    PPSSD_CHECK_MSG(statics_[dst_b].mode == CellMode::kMlc,
                    "reprogram destination must be a dense-mode page");
    program(dst_b, dst_p, writes, now);
    pages_[page_index(dst_b, dst_p)].mark_reprogrammed();
    ++counters_.reprogram_ops;
    counters_.reprogrammed_subpages += writes.size();
  }

  /// Bulk first-program entry point for setup (Scheme prefill): fills
  /// pages [0, pages) of block `b`, which has no programmed page, front
  /// to back at sim time 0. Page p's slot s holds LSN
  /// first_lsn + p·lsn_stride + s; every page takes all
  /// subpages_per_page() slots except the last, which takes
  /// `last_slots`. Writes the block's slot records in one sweep and its
  /// page entries in another: a frontier fill takes no partial-program
  /// branch and disturbs only the page behind it. The write-once rule is
  /// checked once for the block (always on, with program()'s message).
  /// State produced is identical to program(b, p, writes, 0) for each
  /// page in turn.
  void prefill_block(BlockId b, std::uint32_t pages, Lsn first_lsn,
                     std::uint64_t lsn_stride, std::uint32_t last_slots);

  /// True if page (b, p) may accept another program operation: an SLC-mode
  /// page below the partial-program limit with free subpage slots left.
  /// Always false for a programmed MLC page.
  [[nodiscard]] bool can_partial_program(BlockId b, PageId p) const;

  /// Fused invalidate: one slot lookup updates the slot record, block
  /// aggregates, the age histogram (SLC blocks) and the observer in a
  /// single pass.
  void invalidate(BlockId b, PageId p, SubpageId s) {
    PPSSD_DCHECK(b < blocks_.size());
    Block& blk = blocks_[b];
    PPSSD_DCHECK(p < blk.page_count());
    PPSSD_DCHECK(s < spp_);
    const std::size_t pi = page_index(b, p);
    SlotRecord& r = slots_[pi * spp_ + s];
    PPSSD_CHECK_MSG(r.state() == SubpageState::kValid,
                    "invalidating a subpage that is not valid");
    r.set_state(SubpageState::kInvalid);
    PPSSD_DCHECK(blk.valid_ > 0);
    --blk.valid_;
    ++blk.invalid_;
    if (AgeHistogram* const hist = histogram_of(blk)) {
      const std::uint32_t wt = slc_wtime_[slc_slot(blk.slc_ordinal_, p, s)];
      blk.sum_write_time_ms_ -= wt;
      if (pages_[pi].program_ops() == 1) hist->remove(wt);
    }
    if (observer_ != nullptr) {
      observer_->on_subpage_invalidated(b, blk.invalid_);
    }
  }

  /// Erase a block. All subpages must already be invalid or free — the
  /// caller (GC) is responsible for relocating valid data first.
  void erase(BlockId b, SimTime now);

  /// Count a read operation (timing handled by the service model).
  void count_read(BlockId b);

  /// Cache hints for the rows a host operation on slot (b, p, s) reads
  /// (DESIGN.md §10, "Request lookahead"): the block's entry, the page
  /// counters, the slot record and, for an SLC-mode block, its SLC-only
  /// slot rows. Reads the hot block row; changes no state.
  void prefetch_slot(BlockId b, PageId p, SubpageId s) const {
    const BlockStatic& bs = block_static(b);
    const std::size_t pi = static_cast<std::size_t>(bs.page_base) + p;
    const std::size_t i = pi * spp_ + s;
    __builtin_prefetch(blocks_.data() + b);
    __builtin_prefetch(pages_.data() + pi);
    __builtin_prefetch(slots_.data() + i);
    if (bs.mode == CellMode::kSlc) {
      const std::size_t j = slc_slot(slc_ordinal(bs, b), p, s);
      __builtin_prefetch(slc_wtime_.data() + j);
      __builtin_prefetch(slc_programs_before_.data() + j);
      __builtin_prefetch(slc_neighbors_before_.data() + j);
    }
  }

  /// Disturb snapshot of a stored subpage for the BER model. One read of
  /// the hot block row yields the page base and mode; the page entry and,
  /// for an SLC-mode slot, the two snapshot fields then load
  /// independently. An MLC slot was written by its page's only program,
  /// with both snapshots 0.
  [[nodiscard]] DisturbSnapshot disturb_of(BlockId b, PageId p,
                                           SubpageId s) const {
    const BlockStatic& bs = block_static(b);
    const std::size_t pi = page_index(b, p);
    PPSSD_DCHECK(s < spp_);
    PPSSD_DCHECK(!slots_[pi * spp_ + s].is_free());
    const Page& pg = pages_[pi];
    DisturbSnapshot snap;
    snap.mode = bs.mode;
    snap.pe_cycles = bs.pe_cycles;
    snap.in_page_disturbs = pg.program_ops() - 1u;
    snap.neighbor_disturbs = pg.neighbor_programs_;
    if (bs.mode == CellMode::kSlc) {
      const std::size_t j = slc_slot(slc_ordinal(bs, b), p, s);
      snap.in_page_disturbs -= slc_programs_before_[j];
      snap.neighbor_disturbs -= slc_neighbors_before_[j];
    }
    snap.reprogrammed = pg.reprogrammed();
    return snap;
  }

  [[nodiscard]] const ArrayCounters& counters() const { return counters_; }

  /// Zero the aggregate operation counters (per-block wear is preserved).
  /// Used after warm-up so reports cover only the measured phase.
  void reset_counters() { counters_ = ArrayCounters{}; }

  /// Sum of erase counts over SLC-mode / MLC blocks (wear inspection).
  [[nodiscard]] std::uint64_t total_erases(CellMode mode) const;

  /// Register (or clear, with nullptr) the single block observer. The
  /// observer must outlive the array or unregister before destruction.
  void set_block_observer(BlockObserver* observer) { observer_ = observer; }

  /// Serialize the complete mutable array state (slot rows, per-page and
  /// per-block counters, wear, SLC histograms, operation counters) for the
  /// warm-start checkpoint. The slot, SLC and page rows are written as
  /// they stand in memory, byte for byte. Geometry/config are not written
  /// — the restore target must be constructed from the same SsdConfig.
  void save(io::StateSink& sink) const;

  /// Inverse of save(): one copy per row, range-checking every slot and
  /// page field as it lands. PPSSD_CHECKs that the checkpoint's shape
  /// matches this array's geometry and that every field is in range; the
  /// caller validates checksum/version first.
  void restore(io::StateSource& src);

 private:
  /// The layer-by-layer oracles of the fused paths (test target only).
  friend struct ReferencePaths;

  /// `blk`'s age histogram, or nullptr (MLC blocks keep none).
  AgeHistogram* histogram_of(const Block& blk) {
    return blk.slc_ordinal_ == Block::kNotSlc ? nullptr
                                              : &hists_[blk.slc_ordinal_];
  }

  /// SLC ordinal of SLC-mode block `b` from the plane already in its hot
  /// row entry `bs` (no block-row load).
  [[nodiscard]] std::uint32_t slc_ordinal(const BlockStatic& bs,
                                          BlockId b) const {
    const std::uint32_t ordinal = bs.plane * geom_.slc_blocks_per_plane() +
                                  (b - geom_.plane_first_block(bs.plane));
    PPSSD_DCHECK(ordinal == blocks_[b].slc_ordinal_);
    return ordinal;
  }

  /// Index of slot (p, s) of the SLC-mode block with ordinal `ordinal` in
  /// the SLC-only slot rows.
  [[nodiscard]] std::size_t slc_slot(std::uint32_t ordinal, PageId p,
                                     std::uint32_t s) const {
    PPSSD_DCHECK(ordinal < hists_.size());
    return static_cast<std::size_t>(ordinal) * slc_block_slots_ +
           static_cast<std::size_t>(p) * spp_ + s;
  }

  SsdConfig cfg_;
  Geometry geom_;
  Row<Block> blocks_;
  Row<BlockStatic> statics_;
  // One age histogram per SLC-mode block, in block order; Block::hist_
  // indexes it.
  Row<AgeHistogram> hists_;
  std::vector<Plane> planes_;
  std::vector<Chip> chips_;
  ArrayCounters counters_;
  BlockObserver* observer_ = nullptr;

  // The flat page row: page index = statics_[b].page_base + page (the
  // base is per block because pages-per-block differs between cell
  // modes).
  Row<Page> pages_;

  // The slot row (DESIGN.md §10): one record per subpage slot. Slot
  // index = page index * spp_ + slot.
  std::uint32_t spp_ = 0;
  Row<SlotRecord> slots_;

  // SLC-only slot rows (DESIGN.md §10): write time and the two disturb
  // snapshots, which stay 0 for every MLC slot. Index = SLC ordinal *
  // slc_block_slots_ + page * spp_ + slot (slc_slot()).
  std::uint32_t slc_block_slots_ = 0;
  Row<std::uint32_t> slc_wtime_;
  Row<std::uint8_t> slc_programs_before_;
  Row<std::uint8_t> slc_neighbors_before_;
};

}  // namespace ppssd::nand
