#include "nand/flash_array.h"

#include <algorithm>

#include "common/check.h"
#include "common/state_io.h"

namespace ppssd::nand {

FlashArray::FlashArray(const SsdConfig& cfg)
    : cfg_(cfg), geom_(cfg.geometry, cfg.cache.slc_ratio) {
  const std::string err = cfg.validate();
  PPSSD_CHECK_MSG(err.empty(), err.c_str());

  spp_ = geom_.subpages_per_page();
  blocks_ = Row<Block>(geom_.total_blocks());
  statics_ = Row<BlockStatic>(geom_.total_blocks());
  hists_ = Row<AgeHistogram>(geom_.slc_block_count());
  std::uint32_t next_ordinal = 0;
  std::uint64_t pages = 0;
  for (BlockId b = 0; b < geom_.total_blocks(); ++b) {
    const CellMode mode =
        geom_.is_slc_block(b) ? CellMode::kSlc : CellMode::kMlc;
    Block& blk = blocks_[b];
    blk = Block(mode, geom_.pages_per_block(mode), spp_);
    if (mode == CellMode::kSlc) blk.slc_ordinal_ = next_ordinal++;
    statics_[b] = BlockStatic{
        static_cast<std::uint32_t>(pages), cfg_.wear.initial_pe_cycles,
        geom_.plane_of(b), static_cast<std::uint16_t>(geom_.chip_of(b)),
        static_cast<std::uint16_t>(geom_.channel_of(b)), mode};
    pages += geom_.pages_per_block(mode);
  }
  PPSSD_CHECK(next_ordinal == hists_.size());
  // The page, slot and SLC-only rows start erased, which is all zero:
  // rows are born zero, so sizing them writes nothing. SsdConfig::
  // validate() bounds the page count to a 32-bit page index.
  pages_ = Row<Page>(pages);
  slots_ = Row<SlotRecord>(static_cast<std::size_t>(pages) * spp_);
  slc_block_slots_ = geom_.pages_per_block(CellMode::kSlc) * spp_;
  const std::size_t slc_slots =
      static_cast<std::size_t>(hists_.size()) * slc_block_slots_;
  slc_wtime_ = Row<std::uint32_t>(slc_slots);
  slc_programs_before_ = Row<std::uint8_t>(slc_slots);
  slc_neighbors_before_ = Row<std::uint8_t>(slc_slots);

  planes_.reserve(geom_.planes());
  for (std::uint32_t p = 0; p < geom_.planes(); ++p) {
    const BlockId first = geom_.plane_first_block(p);
    planes_.emplace_back(p, first, geom_.blocks_per_plane(),
                         geom_.chip_of(first), geom_.channel_of(first));
  }
  chips_.resize(geom_.chips());
}

void FlashArray::prefill_block(BlockId b, std::uint32_t pages, Lsn first_lsn,
                               std::uint64_t lsn_stride,
                               std::uint32_t last_slots) {
  PPSSD_DCHECK(b < blocks_.size());
  Block& blk = blocks_[b];
  PPSSD_CHECK_MSG(blk.frontier_ == 0, "bulk prefill of a programmed block");
  PPSSD_CHECK(pages > 0 && pages <= blk.page_count());
  PPSSD_CHECK(last_slots > 0 && last_slots <= spp_);
  blk.frontier_ = pages;
  const BlockStatic& bs = statics_[b];

  // One sweep over the block's slot records. The write-once rule is
  // checked once for the block: every slot the fill takes must have been
  // free, which the OR of their old records' taken bits says.
  SlotRecord* const slots = slots_.data() + std::size_t{bs.page_base} * spp_;
  bool taken = false;
  for (std::uint32_t p = 0; p < pages; ++p) {
    SlotRecord* const page = slots + std::size_t{p} * spp_;
    const std::uint32_t n = p + 1 == pages ? last_slots : spp_;
    const Lsn lsn = first_lsn + p * lsn_stride;
    for (std::uint32_t s = 0; s < n; ++s) {
      taken |= !page[s].is_free();
      PPSSD_DCHECK(lsn + s <= SlotRecord::kOwnerMask);
      // An SLC slot's write time and disturb snapshots stay 0: a frontier
      // fill at sim time 0 has seen no prior programs or neighbour disturbs.
      page[s] = SlotRecord(SubpageState::kValid,
                           static_cast<std::uint32_t>(lsn + s));
    }
  }
  PPSSD_CHECK_MSG(!taken,
                  "programming a non-free subpage (NAND write-once rule)");

  // One sweep over the page entries: each page takes its one program, and
  // every page but the last is disturbed by the program of the page after
  // it.
  Page* const page_row = pages_.data() + bs.page_base;
  for (std::uint32_t p = 0; p < pages; ++p) {
    page_row[p].set_program_ops(1);
    if (p + 1 < pages) page_row[p].absorb_neighbor_program();
  }

  const auto n = static_cast<std::uint32_t>(
      std::uint64_t{pages - 1} * spp_ + last_slots);
  blk.valid_ += n;
  if (AgeHistogram* const hist = histogram_of(blk)) hist->add(0, n);
  if (bs.mode == CellMode::kSlc) {
    counters_.slc_program_ops += pages;
    counters_.slc_subpages_written += n;
  } else {
    counters_.mlc_program_ops += pages;
    counters_.mlc_subpages_written += n;
  }
  planes_[bs.plane].count_program(pages);
}

bool FlashArray::can_partial_program(BlockId b, PageId p) const {
  if (statics_[b].mode != CellMode::kSlc ||
      page(b, p).program_ops() >= cfg_.cache.max_partial_programs) {
    return false;
  }
  return page_first_free(b, p) != kInvalidSubpage;
}

void FlashArray::erase(BlockId b, SimTime now) {
  PPSSD_CHECK(b < blocks_.size());
  Block& blk = blocks_[b];
  PPSSD_CHECK_MSG(blk.valid_subpages() == 0,
                  "erasing a block that still holds valid data");
  blk.erase(now);
  if (AgeHistogram* const hist = histogram_of(blk)) {
    // Rebase the histogram on this erase so bucket widths are log-spaced
    // in the block's own fill window (same ms truncation as the program
    // path).
    hist->clear(static_cast<std::uint32_t>(now / 1'000'000));
  }
  BlockStatic& bs = statics_[b];
  bs.pe_cycles = cfg_.wear.initial_pe_cycles + blk.erase_count();
  // Clear the block's page and slot ranges back to the erased state.
  std::fill_n(pages_.begin() + bs.page_base, blk.page_count(), Page{});
  const std::size_t base = static_cast<std::size_t>(bs.page_base) * spp_;
  const std::size_t n = static_cast<std::size_t>(blk.page_count()) * spp_;
  std::fill_n(slots_.begin() + base, n, SlotRecord{});
  if (bs.mode == CellMode::kSlc) {
    const std::size_t sbase = slc_slot(blk.slc_ordinal_, 0, 0);
    std::fill_n(slc_wtime_.begin() + sbase, n, std::uint32_t{0});
    std::fill_n(slc_programs_before_.begin() + sbase, n, std::uint8_t{0});
    std::fill_n(slc_neighbors_before_.begin() + sbase, n, std::uint8_t{0});
    ++counters_.slc_erases;
  } else {
    ++counters_.mlc_erases;
  }
  planes_[bs.plane].count_erase();
}

void FlashArray::count_read(BlockId b) {
  ++counters_.read_ops;
  planes_[statics_[b].plane].count_read();
}

std::uint64_t FlashArray::total_erases(CellMode mode) const {
  std::uint64_t sum = 0;
  for (const auto& blk : blocks_) {
    if (blk.mode() == mode) sum += blk.erase_count();
  }
  return sum;
}

void FlashArray::save(io::StateSink& sink) const {
  // Keep the layout in sync with the read-only checkpoint adapter
  // (telemetry/introspect/warmstart_reader.cpp), which re-parses this
  // section standalone; bump io::warmstart::kVersion on any change.
  //
  // Shape header: lets restore() reject a checkpoint whose geometry does
  // not match the constructed array (the container's key should already
  // guarantee this; the check is defense in depth).
  sink.u32(spp_);
  sink.u32(static_cast<std::uint32_t>(blocks_.size()));
  sink.u64(slots_.size());

  // The rows as they stand in memory: the 4-byte slot records, the
  // SLC-only write-time and snapshot rows, and the 2-byte page entries.
  sink.vec(slots_);
  sink.vec(slc_wtime_);
  sink.vec(slc_programs_before_);
  sink.vec(slc_neighbors_before_);
  sink.vec(pages_);

  // Per-block scalars *and* the running aggregates: the aggregates are
  // derivable from the rows above, but serializing them makes restore a
  // straight copy instead of a fold over every subpage slot — the
  // invariant walk (Scheme::check_consistency) still re-derives and
  // cross-checks them after every checkpoint round-trip in tests. Only
  // SLC-mode blocks' records carry a histogram.
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    const Block& blk = blocks_[b];
    sink.u8(static_cast<std::uint8_t>(blk.level()));
    sink.u32(blk.erase_count());
    sink.u64(blk.last_erase_time());
    sink.u32(blk.frontier_);
    sink.u32(blk.valid_);
    sink.u32(blk.invalid_);
    sink.u64(blk.sum_write_time_ms_);
    if (const AgeHistogram* const hist = age_histogram(b)) hist->save(sink);
  }

  for (const Plane& pl : planes_) {
    sink.u64(pl.programs());
    sink.u64(pl.reads());
    sink.u64(pl.erases());
  }

  sink.pod(counters_);
}

void FlashArray::restore(io::StateSource& src) {
  PPSSD_CHECK_MSG(src.u32() == spp_ &&
                      src.u32() == static_cast<std::uint32_t>(blocks_.size()) &&
                      src.u64() == slots_.size(),
                  "warm-start checkpoint does not match device geometry");

  // One copy per row, then one branch-free range-check pass over each
  // restored row: a bad field sets its flag, checked after the pass, so a
  // corrupt stream aborts here instead of restoring silently.
  (void)src.vec_into(slots_);
  (void)src.vec_into(slc_wtime_);
  (void)src.vec_into(slc_programs_before_);
  (void)src.vec_into(slc_neighbors_before_);
  (void)src.vec_into(pages_);
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint rows truncated");

  // A free slot is all zero, as erase leaves it; a programmed slot's owner
  // is a logical subpage (validate() bounds the count to the owner field).
  const auto lsns = static_cast<std::uint32_t>(geom_.logical_subpages());
  std::uint32_t bad_state = 0;
  std::uint32_t bad_owner = 0;
  std::uint32_t bad_free = 0;
  for (const SlotRecord& r : slots_) {
    const auto st = static_cast<std::uint32_t>(r.state());
    const std::uint32_t owner = r.owner();
    bad_state |= st > static_cast<std::uint32_t>(SubpageState::kInvalid);
    bad_free |= (st == 0) & (owner != 0);
    bad_owner |= (st != 0) & (owner >= lsns);
  }
  PPSSD_CHECK_MSG(bad_state == 0,
                  "warm-start checkpoint slot state out of range");
  PPSSD_CHECK_MSG(bad_owner == 0,
                  "warm-start checkpoint slot owner beyond the logical "
                  "subpage count");
  PPSSD_CHECK_MSG(bad_free == 0,
                  "warm-start checkpoint free slot holds an owner");

  const std::uint32_t max_neighbors = 2 * spp_;
  std::uint32_t bad_neighbors = 0;
  for (const std::uint8_t v : slc_neighbors_before_) {
    bad_neighbors |= v > max_neighbors;
  }
  std::uint32_t bad_ops = 0;
  for (const Page& pg : pages_) {
    bad_ops |= pg.program_ops() > spp_;
    bad_neighbors |= pg.neighbor_programs_ > max_neighbors;
  }
  PPSSD_CHECK_MSG(bad_ops == 0,
                  "warm-start checkpoint page program count above subpages "
                  "per page");
  PPSSD_CHECK_MSG(bad_neighbors == 0,
                  "warm-start checkpoint neighbour count above twice the "
                  "subpages per page");

  // Take the serialized aggregates as is — they were read off a
  // consistent device and the stream already passed the container
  // checksum; the cheap per-block shape checks below catch writer/reader
  // drift, and the invariant walk re-derives the aggregates in full
  // wherever tests call it.
  for (BlockId b = 0; b < blocks_.size(); ++b) {
    Block& blk = blocks_[b];
    blk.level_ = static_cast<BlockLevel>(src.u8());
    blk.erase_count_ = src.u32();
    blk.last_erase_time_ = src.u64();
    statics_[b].pe_cycles = cfg_.wear.initial_pe_cycles + blk.erase_count_;
    blk.frontier_ = src.u32();
    blk.valid_ = src.u32();
    blk.invalid_ = src.u32();
    blk.sum_write_time_ms_ = src.u64();
    if (AgeHistogram* const hist = histogram_of(blk)) hist->restore(src);
    PPSSD_CHECK_MSG(
        blk.frontier_ <= blk.page_count() &&
            blk.valid_ + blk.invalid_ <=
                static_cast<std::uint64_t>(blk.frontier_) * spp_,
        "warm-start checkpoint block aggregates out of shape");
    PPSSD_CHECK_MSG(blk.slc_ordinal_ != Block::kNotSlc ||
                        blk.sum_write_time_ms_ == 0,
                    "warm-start checkpoint gives an MLC block a write time");
  }

  for (Plane& pl : planes_) {
    const std::uint64_t programs = src.u64();
    const std::uint64_t reads = src.u64();
    const std::uint64_t erases = src.u64();
    pl.restore_counters(programs, reads, erases);
  }

  counters_ = src.pod<ArrayCounters>();
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint truncated");
}

}  // namespace ppssd::nand
