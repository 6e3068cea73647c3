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
  blocks_.reserve(geom_.total_blocks());
  statics_.reserve(geom_.total_blocks());
  hists_.resize(geom_.slc_block_count());
  std::uint32_t next_ordinal = 0;
  std::uint64_t pages = 0;
  for (BlockId b = 0; b < geom_.total_blocks(); ++b) {
    const CellMode mode =
        geom_.is_slc_block(b) ? CellMode::kSlc : CellMode::kMlc;
    Block& blk = blocks_.emplace_back(mode, geom_.pages_per_block(mode),
                                      geom_.subpages_per_page());
    if (mode == CellMode::kSlc) blk.slc_ordinal_ = next_ordinal++;
    statics_.push_back(BlockStatic{
        static_cast<std::uint32_t>(pages), cfg_.wear.initial_pe_cycles,
        geom_.plane_of(b), static_cast<std::uint16_t>(geom_.chip_of(b)),
        static_cast<std::uint16_t>(geom_.channel_of(b)), mode});
    pages += geom_.pages_per_block(mode);
  }
  PPSSD_CHECK(next_ordinal == hists_.size());
  // SsdConfig::validate() bounds the page count to a 32-bit page index.
  pages_.resize(pages);
  const std::size_t slots = static_cast<std::size_t>(pages) * spp_;
  sp_state_.assign(slots, 0);
  sp_owner_.assign(slots, 0);
  sp_version_.assign(slots, 0);
  slc_block_slots_ = geom_.pages_per_block(CellMode::kSlc) * spp_;
  const std::size_t slc_slots =
      static_cast<std::size_t>(hists_.size()) * slc_block_slots_;
  slc_wtime_.assign(slc_slots, 0);
  slc_programs_before_.assign(slc_slots, 0);
  slc_neighbors_before_.assign(slc_slots, 0);

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
                               std::uint32_t last_slots,
                               std::uint32_t version) {
  PPSSD_DCHECK(b < blocks_.size());
  Block& blk = blocks_[b];
  PPSSD_CHECK_MSG(blk.frontier_ == 0, "bulk prefill of a programmed block");
  PPSSD_CHECK(pages > 0 && pages <= blk.page_count());
  PPSSD_CHECK(last_slots > 0 && last_slots <= spp_);
  blk.frontier_ = pages;
  const BlockStatic& bs = statics_[b];
  std::uint64_t written = 0;
  for (std::uint32_t p = 0; p < pages; ++p) {
    const std::size_t pi = bs.page_base + p;
    const std::size_t base = pi * spp_;
    const std::uint32_t n = p + 1 == pages ? last_slots : spp_;
    const Lsn lsn = first_lsn + p * lsn_stride;
    for (std::uint32_t s = 0; s < n; ++s) {
      const std::size_t i = base + s;
      PPSSD_CHECK_MSG(sp_state_[i] ==
                          static_cast<std::uint8_t>(SubpageState::kFree),
                      "programming a non-free subpage (NAND write-once rule)");
      sp_state_[i] = static_cast<std::uint8_t>(SubpageState::kValid);
      sp_owner_[i] = static_cast<std::uint32_t>(lsn + s);
      sp_version_[i] = version;
      // An SLC slot's write time and disturb snapshots stay 0: a frontier
      // fill at sim time 0 has seen no prior programs or neighbour disturbs.
    }
    pages_[pi].program_ops_ = 1;
    // Programming page p disturbs the page behind it, already filled.
    if (p > 0) pages_[pi - 1].absorb_neighbor_program();
    written += n;
  }

  const auto n = static_cast<std::uint32_t>(written);
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
  // Clear the block's page and SoA slot ranges back to the erased state.
  std::fill_n(pages_.begin() + bs.page_base, blk.page_count(), Page{});
  const std::size_t base = static_cast<std::size_t>(bs.page_base) * spp_;
  const std::size_t n = static_cast<std::size_t>(blk.page_count()) * spp_;
  std::fill_n(sp_state_.begin() + base, n, std::uint8_t{0});
  std::fill_n(sp_owner_.begin() + base, n, std::uint32_t{0});
  std::fill_n(sp_version_.begin() + base, n, std::uint32_t{0});
  if (bs.mode == CellMode::kSlc) {
    const std::size_t sbase = slc_slot(blk.slc_ordinal_, 0, 0);
    std::fill_n(slc_wtime_.begin() + sbase, n, std::uint32_t{0});
    std::fill_n(slc_programs_before_.begin() + sbase, n, std::uint8_t{0});
    std::fill_n(slc_neighbors_before_.begin() + sbase, n, std::uint16_t{0});
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
  sink.u64(sp_state_.size());

  sink.vec(sp_state_);
  sink.vec(sp_owner_);
  sink.vec(sp_version_);
  sink.vec(slc_wtime_);
  sink.vec(slc_programs_before_);
  sink.vec(slc_neighbors_before_);

  // Page fields as three SoA rows in page-row order (block-major), so
  // restore ingests them as three bulk copies instead of a per-page
  // scalar loop over the stream.
  std::vector<std::uint8_t> pg_ops;
  std::vector<std::uint16_t> pg_neighbors;
  std::vector<std::uint8_t> pg_reprogrammed;
  pg_ops.reserve(pages_.size());
  pg_neighbors.reserve(pages_.size());
  pg_reprogrammed.reserve(pages_.size());
  for (const Page& pg : pages_) {
    pg_ops.push_back(pg.program_ops_);
    pg_neighbors.push_back(pg.neighbor_programs_);
    pg_reprogrammed.push_back(pg.reprogrammed_ ? 1 : 0);
  }
  sink.vec(pg_ops);
  sink.vec(pg_neighbors);
  sink.vec(pg_reprogrammed);

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
                      src.u64() == sp_state_.size(),
                  "warm-start checkpoint does not match device geometry");

  // In-place row reads: the arrays are already sized by the constructor
  // (the geometry check above passed), so each row is one bulk copy;
  // vec_into sticky-fails on any length mismatch.
  (void)src.vec_into(sp_state_);
  (void)src.vec_into(sp_owner_);
  (void)src.vec_into(sp_version_);
  (void)src.vec_into(slc_wtime_);
  (void)src.vec_into(slc_programs_before_);
  (void)src.vec_into(slc_neighbors_before_);
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint rows truncated");

  const std::vector<std::uint8_t> pg_ops = src.vec<std::uint8_t>();
  const std::vector<std::uint16_t> pg_neighbors = src.vec<std::uint16_t>();
  const std::vector<std::uint8_t> pg_reprogrammed = src.vec<std::uint8_t>();
  PPSSD_CHECK_MSG(src.ok() && pg_ops.size() == pages_.size() &&
                      pg_neighbors.size() == pages_.size() &&
                      pg_reprogrammed.size() == pages_.size(),
                  "warm-start checkpoint page rows truncated");
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    Page& pg = pages_[i];
    pg.program_ops_ = pg_ops[i];
    pg.neighbor_programs_ = pg_neighbors[i];
    pg.reprogrammed_ = pg_reprogrammed[i] != 0;
  }

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
