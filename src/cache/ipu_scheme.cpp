#include "cache/ipu_scheme.h"

#include <algorithm>
#include <array>
#include <vector>

#include "cache/registry.h"
#include "common/check.h"
#include "common/state_io.h"

namespace ppssd::cache {

namespace detail {
const SchemeRegistrar ipu_registrar(SchemeInfo{
    "IPU",
    "intra-page cache update with level climbing and ISR GC (the paper)",
    /*order=*/2,
    [](const SsdConfig& cfg,
       const SchemeOptions& opts) -> std::unique_ptr<Scheme> {
      auto scheme = std::make_unique<IpuScheme>(cfg);
      if (!opts.empty()) {
        scheme->set_options(IpuScheme::Options::from_scheme_options(opts));
      }
      return scheme;
    },
    [](const ftl::MappingFootprint& fp) { return fp.ipu(); },
});

// Called by SchemeRegistry::instance() to pin this translation unit (and
// with it the registrar above) into static-library consumers.
void ipu_scheme_link() {}
}  // namespace detail

SchemeOptions IpuScheme::Options::to_scheme_options() const {
  SchemeOptions opts;
  opts.set("isr", use_isr_gc ? "1" : "0");
  opts.set("lvl", use_levels ? "1" : "0");
  opts.set("ipp", use_intra_page ? "1" : "0");
  opts.set("cmb", combine_cold ? "1" : "0");
  return opts;
}

IpuScheme::Options IpuScheme::Options::from_scheme_options(
    const SchemeOptions& opts) {
  for (const auto& [key, value] : opts.entries) {
    PPSSD_CHECK_MSG(key == "isr" || key == "lvl" || key == "ipp" ||
                        key == "cmb",
                    ("unknown IPU option '" + key +
                     "'; known options: isr, lvl, ipp, cmb")
                        .c_str());
  }
  Options out;
  out.use_isr_gc = opts.flag("isr", out.use_isr_gc);
  out.use_levels = opts.flag("lvl", out.use_levels);
  out.use_intra_page = opts.flag("ipp", out.use_intra_page);
  out.combine_cold = opts.flag("cmb", out.combine_cold);
  return out;
}

IpuScheme::IpuScheme(const SsdConfig& cfg)
    : Scheme(cfg), offsets_(array_.geometry()) {}

void IpuScheme::inspect(telemetry::introspect::StateSink& sink) const {
  Scheme::inspect(sink);
  sink.value("offset_tagged_pages", offsets_.live_pages());
  sink.value("offset_table_capacity", offsets_.capacity());
  sink.value("open_cold_pages", open_page_count());
}

void IpuScheme::set_options(const Options& opts) {
  opts_ = opts;
  if (opts_.combine_cold) {
    if (!tracker_) {
      tracker_ = std::make_unique<ftl::UpdateTracker>(
          array_.geometry().logical_subpages());
    }
    open_pages_.assign(array_.geometry().planes(), OpenPage{});
  }
}

const ftl::GcPolicy& IpuScheme::slc_policy() const {
  if (opts_.use_isr_gc) return isr_;
  return greedy_;
}

void IpuScheme::on_attach_telemetry(telemetry::MetricsRegistry* registry,
                                    const telemetry::Labels& labels) {
  if (registry == nullptr) {
    tl_intra_page_ = tl_level_climbs_ = tl_cold_appends_ = nullptr;
    isr_.detach_telemetry();
    return;
  }
  isr_.attach_telemetry(*registry, labels);
  tl_intra_page_ = registry->counter("intra_page_update_subpages", labels);
  tl_level_climbs_ = registry->counter("level_climbs", labels);
  tl_cold_appends_ = registry->counter("cold_append_subpages", labels);
}

void IpuScheme::update_cached_run(Lsn lsn, std::uint32_t n, SimTime now,
                                  std::vector<PhysOp>& ops) {
  // The whole run is one batch: one update request touching one page costs
  // one program operation.
  const PhysicalAddress first = map_.lookup(lsn);
  PPSSD_CHECK(first.valid() && n > 0 && n <= subpages_per_page());

  nand::Block& blk = array_.block(first.block);
  const std::uint32_t free =
      array_.page_count_state(first.block, first.page,
                              nand::SubpageState::kFree);
  const bool fits = opts_.use_intra_page && free >= n &&
                    array_.can_partial_program(first.block, first.page);

  if (fits) {
    // Intra-page update: new versions into the page's free slots; the old
    // versions, which live in this same page, retire first, so the partial
    // program's in-page disturb lands only on dead data (Section 3.1).
    std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
    const SubpageId slot = array_.page_first_free(first.block, first.page);
    for (std::uint32_t k = 0; k < n; ++k) {
      writes[k] = {static_cast<SubpageId>(slot + k), lsn + k};
    }
    commit_page(first.block, first.page,
                std::span<const nand::SlotWrite>(writes.data(), n),
                Retire::kSupersede, {}, now, ops);
    // Pages whose valid set became non-contiguous (misaligned overlap, or
    // a combined cold page) carry no extent tag; adopt one on the first
    // in-place update, otherwise just advance the latest-version offset.
    if (offsets_.lookup(array_.geometry(), first.block, first.page)
            .extent_base == kInvalidLsn) {
      offsets_.open_page(array_.geometry(), first.block, first.page, lsn,
                         static_cast<std::uint8_t>(n), slot);
    } else {
      offsets_.update_offset(array_.geometry(), first.block, first.page,
                             slot);
    }
    metrics_.intra_page_updates += n;
    count_partial_program(n);
    if (tl_intra_page_) tl_intra_page_->inc(n);
    return;
  }

  // Upgraded movement: the data is demonstrably hot (it outgrew its page's
  // update budget), so it climbs one block level.
  BlockLevel dest = BlockLevel::kWork;
  if (opts_.use_levels) {
    const auto cur = static_cast<std::uint8_t>(blk.level());
    dest = static_cast<BlockLevel>(
        std::min<std::uint8_t>(cur + 1,
                               static_cast<std::uint8_t>(BlockLevel::kHot)));
  }
  if (tl_level_climbs_ &&
      static_cast<std::uint8_t>(dest) > static_cast<std::uint8_t>(blk.level())) {
    tl_level_climbs_->inc();
  }
  if (tlog_ && tlog_->enabled(telemetry::TraceCategory::kCache)) {
    tlog_->instant(telemetry::TraceCategory::kCache, "level_climb", now,
                   telemetry::kCacheLane,
                   {{"lsn", static_cast<double>(lsn)},
                    {"subpages", static_cast<double>(n)},
                    {"dest_level", static_cast<double>(dest)}});
  }
  // Round-robin the destination plane: hot extents would otherwise stay
  // pinned to one plane forever and unbalance the chips.
  write_fresh_page(lsn, n, dest, now, ops);
}

std::uint32_t IpuScheme::cached_batch_len(Lsn lsn, std::uint32_t max) const {
  const PhysicalAddress first = map_.lookup(lsn);
  if (!first.valid() ||
      array_.block_static(first.block).mode != CellMode::kSlc) {
    return 0;
  }
  std::uint32_t n = 1;
  while (n < max) {
    const PhysicalAddress next = map_.lookup(lsn + n);
    if (!next.valid() || next.block != first.block ||
        next.page != first.page) {
      break;
    }
    ++n;
  }
  return n;
}

void IpuScheme::place_write(Lsn lsn, std::uint32_t count, SimTime now,
                            std::vector<PhysOp>& ops) {
  if (tracker_) {
    for (std::uint32_t i = 0; i < count; ++i) {
      tracker_->record_write(lsn + i, now);
    }
  }
  std::uint32_t i = 0;
  while (i < count) {
    // Algorithm 1 resolves at request granularity: the update path is
    // taken when this request re-writes data whose previous version is
    // cached as a whole extent (a full page batch or the entire remaining
    // run). Partially overlapping writes are treated as new data — they
    // re-enter a Work page and the stale fragments are invalidated.
    const std::uint32_t remaining = count - i;
    const std::uint32_t batch = cached_batch_len(lsn + i, remaining);
    if (batch == remaining || batch == subpages_per_page()) {
      update_cached_run(lsn + i, batch, now, ops);
      i += batch;
      continue;
    }
    // Future-work extension: data seen for the first time is predicted
    // infrequently-updated and may be combined into shared Work pages.
    // (record_write above already counted this write: count == 1 means
    // never written before.)
    if (opts_.combine_cold && tracker_ &&
        tracker_->write_count(lsn + i) <= 1) {
      std::uint32_t cold_run = 1;
      while (i + cold_run < count &&
             tracker_->write_count(lsn + i + cold_run) <= 1) {
        ++cold_run;
      }
      const std::uint32_t wrote =
          append_to_open_page(lsn + i, cold_run, now, ops);
      if (wrote > 0) {
        if (tl_cold_appends_) tl_cold_appends_->inc(wrote);
        i += wrote;
        continue;
      }
      // No SLC space: fall through to the normal path's MLC fallback.
    }
    // New data (or misaligned overlap / MLC-resident): pack the run into
    // fresh Work pages, one request per page (Figure 3's W1/W2/W3).
    const std::uint32_t n = std::min(count - i, subpages_per_page());
    write_fresh_page(lsn + i, n, BlockLevel::kWork, now, ops);
    i += n;
  }
}

void IpuScheme::relocate_slc_page(const VictimPage& src, SimTime now,
                                  std::vector<PhysOp>& ops) {
  const nand::Block& blk = array_.block(src.block);

  // Degraded movement (Section 3.2 / Figure 4): updated pages keep their
  // level, never-updated pages sink one level; cold Work pages leave the
  // cache entirely.
  const bool updated = ftl::page_updated(array_.page(src.block, src.page));
  const auto cur = static_cast<std::uint8_t>(blk.level());
  BlockLevel dest;
  if (!opts_.use_levels) {
    dest = updated ? BlockLevel::kWork : BlockLevel::kHighDensity;
  } else {
    dest = updated ? blk.level() : static_cast<BlockLevel>(cur - 1);
  }
  if (dest != BlockLevel::kHighDensity) {
    // The live data packs into the fresh page's leading slots.
    std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes = src.live;
    for (std::uint32_t i = 0; i < src.count; ++i) {
      writes[i].slot = static_cast<SubpageId>(i);
    }
    if (program_new_slc_page(
            array_.block_static(src.block).plane, dest,
            std::span<const nand::SlotWrite>(writes.data(), src.count),
            src.sources(), now, ops)) {
      return;
    }
    // No SLC destination: fall back to ejecting the page's data.
  }
  evict_page_to_mlc(src, now, ops);
}

void IpuScheme::on_slc_block_erased(BlockId block) {
  offsets_.clear_block(array_.geometry(), block);
}

void IpuScheme::on_slc_page_programmed(
    BlockId block, PageId page, std::span<const nand::SlotWrite> writes) {
  // Combined cold pages (and GC moves of them) can carry non-contiguous
  // LSNs; those pages need per-slot mapping entries, not an extent tag.
  for (std::size_t i = 1; i < writes.size(); ++i) {
    if (writes[i].lsn != writes[i - 1].lsn + 1) return;
  }
  offsets_.open_page(array_.geometry(), block, page, writes.front().lsn,
                     static_cast<std::uint8_t>(writes.size()), /*offset=*/0);
}

void IpuScheme::save_scheme_state(io::StateSink& sink) const {
  offsets_.save(sink);
  sink.boolean(tracker_ != nullptr);
  if (tracker_) tracker_->save(sink);
  save_open_pages(sink);
}

void IpuScheme::restore_scheme_state(io::StateSource& src) {
  offsets_.restore(src);
  // Options (and with them the tracker's existence) are config-derived and
  // applied before restore; the checkpoint key pins them, so a mismatch
  // here is a programming error, not data corruption.
  const bool has_tracker = src.boolean();
  PPSSD_CHECK_MSG(has_tracker == (tracker_ != nullptr),
                  "warm-start checkpoint disagrees on combine_cold tracker");
  if (tracker_) tracker_->restore(src);
  restore_open_pages(src);
}

}  // namespace ppssd::cache
