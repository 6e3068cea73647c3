#include "cache/scheme.h"

#include <algorithm>
#include <array>
#include <utility>
#include <vector>

#include "cache/registry.h"
#include "common/check.h"
#include "common/state_io.h"
#include "nand/page.h"

namespace ppssd::cache {

namespace {
/// Bound on GC passes triggered by a single host request, so one request
/// cannot stall forever on a pathological cache state (incremental GC).
constexpr std::uint32_t kMaxGcPassesPerRequest = 1;
/// Largest run of a host write placed before the GC loop runs again
/// (2 MiB). A request larger than the free reserve would otherwise drain
/// it before any GC pass, and GC itself would find no destination. Well
/// above the synthetic traces' largest request (64 subpages), so those
/// place in one chunk.
constexpr std::uint32_t kPlacementChunkSubpages = 512;
}  // namespace

Scheme::Scheme(const SsdConfig& cfg)
    : cfg_(cfg),
      array_(cfg),
      bm_(array_),
      map_(array_.geometry().logical_subpages(),
           cfg.geometry.slot_block_bits(), cfg.geometry.slot_page_bits(),
           cfg.geometry.slot_subpage_bits()),
      ber_model_(cfg.ber),
      ecc_model_(cfg.ecc),
      spp_(cfg.geometry.subpages_per_page()) {}

void Scheme::attach_telemetry(telemetry::Telemetry* telemetry) {
  if (telemetry == nullptr) {
    tlog_ = nullptr;
    tl_writes_hit_ = tl_writes_miss_ = tl_partial_programs_ = nullptr;
    tl_evicted_ = tl_gc_moved_ = tl_direct_mlc_ = nullptr;
    tl_reads_slc_ = tl_reads_mlc_ = tl_reads_unmapped_ = nullptr;
    tl_gc_slc_ = tl_gc_mlc_ = nullptr;
    tl_read_ber_ = tl_victim_util_ = nullptr;
    bm_.detach_telemetry();
    greedy_.detach_telemetry();
    on_attach_telemetry(nullptr, {});
    return;
  }
  auto& reg = telemetry->registry();
  tlog_ = telemetry->trace();
  const telemetry::Labels labels{{"scheme", name()}};
  const auto with = [&labels](const char* key, const char* value) {
    telemetry::Labels l = labels;
    l.push_back({key, value});
    return l;
  };
  tl_writes_hit_ = reg.counter("cache_writes", with("result", "hit"));
  tl_writes_miss_ = reg.counter("cache_writes", with("result", "miss"));
  tl_partial_programs_ = reg.counter("partial_program_subpages", labels);
  tl_evicted_ = reg.counter("evicted_subpages", labels);
  tl_gc_moved_ = reg.counter("gc_moved_subpages", labels);
  tl_direct_mlc_ = reg.counter("direct_mlc_subpages", labels);
  tl_reads_slc_ = reg.counter("host_reads", with("region", "slc"));
  tl_reads_mlc_ = reg.counter("host_reads", with("region", "mlc"));
  tl_reads_unmapped_ = reg.counter("host_reads", with("region", "unmapped"));
  tl_gc_slc_ = reg.counter("gc_episodes", with("region", "slc"));
  tl_gc_mlc_ = reg.counter("gc_episodes", with("region", "mlc"));
  tl_read_ber_ = reg.histogram("host_read_ber", labels, 1e-9, 1.0);
  // Victim utilisation lives in [0, 1]; headroom keeps 1.0 in-range.
  tl_victim_util_ = reg.histogram("gc_victim_utilization", labels, 1e-3, 2.0);
  reg.gauge_fn("write_amplification", labels, [this] {
    const auto host = metrics_.host_subpages_written;
    if (host == 0) return 1.0;
    return static_cast<double>(metrics_.slc_subpages_written +
                               metrics_.mlc_subpages_written) /
           static_cast<double>(host);
  });
  bm_.attach_telemetry(reg, labels);
  greedy_.attach_telemetry(reg, labels);
  on_attach_telemetry(&reg, labels);
}

std::uint32_t Scheme::next_plane() {
  const std::uint32_t p = rr_plane_;
  rr_plane_ = (rr_plane_ + 1) % array_.geometry().planes();
  return p;
}

double Scheme::ber_of(const PhysicalAddress& addr) const {
  return ber_model_.raw_ber(
      array_.disturb_of(addr.block, addr.page, addr.subpage));
}

PhysOp& Scheme::emit_op(PhysOp::Kind kind, BlockId block,
                       std::uint32_t subpages, bool background,
                       std::vector<PhysOp>& ops) {
  const nand::BlockStatic& bs = array_.block_static(block);
  PhysOp& op = ops.emplace_back();
  op.chip = bs.chip;
  op.channel = bs.channel;
  op.kind = kind;
  op.mode = bs.mode;
  op.subpages = subpages;
  op.background = background;
  op.origin = background ? OpOrigin::kGc : fg_origin_;
  return op;
}

void Scheme::emit_page_read(BlockId block, std::uint32_t subpages,
                            double max_ber, bool background,
                            std::vector<PhysOp>& ops) {
  emit_op(PhysOp::Kind::kRead, block, subpages, background, ops).ber = max_ber;
  array_.count_read(block);
}

// ---- invalidation ----------------------------------------------------------

std::uint32_t Scheme::retire_slot(Lsn lsn, const PhysicalAddress& addr) {
  array_.invalidate(addr.block, addr.page, addr.subpage);
  const std::uint32_t version = map_.clear(lsn);
  if (array_.block_static(addr.block).mode == CellMode::kSlc) {
    on_slc_slot_invalidated(addr);
  }
  return version;
}

std::uint32_t Scheme::invalidate_previous(Lsn lsn) {
  // Fused supersede: one mapping-table access resolves and unbinds the
  // old slot and yields its version, then the fused array invalidate does
  // the single page lookup + bucket move (no per-layer re-resolution).
  const ftl::DeviceMap::Mapping old = map_.take(lsn);
  if (!old.addr.valid()) return 0;
  array_.invalidate(old.addr.block, old.addr.page, old.addr.subpage);
  if (array_.block_static(old.addr.block).mode == CellMode::kSlc) {
    on_slc_slot_invalidated(old.addr);
  }
  return old.version;
}

// ---- the page commit and the placement helpers built on it -----------------

void Scheme::commit_page(BlockId block, PageId page,
                         std::span<const nand::SlotWrite> writes,
                         Retire retire, std::span<const PhysicalAddress> from,
                         SimTime now, std::vector<PhysOp>& ops,
                         PhysOp::Kind kind,
                         std::span<const std::uint32_t> staged_versions) {
  PPSSD_CHECK(!writes.empty() && writes.size() <= spp_);
  PPSSD_DCHECK(retire == Retire::kSource ? from.size() == writes.size()
                                         : from.empty());
  PPSSD_DCHECK(retire == Retire::kNone
                   ? staged_versions.size() == writes.size()
                   : staged_versions.empty());
  // Every old copy retires before the program, so each map transition is
  // a clean clear + set. A host write's version follows the one it
  // supersedes; a relocation keeps the one its source retires with.
  std::array<std::uint32_t, nand::kMaxSubpagesPerPage> versions;
  for (std::size_t i = 0; i < writes.size(); ++i) {
    switch (retire) {
      case Retire::kSupersede:
        versions[i] = invalidate_previous(writes[i].lsn) + 1;
        break;
      case Retire::kSource:
        versions[i] = retire_slot(writes[i].lsn, from[i]);
        break;
      case Retire::kNone:
        versions[i] = staged_versions[i];
        break;
    }
  }
  if (kind == PhysOp::Kind::kReprogram) {
    array_.reprogram(from[0].block, from[0].page, block, page, writes, now);
  } else {
    array_.program(block, page, writes, now);
  }
  for (std::size_t i = 0; i < writes.size(); ++i) {
    map_.set(writes[i].lsn, PhysicalAddress{block, page, writes[i].slot},
             versions[i]);
  }

  const auto n = static_cast<std::uint32_t>(writes.size());
  const bool slc = array_.block_static(block).mode == CellMode::kSlc;
  const bool background = retire != Retire::kSupersede;
  (slc ? metrics_.slc_subpages_written : metrics_.mlc_subpages_written) += n;
  if (!background) {
    metrics_.host_subpages_written += n;
    if (slc) {
      metrics_.level_subpages[static_cast<std::size_t>(
          array_.block(block).level())] += n;
    }
  } else if (slc) {
    metrics_.gc_moved_subpages += n;
    if (tl_gc_moved_) tl_gc_moved_->inc(n);
  }
  PhysOp& op = emit_op(kind, block, n, background, ops);
  // Relocation programs consume data produced by a GC page read earlier
  // in this request; host programs and the in-place switch do not.
  if (background && kind == PhysOp::Kind::kProgram) {
    op.depends_on = gc_read_dep_;
  }
}

std::optional<ftl::PageAlloc> Scheme::program_new_slc_page(
    std::uint32_t plane, BlockLevel level,
    std::span<const nand::SlotWrite> writes,
    std::span<const PhysicalAddress> from, SimTime now,
    std::vector<PhysOp>& ops) {
  const auto alloc = bm_.allocate_page(plane, level);
  if (!alloc) return std::nullopt;
  commit_page(alloc->block, alloc->page, writes,
              from.empty() ? Retire::kSupersede : Retire::kSource, from, now,
              ops);
  on_slc_page_programmed(alloc->block, alloc->page, writes);
  return alloc;
}

ftl::PageAlloc Scheme::allocate_dense_page(std::uint32_t plane, SimTime now,
                                           std::vector<PhysOp>& ops) {
  std::optional<ftl::PageAlloc> alloc;
  for (std::uint32_t attempt = 0; attempt < array_.geometry().planes();
       ++attempt) {
    maybe_mlc_gc(plane, now, ops);
    alloc = bm_.allocate_page(plane, BlockLevel::kHighDensity);
    if (alloc) break;
    plane = next_plane();
  }
  PPSSD_CHECK_MSG(alloc.has_value(), "MLC region exhausted beyond recovery");
  return *alloc;
}

void Scheme::program_mlc_page(std::span<const nand::SlotWrite> writes,
                              std::span<const std::uint32_t> staged_versions,
                              SimTime now, std::vector<PhysOp>& ops,
                              std::uint32_t plane_hint) {
  // GC evictions stay plane-local (SSDsim-style copy out of the victim's
  // plane); host-path MLC writes stripe round-robin.
  const ftl::PageAlloc alloc = allocate_dense_page(
      plane_hint != UINT32_MAX ? plane_hint : next_plane(), now, ops);
  commit_page(alloc.block, alloc.page, writes,
              staged_versions.empty() ? Retire::kSupersede : Retire::kNone,
              {}, now, ops, PhysOp::Kind::kProgram, staged_versions);
}

void Scheme::evict_page_to_mlc(const VictimPage& src, SimTime now,
                               std::vector<PhysOp>& ops) {
  // Stage and retire the page's live data, keeping each version the map
  // gives up; the staged buffer flushes into packed MLC pages at the end
  // of the GC pass.
  for (std::uint32_t i = 0; i < src.count; ++i) {
    const nand::SlotWrite& w = src.live[i];
    staged_evictions_.push_back(
        {static_cast<SubpageId>(staged_evictions_.size() % spp_), w.lsn});
    staged_versions_.push_back(retire_slot(w.lsn, src.from[i]));
  }
  if (staged_evictions_.size() >= 4 * spp_) {
    flush_evictions(array_.block_static(src.block).plane, now, ops);
  }
}

void Scheme::flush_evictions(std::uint32_t plane, SimTime now,
                             std::vector<PhysOp>& ops) {
  const std::span<const nand::SlotWrite> staged(staged_evictions_);
  const std::span<const std::uint32_t> versions(staged_versions_);
  for (std::size_t i = 0; i < staged.size(); i += spp_) {
    const std::size_t n = std::min<std::size_t>(spp_, staged.size() - i);
    program_mlc_page(staged.subspan(i, n), versions.subspan(i, n), now, ops,
                     plane);
    count_evicted(static_cast<std::uint32_t>(n));
  }
  if (!staged.empty() && tlog_ &&
      tlog_->enabled(telemetry::TraceCategory::kMode)) {
    tlog_->instant(telemetry::TraceCategory::kMode, "evict_slc_to_mlc", now,
                   telemetry::kCacheLane,
                   {{"subpages", static_cast<double>(staged.size())},
                    {"plane", static_cast<double>(plane)}});
  }
  staged_evictions_.clear();
  staged_versions_.clear();
}

void Scheme::write_fresh_page(Lsn lsn, std::uint32_t n, BlockLevel level,
                              SimTime now, std::vector<PhysOp>& ops) {
  PPSSD_DCHECK(n > 0 && n <= spp_);
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  for (std::uint32_t k = 0; k < n; ++k) {
    writes[k] = {static_cast<SubpageId>(k), lsn + k};
  }
  if (!program_new_slc_page(next_plane(), level,
                            std::span<const nand::SlotWrite>(writes.data(), n),
                            {}, now, ops)) {
    // SLC region exhausted even for Work blocks: write through to MLC.
    direct_mlc_write(lsn, n, now, ops);
  }
}

void Scheme::place_write(Lsn lsn, std::uint32_t count, SimTime now,
                         std::vector<PhysOp>& ops) {
  for (std::uint32_t i = 0; i < count;) {
    const std::uint32_t n = std::min(count - i, spp_);
    write_fresh_page(lsn + i, n, BlockLevel::kWork, now, ops);
    i += n;
  }
}

void Scheme::direct_mlc_write(Lsn lsn, std::uint32_t count, SimTime now,
                              std::vector<PhysOp>& ops) {
  if (tl_direct_mlc_) tl_direct_mlc_->inc(count);
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  for (std::uint32_t i = 0; i < count;) {
    std::uint32_t n = 0;
    for (; i < count && n < spp_; ++n, ++i) {
      writes[n] = {static_cast<SubpageId>(n), lsn + i};
    }
    program_mlc_page(std::span<const nand::SlotWrite>(writes.data(), n), {},
                     now, ops);
  }
}

std::uint32_t Scheme::append_to_open_page(Lsn lsn, std::uint32_t max,
                                          SimTime now,
                                          std::vector<PhysOp>& ops) {
  const std::uint32_t plane = next_plane();
  OpenPage& open = open_pages_[plane];
  // Re-open when the current page can take no more programs.
  if (open.valid() && array_.page(open.block, open.page).programmed() &&
      !array_.can_partial_program(open.block, open.page)) {
    open = OpenPage{};
  }
  if (!open.valid()) {
    const auto alloc = bm_.allocate_page(plane, BlockLevel::kWork);
    if (!alloc) return 0;
    open = OpenPage{alloc->block, alloc->page};
  }

  const bool partial = array_.page(open.block, open.page).programmed();
  const std::uint32_t free =
      array_.page_count_state(open.block, open.page, nand::SubpageState::kFree);
  PPSSD_CHECK(free > 0);
  const std::uint32_t n = std::min(max, free);
  // The free slots are a suffix: slots are consumed in order and
  // invalidation never frees them.
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> writes;
  const SubpageId first = array_.page_first_free(open.block, open.page);
  for (std::uint32_t k = 0; k < n; ++k) {
    writes[k] = {static_cast<SubpageId>(first + k), lsn + k};
  }
  commit_page(open.block, open.page,
              std::span<const nand::SlotWrite>(writes.data(), n),
              Retire::kSupersede, {}, now, ops);
  if (partial) count_partial_program(n);
  return n;
}

std::uint64_t Scheme::open_page_count() const {
  return static_cast<std::uint64_t>(
      std::count_if(open_pages_.begin(), open_pages_.end(),
                    [](const OpenPage& p) { return p.valid(); }));
}

void Scheme::save_open_pages(io::StateSink& sink) const {
  // Field-wise: OpenPage has two padding bytes after `page`, which a raw
  // copy would leak into the checkpoint.
  sink.u64(open_pages_.size());
  for (const OpenPage& p : open_pages_) {
    sink.u32(p.block);
    sink.u16(p.page);
    sink.u16(0);
  }
}

void Scheme::restore_open_pages(io::StateSource& src) {
  const std::uint64_t planes = src.u64();
  PPSSD_CHECK_MSG(src.ok() && planes == open_pages_.size(),
                  "warm-start checkpoint does not match open-page shape");
  std::vector<OpenPage> open(open_pages_.size());
  for (OpenPage& p : open) {
    p.block = src.u32();
    p.page = src.u16();
    (void)src.u16();  // padding
  }
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint truncated");
  open_pages_ = std::move(open);
}

std::uint64_t Scheme::prefill_mlc(std::uint64_t max_subpages,
                                  std::uint32_t free_floor_blocks) {
  const auto& geom = array_.geometry();
  PPSSD_CHECK_MSG(map_.mapped_count() == 0,
                  "MLC prefill needs a never-written device");
  max_subpages = std::min(max_subpages, geom.logical_subpages());
  const std::uint32_t planes = geom.planes();
  const std::uint32_t free = bm_.free_blocks(0, CellMode::kMlc);
  for (std::uint32_t q = 1; q < planes; ++q) {
    PPSSD_CHECK_MSG(bm_.free_blocks(q, CellMode::kMlc) == free,
                    "MLC prefill needs equal free MLC blocks on every plane");
  }

  // Round-robin placement (DESIGN.md §10, "Bulk prefill"): logical page g
  // is page ⌊g/P⌋ of plane (r0 + g) mod P, and a plane takes pages while
  // it has more than `free_floor_blocks` free blocks — (F - floor - 1)·B
  // + 1 of them, the last one opening a block.
  const std::uint32_t per_block = geom.pages_per_block(CellMode::kMlc);
  std::uint64_t plane_cap = 0;
  if (free > free_floor_blocks) {
    plane_cap =
        static_cast<std::uint64_t>(free - free_floor_blocks - 1) * per_block +
        1;
  }
  const std::uint64_t wanted = (max_subpages + spp_ - 1) / spp_;
  const std::uint64_t pages = std::min(wanted, plane_cap * planes);
  const std::uint32_t r0 = rr_plane_;
  // The page-at-a-time fill ends by polling every plane once more (one
  // pick plus P retries) when the floor, not `max_subpages`, stops it.
  rr_plane_ = static_cast<std::uint32_t>(
      (r0 + pages + (wanted > pages ? 1 + planes : 0)) % planes);
  if (pages == 0) {
    reset_metrics();
    return 0;
  }
  const std::uint64_t filled = std::min(max_subpages, pages * spp_);
  const auto tail_slots =
      static_cast<std::uint32_t>(filled - (pages - 1) * spp_);
  const std::uint64_t stride = static_cast<std::uint64_t>(planes) * spp_;

  // Pass A, block-major: each plane opens its blocks in allocation order
  // and each block is filled front to back in one sweep.
  const std::uint64_t plane_pages_max = (pages + planes - 1) / planes;
  const std::uint64_t plane_blocks =
      (plane_pages_max + per_block - 1) / per_block;
  std::vector<BlockId> opened(planes * plane_blocks, kInvalidBlock);
  for (std::uint32_t i = 0; i < planes && i < pages; ++i) {
    const std::uint32_t q = (r0 + i) % planes;
    const std::uint64_t plane_pages = (pages - 1 - i) / planes + 1;
    for (std::uint64_t k = 0; k * per_block < plane_pages; ++k) {
      const auto alloc = bm_.allocate_page(q, BlockLevel::kHighDensity);
      PPSSD_CHECK(alloc.has_value() && alloc->page == 0);
      opened[q * plane_blocks + k] = alloc->block;
      const std::uint64_t first_page = k * per_block;
      const auto n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(per_block, plane_pages - first_page));
      const bool last = first_page + n == plane_pages &&
                        (pages - 1) % planes == i;
      array_.prefill_block(alloc->block, n,
                           (first_page * planes + i) * spp_, stride,
                           last ? tail_slots : spp_);
    }
  }

  // Pass B, LSN order: page g = j·P + i of the fill holds LSNs
  // [g·spp, g·spp + spp) on page j of plane (r0 + i) mod P, each at
  // version 1, written as one map run per page.
  Lsn lsn = 0;
  for (std::uint64_t j = 0; lsn < filled; ++j) {
    const auto p = static_cast<PageId>(j % per_block);
    const std::uint64_t k = j / per_block;
    std::uint32_t q = r0;
    for (std::uint32_t i = 0; i < planes && lsn < filled; ++i) {
      const std::uint32_t n = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(spp_, filled - lsn));
      map_.set_run(lsn, opened[q * plane_blocks + k], p, n, 1);
      lsn += n;
      if (++q == planes) q = 0;
    }
  }
  reset_metrics();
  return filled;
}

// ---- garbage collection -----------------------------------------------------

void Scheme::maybe_slc_gc(std::uint32_t plane, SimTime now,
                          std::vector<PhysOp>& ops) {
  for (std::uint32_t pass = 0;
       pass < kMaxGcPassesPerRequest && bm_.needs_gc(plane, CellMode::kSlc);
       ++pass) {
    if (!slc_gc_once(plane, now, ops)) break;
  }
}

void Scheme::maybe_mlc_gc(std::uint32_t plane, SimTime now,
                          std::vector<PhysOp>& ops) {
  // Write-amplification guard: defer MLC GC until a victim reclaims a
  // worthwhile share of a block. The bar lowers as free space shrinks so
  // the region degrades gracefully instead of hitting a reclamation cliff.
  const std::uint32_t total_subpages =
      array_.geometry().pages_per_block(CellMode::kMlc) * spp_;
  const std::uint32_t free = bm_.free_blocks(plane, CellMode::kMlc);
  const std::uint32_t threshold = bm_.gc_threshold_blocks(CellMode::kMlc);
  std::uint32_t min_invalid = total_subpages / 4;
  if (free < threshold) {
    min_invalid = std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(
               static_cast<std::uint64_t>(min_invalid) * free / threshold));
  }
  for (std::uint32_t pass = 0;
       pass < kMaxGcPassesPerRequest && bm_.needs_gc(plane, CellMode::kMlc);
       ++pass) {
    // The victim index's watermark is the invalid count of the block greedy
    // selection would pick, so a deferred pass is known without selecting.
    // Tally it exactly as the skipped selection would have.
    const std::uint32_t watermark = bm_.max_invalid(plane, CellMode::kMlc);
    if (watermark < min_invalid) {
      greedy_.count_selection(watermark != 0);
      break;
    }
    if (!mlc_gc_once(plane, now, ops)) break;
  }
}

bool Scheme::slc_gc_once(std::uint32_t plane, SimTime now,
                         std::vector<PhysOp>& ops) {
  BlockId victim =
      slc_policy().select_victim(array_, bm_, plane, CellMode::kSlc, now);
  if (victim == kInvalidBlock) {
    // The cache may be full of entirely-valid data (a pure cold flood):
    // no policy victim exists, but the cache must still drain. Fall back
    // to the block holding the oldest data (FIFO-ish eviction).
    double oldest = -1.0;
    bm_.for_each_candidate(plane, CellMode::kSlc, [&](BlockId b) {
      const auto& blk = array_.block(b);
      if (blk.programmed_subpages() == 0) return;
      const auto [sum, count] = ftl::IsrPolicy::age_sum(blk, now);
      const double age = count ? sum / static_cast<double>(count) : 0.0;
      if (age > oldest) {
        oldest = age;
        victim = b;
      }
    });
    if (victim == kInvalidBlock) return false;
  }
  if (gc_decision_hook_) {
    gc_decision_hook_(plane, CellMode::kSlc, victim, now);
  }

  nand::Block& blk = array_.block(victim);
  ++metrics_.slc_gc_count;
  const double util = static_cast<double>(blk.programmed_subpages()) /
                      blk.total_subpages();
  metrics_.gc_utilization.add(util);
  if (tl_gc_slc_) {
    tl_gc_slc_->inc();
    tl_victim_util_->observe(util);
  }
  if (tlog_ && tlog_->enabled(telemetry::TraceCategory::kGc)) {
    tlog_->instant(telemetry::TraceCategory::kGc, "slc_gc", now,
                   telemetry::kGcLane,
                   {{"victim", static_cast<double>(victim)},
                    {"plane", static_cast<double>(plane)},
                    {"utilization", util},
                    {"valid", static_cast<double>(blk.valid_subpages())}});
  }

  const std::size_t victim_ops_start = ops.size();
  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    const VictimPage src = scan_victim_page(victim, static_cast<PageId>(p));
    if (src.count == 0) continue;
    if (relocation_reads_source()) {
      emit_page_read(victim, src.count, src.max_ber, /*background=*/true,
                     ops);
      gc_read_dep_ = static_cast<std::uint32_t>(ops.size() - 1);
    }
    relocate_slc_page(src, now, ops);
    PPSSD_DCHECK_MSG(array_.page_count_state(victim, src.page,
                                             nand::SubpageState::kValid) == 0,
                     "relocate_slc_page left valid data behind");
  }
  flush_evictions(array_.block_static(victim).plane, now, ops);
  gc_read_dep_ = PhysOp::kNoDependency;

  erase_victim(victim, victim_ops_start, now, ops);
  for (OpenPage& open : open_pages_) {
    if (open.block == victim) open = OpenPage{};
  }
  on_slc_block_erased(victim);
  return true;
}

bool Scheme::mlc_gc_once(std::uint32_t plane, SimTime now,
                         std::vector<PhysOp>& ops) {
  const BlockId victim =
      greedy_.select_victim(array_, bm_, plane, CellMode::kMlc, now);
  if (victim == kInvalidBlock) return false;

  nand::Block& blk = array_.block(victim);
  PPSSD_DCHECK_MSG(blk.invalid_subpages() == bm_.max_invalid(plane,
                                                             CellMode::kMlc),
                   "victim-index watermark disagrees with the greedy victim");
  if (gc_decision_hook_) {
    gc_decision_hook_(plane, CellMode::kMlc, victim, now);
  }
  ++metrics_.mlc_gc_count;
  if (tl_gc_mlc_) tl_gc_mlc_->inc();
  if (tlog_ && tlog_->enabled(telemetry::TraceCategory::kGc)) {
    tlog_->instant(telemetry::TraceCategory::kGc, "mlc_gc", now,
                   telemetry::kGcLane,
                   {{"victim", static_cast<double>(victim)},
                    {"plane", static_cast<double>(plane)},
                    {"invalid", static_cast<double>(blk.invalid_subpages())},
                    {"valid", static_cast<double>(blk.valid_subpages())}});
  }

  // MLC GC can run nested inside SLC victim processing (an eviction flush
  // below the free threshold triggers it); keep the outer read dependency
  // intact for the ops emitted after this pass returns.
  const std::uint32_t outer_read_dep = gc_read_dep_;
  const std::size_t victim_ops_start = ops.size();

  // Pack the victim's valid subpages into fresh MLC pages of the same
  // plane: one read per source page, one program per packed destination.
  std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> pack;
  std::array<PhysicalAddress, nand::kMaxSubpagesPerPage> pack_from;
  std::uint32_t packed = 0;
  const auto flush_pack = [&] {
    if (packed == 0) return;
    const auto alloc = bm_.allocate_page(plane, BlockLevel::kHighDensity);
    PPSSD_CHECK_MSG(alloc.has_value(),
                    "no MLC destination during GC (threshold too low)");
    commit_page(alloc->block, alloc->page,
                std::span<const nand::SlotWrite>(pack.data(), packed),
                Retire::kSource,
                std::span<const PhysicalAddress>(pack_from.data(), packed),
                now, ops);
    packed = 0;
  };

  for (std::uint32_t p = 0; p < blk.write_frontier(); ++p) {
    const VictimPage src = scan_victim_page(victim, static_cast<PageId>(p));
    if (src.count == 0) continue;
    emit_page_read(victim, src.count, src.max_ber, /*background=*/true, ops);
    gc_read_dep_ = static_cast<std::uint32_t>(ops.size() - 1);
    for (std::uint32_t i = 0; i < src.count; ++i) {
      pack[packed] = {static_cast<SubpageId>(packed), src.live[i].lsn};
      pack_from[packed++] = src.from[i];
      if (packed == spp_) flush_pack();
    }
  }
  flush_pack();

  erase_victim(victim, victim_ops_start, now, ops);
  gc_read_dep_ = outer_read_dep;
  return true;
}

Scheme::VictimPage Scheme::scan_victim_page(BlockId block,
                                            PageId page) const {
  VictimPage src;
  src.block = block;
  src.page = page;
  for (std::uint32_t s = 0; s < spp_; ++s) {
    const PhysicalAddress addr{block, page, static_cast<SubpageId>(s)};
    if (array_.subpage_state(block, page, addr.subpage) !=
        nand::SubpageState::kValid) {
      continue;
    }
    const nand::Subpage sp = array_.subpage(block, page, addr.subpage);
    src.live[src.count] = {addr.subpage, sp.owner_lsn};
    src.from[src.count++] = addr;
    src.max_ber = std::max(src.max_ber, ber_of(addr));
  }
  return src;
}

void Scheme::erase_victim(BlockId victim, std::size_t pass_ops_start,
                          SimTime now, std::vector<PhysOp>& ops) {
  // The victim may be erased only after its valid data has been rewritten
  // elsewhere: chain the erase behind the last relocation op.
  emit_op(PhysOp::Kind::kErase, victim, 0, /*background=*/true, ops);
  if (ops.size() - 1 > pass_ops_start) {
    ops.back().depends_on = static_cast<std::uint32_t>(ops.size() - 2);
  }
  array_.erase(victim, now);
  bm_.release_block(victim);
}

// ---- host entry points -------------------------------------------------------

void Scheme::host_write(Lsn lsn, std::uint32_t count, SimTime now,
                        std::vector<PhysOp>& ops) {
  PPSSD_CHECK(count > 0);
  PPSSD_CHECK(lsn + count <= array_.geometry().logical_subpages());
  if (tl_writes_hit_) {
    // Cache hit = this write supersedes data currently held in SLC.
    std::uint64_t hits = 0;
    for (std::uint32_t i = 0; i < count; ++i) {
      if (cached_in_slc(lsn + i)) ++hits;
    }
    tl_writes_hit_->inc(hits);
    tl_writes_miss_->inc(count - hits);
  }
  // Algorithm 1: insert, then collect where thresholds are crossed, once
  // per placement chunk. The pressure bitmask makes this iterate-set-bits
  // instead of an all-planes scan; re-reading the mask after each plane's
  // GC keeps the semantics of the original ascending scan (a pass can flip
  // later planes' bits, and needs_gc is re-checked per region at visit
  // time exactly as before).
  for (std::uint32_t done = 0; done < count;) {
    const std::uint32_t n = std::min(count - done, kPlacementChunkSubpages);
    place_write(lsn + done, n, now, ops);
    done += n;
    for (std::uint32_t p = bm_.next_pressured_plane(0);
         p != ftl::BlockManager::kNoPlane;
         p = bm_.next_pressured_plane(p + 1)) {
      if (bm_.needs_gc(p, CellMode::kSlc)) maybe_slc_gc(p, now, ops);
      if (bm_.needs_gc(p, CellMode::kMlc)) maybe_mlc_gc(p, now, ops);
    }
  }
}

void Scheme::host_read(Lsn lsn, std::uint32_t count, SimTime now,
                       std::vector<PhysOp>& ops) {
  PPSSD_CHECK(count > 0);
  PPSSD_CHECK(lsn + count <= array_.geometry().logical_subpages());
  (void)now;

  // One pass in LSN order: price each subpage as it resolves, and
  // coalesce consecutive hits on the same physical page into one page
  // read, emitted when the run ends. An unmapped subpage ends a run.
  BlockId run_block = kInvalidBlock;
  PageId run_page = 0;
  std::uint32_t run_len = 0;
  double run_ber = 0.0;
  const auto end_run = [&] {
    if (run_len == 0) return;
    emit_page_read(run_block, run_len, run_ber, /*background=*/false, ops);
    run_len = 0;
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    const PhysicalAddress addr = map_.lookup(lsn + i);
    if (!addr.valid()) {
      // Never written: the FTL answers from the mapping table (zero-fill)
      // without touching flash — no op, no error exposure.
      end_run();
      ++metrics_.host_reads_unmapped;
      if (tl_reads_unmapped_) tl_reads_unmapped_->inc();
      continue;
    }
    const double ber = ber_of(addr);
    metrics_.read_ber.add(ber);
    if (tl_read_ber_) tl_read_ber_->observe(ber);
    if (array_.block_static(addr.block).mode == CellMode::kSlc) {
      ++metrics_.host_reads_slc;
      if (tl_reads_slc_) tl_reads_slc_->inc();
    } else {
      ++metrics_.host_reads_mlc;
      if (tl_reads_mlc_) tl_reads_mlc_->inc();
    }
    if (run_len > 0 && addr.block == run_block && addr.page == run_page) {
      run_ber = std::max(run_ber, ber);
      ++run_len;
      continue;
    }
    end_run();
    run_block = addr.block;
    run_page = addr.page;
    run_len = 1;
    run_ber = ber;
  }
  end_run();
}

// ---- introspection ------------------------------------------------------------

void Scheme::inspect(telemetry::introspect::StateSink& sink) const {
  sink.value("mapped_lsns", map_.mapped_count());
  sink.value("logical_subpages", map_.logical_subpages());
  const nand::Geometry& geom = array_.geometry();
  std::uint64_t slc_valid = 0;
  for (std::uint32_t i = 0; i < geom.slc_block_count(); ++i) {
    slc_valid += array_.block(geom.slc_block_at(i)).valid_subpages();
  }
  sink.value("slc_cached_subpages", slc_valid);
  sink.value("staged_evictions",
             static_cast<std::uint64_t>(staged_evictions_.size()));
}

// ---- warm-start checkpointing -------------------------------------------------

void Scheme::save(io::StateSink& sink) const {
  PPSSD_CHECK_MSG(staged_evictions_.empty(),
                  "checkpointing with staged evictions in flight");
  PPSSD_CHECK_MSG(gc_read_dep_ == PhysOp::kNoDependency,
                  "checkpointing inside GC victim processing");
  array_.save(sink);
  bm_.save(sink);
  map_.save(sink);
  sink.u32(rr_plane_);
  save_scheme_state(sink);
}

void Scheme::restore(io::StateSource& src) {
  // Order matters: the block manager's victim-index rebuild reads invalid
  // counts out of the restored array.
  array_.restore(src);
  bm_.restore(src);
  const nand::Geometry& geom = array_.geometry();
  std::vector<std::uint32_t> block_pages(geom.total_blocks());
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    block_pages[b] = geom.pages_per_block(geom.is_slc_block(b) ? CellMode::kSlc
                                                               : CellMode::kMlc);
  }
  map_.restore(src, block_pages, spp_);
  const std::uint32_t rr = src.u32();
  PPSSD_CHECK_MSG(src.ok(), "warm-start checkpoint truncated");
  rr_plane_ = rr;
  restore_scheme_state(src);
}

// ---- footprint & invariants ---------------------------------------------------

ftl::FootprintReport Scheme::footprint() const {
  const ftl::MappingFootprint fp(array_.geometry());
  return SchemeRegistry::instance().resolve(name()).footprint(fp);
}

void Scheme::check_consistency() const {
  const auto& geom = array_.geometry();

  // Physical walk: every valid subpage is the current mapping of its
  // owner, and the counters match.
  std::uint64_t valid_total = 0;
  for (BlockId b = 0; b < geom.total_blocks(); ++b) {
    const auto& blk = array_.block(b);
    std::uint32_t recount_valid = 0;
    std::uint32_t recount_invalid = 0;
    std::uint64_t recount_wt_sum = 0;
    // Only SLC-mode blocks keep an age histogram (ISR is the SLC policy;
    // MLC GC is greedy and reads invalid counts only).
    const nand::AgeHistogram* hist = array_.age_histogram(b);
    PPSSD_CHECK_MSG((hist != nullptr) == (blk.mode() == CellMode::kSlc),
                    "age histogram present on an MLC block or missing on an "
                    "SLC block");
    nand::AgeHistogram recount_hist;
    if (hist != nullptr) recount_hist.clear(hist->base_ms());
    for (std::uint32_t p = 0; p < blk.page_count(); ++p) {
      const auto& page = array_.page(b, static_cast<PageId>(p));
      for (std::uint32_t s = 0; s < blk.subpages_per_page(); ++s) {
        const nand::Subpage sp = array_.subpage(b, static_cast<PageId>(p),
                                                static_cast<SubpageId>(s));
        if (sp.state == nand::SubpageState::kInvalid) ++recount_invalid;
        if (sp.state != nand::SubpageState::kValid) continue;
        recount_wt_sum += sp.write_time_ms;
        if (page.program_ops() == 1) recount_hist.add(sp.write_time_ms);
        ++recount_valid;
        ++valid_total;
        const Lsn lsn = sp.owner_lsn;
        const PhysicalAddress mapped = map_.lookup(lsn);
        PPSSD_CHECK_MSG(mapped.valid(),
                        "valid subpage whose owner is unmapped");
        PPSSD_CHECK_MSG(mapped.block == b &&
                            mapped.page == static_cast<PageId>(p) &&
                            mapped.subpage == static_cast<SubpageId>(s),
                        "valid subpage is not its owner's current mapping");
      }
    }
    PPSSD_CHECK(recount_valid == blk.valid_subpages());
    PPSSD_CHECK(recount_invalid == blk.invalid_subpages());
    // The GC-score aggregates must agree with a from-scratch rebuild.
    PPSSD_CHECK_MSG(recount_wt_sum == blk.sum_write_time_ms(),
                    "running write-time sum is stale");
    // Only SLC-mode slots keep a write time (DESIGN.md §10).
    PPSSD_CHECK_MSG(hist != nullptr || blk.sum_write_time_ms() == 0,
                    "MLC block carries a write-time sum");
    PPSSD_CHECK_MSG(hist == nullptr || recount_hist == *hist,
                    "age histogram disagrees with page state");
  }
  // Bijection: mapped LSNs == valid physical subpages (each valid subpage
  // points back at its unique mapping, counts close the loop).
  PPSSD_CHECK(valid_total == map_.mapped_count());
  // The version overflow table mirrors the saturated map entries.
  map_.check_versions();
  // The GC victim index must mirror block states and invalid counts.
  bm_.check_victim_index();
}

}  // namespace ppssd::cache
