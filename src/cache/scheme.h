// SLC-mode cache management schemes.
//
// A Scheme is the policy brain of the FTL: it decides where host data
// lands (which SLC level, which page, partial vs conventional program),
// when and how the SLC cache evicts to the MLC region, and how GC selects
// and relocates. The three schemes of Section 4.1:
//
//  * BaselineScheme — dynamic page-level mapping, partial programming
//    disabled: every write consumes fresh pages, never revisited.
//  * MgaScheme — mapping-granularity-adaptive aggregation [12]: small
//    writes of *different* requests are appended into the same open SLC
//    page with partial programming (maximum space utilisation, maximum
//    in-page disturb), backed by a two-level mapping table.
//  * IpuScheme — the paper's contribution: updates are partial-programmed
//    into the *same page* that holds the previous version (in-page disturb
//    lands only on already-invalidated data), hot updates climb the
//    Work -> Monitor -> Hot block levels, and GC uses the ISR policy with
//    degraded cold-data movement (Sections 3.1-3.3, Algorithm 1).
//  * IpsScheme (cache/ips_scheme.h) — the In-place Switch successor
//    design (arXiv 2409.14360): SLC cache lines are promoted to the dense
//    region by reprogramming the cells in place instead of
//    read-migrate-program.
//
// Schemes self-register in the name-indexed plugin registry
// (cache/registry.h); construct them with make_scheme(name, cfg, opts).
//
// Schemes do not advance time; they emit PhysOps that the controller
// (sim/controller.h) prices against chip/channel availability.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cache/registry.h"
#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "ecc/ber_model.h"
#include "ecc/latency_model.h"
#include "ftl/block_manager.h"
#include "ftl/gc_policy.h"
#include "ftl/mapping.h"
#include "ftl/mapping_footprint.h"
#include "nand/flash_array.h"
#include "telemetry/introspect/format.h"
#include "telemetry/telemetry.h"

namespace ppssd::cache {

/// One physical flash operation for the timing model.
///
/// Ops within one host request form a dependency DAG: `depends_on` names
/// the index (within the request's op sequence) of the op whose data this
/// op consumes — a GC relocation program depends on the page read that
/// sourced its data, a victim erase depends on the last relocation op of
/// that victim. The controller dispatches an op only once its dependency
/// has completed; independent ops overlap freely across chips/channels.
/// Why an op exists — the causal tag the latency-attribution ledger
/// charges wait intervals to (host command, GC/migration machinery, or
/// warm-up traffic). Distinct from `background`, which is the *priority*
/// the controller schedules at.
enum class OpOrigin : std::uint8_t { kHost = 0, kGc = 1, kPrefill = 2 };

struct PhysOp {
  /// kReprogram is the in-place SLC→dense switch (IPS): pure array time on
  /// the chip lane — no channel transfer and no ECC decode.
  enum class Kind : std::uint8_t {
    kRead = 0,
    kProgram = 1,
    kErase = 2,
    kReprogram = 3,
  };

  /// Sentinel: the op has no intra-request dependency.
  static constexpr std::uint32_t kNoDependency = 0xffffffffu;

  std::uint32_t chip = 0;
  std::uint32_t channel = 0;
  Kind kind = Kind::kRead;
  CellMode mode = CellMode::kSlc;
  std::uint32_t subpages = 1;  // transferred / ECC-decoded payload
  double ber = 0.0;            // raw BER priced by ECC (reads only)
  bool background = false;     // GC / migration work
  OpOrigin origin = OpOrigin::kHost;
  std::uint32_t depends_on = kNoDependency;  // earlier op index, or none
};

/// Aggregated policy metrics for the paper's figures.
struct SchemeMetrics {
  // Figure 6: completed writes per region (subpages, host + GC/flush).
  std::uint64_t slc_subpages_written = 0;
  std::uint64_t mlc_subpages_written = 0;
  // Host-only split.
  std::uint64_t host_subpages_written = 0;
  // Figure 7: host writes landing in each SLC level (index by BlockLevel).
  std::uint64_t level_subpages[4] = {0, 0, 0, 0};
  std::uint64_t intra_page_updates = 0;  // subpages updated in place
  // GC activity.
  std::uint64_t slc_gc_count = 0;
  std::uint64_t mlc_gc_count = 0;
  RunningStat gc_utilization;  // Figure 9: used/total subpages of victims
  std::uint64_t gc_moved_subpages = 0;    // relocated within SLC
  std::uint64_t evicted_subpages = 0;     // ejected SLC -> MLC
  // Figure 8: raw BER observed by host subpage reads.
  RunningStat read_ber;
  std::uint64_t host_reads_slc = 0;
  std::uint64_t host_reads_mlc = 0;
  std::uint64_t host_reads_unmapped = 0;
};

class Scheme {
 public:
  explicit Scheme(const SsdConfig& cfg);
  virtual ~Scheme() = default;

  Scheme(const Scheme&) = delete;
  Scheme& operator=(const Scheme&) = delete;

  /// Canonical registry name of this scheme ("Baseline", "MGA", …).
  [[nodiscard]] virtual const char* name() const = 0;

  /// Serve a host write of `count` contiguous logical subpages starting at
  /// `lsn`. Appends the physical operations to `ops` in issue order
  /// (host programs first, then any triggered flush/GC work).
  void host_write(Lsn lsn, std::uint32_t count, SimTime now,
                  std::vector<PhysOp>& ops);

  /// Serve a host read of `count` contiguous logical subpages.
  void host_read(Lsn lsn, std::uint32_t count, SimTime now,
                 std::vector<PhysOp>& ops);

  [[nodiscard]] const nand::FlashArray& array() const { return array_; }
  [[nodiscard]] nand::FlashArray& array() { return array_; }
  [[nodiscard]] const ftl::BlockManager& blocks() const { return bm_; }
  [[nodiscard]] const SchemeMetrics& metrics() const { return metrics_; }
  [[nodiscard]] const SsdConfig& config() const { return cfg_; }
  [[nodiscard]] const ftl::DeviceMap& device_map() const { return map_; }

  /// Mapping-table memory model for this scheme (Figure 11).
  [[nodiscard]] ftl::FootprintReport footprint() const;

  /// Version of the LSN's mapped copy, kept in its map entry (0 =
  /// unmapped).
  [[nodiscard]] std::uint32_t version_of(Lsn lsn) const {
    return map_.version(lsn);
  }

  /// True if the LSN's current copy lives in the SLC-mode cache.
  [[nodiscard]] bool cached_in_slc(Lsn lsn) const {
    const PhysicalAddress addr = map_.lookup(lsn);
    return addr.valid() && array_.geometry().is_slc_block(addr.block);
  }

  /// Row hint (DESIGN.md §10, "Request lookahead"): read `lsn`'s map
  /// entry, which an earlier DeviceMap::prefetch should have cached, and
  /// hint the device rows of the slot it names. An unmapped LSN hints
  /// nothing. Changes no state; a hint made stale by a later remap is
  /// harmless.
  void prefetch_rows(Lsn lsn) const {
    const PhysicalAddress addr = map_.lookup(lsn);
    if (addr.valid()) array_.prefetch_slot(addr.block, addr.page, addr.subpage);
  }

  /// Walk every mapping and physical slot and abort on any violated
  /// invariant (see DESIGN.md §5). O(device); test/diagnostic use.
  void check_consistency() const;

  /// Zero the policy metrics and array op counters (cache contents, maps
  /// and wear are preserved). Called after cache warm-up.
  void reset_metrics() {
    metrics_ = SchemeMetrics{};
    array_.reset_counters();
  }

  /// Pre-fill the MLC region with logical pages [0, max_subpages), as an
  /// aged drive would be, stopping when every plane is down to
  /// `free_floor_blocks` free MLC blocks. No timing is simulated. The
  /// device must be freshly built — nothing written, no earlier prefill
  /// (always-on check) — so the round-robin layout is laid down in
  /// closed form (DESIGN.md §10, "Bulk prefill"). Returns the number of
  /// subpages filled.
  std::uint64_t prefill_mlc(std::uint64_t max_subpages,
                            std::uint32_t free_floor_blocks);

  /// Observer of committed GC victim decisions, fired once per GC pass
  /// right after victim selection resolves. Ssd::attach_introspection
  /// installs one that feeds the flight ring; tests install their own.
  using GcDecisionHook = std::function<void(
      std::uint32_t plane, CellMode mode, BlockId victim, SimTime now)>;
  void set_gc_decision_hook(GcDecisionHook hook) {
    gc_decision_hook_ = std::move(hook);
  }

  /// Tag the origin of subsequently emitted *foreground* ops (background
  /// ops are always kGc). The experiment driver marks warm-up traffic
  /// kPrefill so the attribution ledger separates it from measured host
  /// work; restore kHost before the measured replay.
  void set_origin_phase(OpOrigin origin) { fg_origin_ = origin; }

  /// Append this scheme's named occupancy/side-table figures to `sink`
  /// for the introspection snapshotter. The base implementation emits
  /// the scheme-independent accounting every frame carries —
  /// "mapped_lsns", "logical_subpages", "slc_cached_subpages",
  /// "staged_evictions" — and overrides must call it before adding
  /// their own entries (names are stable: tools key on them). Must be a
  /// pure observation — no state changes, device walk allowed.
  virtual void inspect(telemetry::introspect::StateSink& sink) const;

  /// Warm-start checkpointing (DESIGN.md §14): serialize the device's
  /// complete mutable state — flash array, block manager, device map
  /// (entries and version overflow table), round-robin cursor — then
  /// scheme-specific
  /// side state via save_scheme_state(). Must be called at a quiescent
  /// point (no staged evictions, no GC victim mid-flight); metrics are NOT
  /// serialized — callers checkpoint right after reset_metrics() so both
  /// cold and warm paths start the measured phase from zero.
  void save(io::StateSink& sink) const;
  /// Inverse of save() on a freshly constructed scheme of the *same*
  /// config and options. PPSSD_CHECKs on any shape mismatch and on any
  /// row field out of range, a map code outside the array included (the
  /// checkpoint container validates integrity up front).
  void restore(io::StateSource& src);

  /// Register the scheme's counters/histograms (cache hit/miss, partial
  /// programs, evictions, GC episodes, read BER…) labelled
  /// {scheme=<name>}, fan out to the block manager and GC policies, and
  /// adopt the bundle's trace log. Null detaches the hot-path handles; the
  /// registry must outlive the scheme (or be re-attached) because pool
  /// gauges poll it. Call at most once per registry.
  void attach_telemetry(telemetry::Telemetry* telemetry);

 protected:
  /// The live slots of one GC victim page, read once by the GC driver.
  /// live[i] is the LSN stored at victim slot from[i], and its `slot` is
  /// that slot's subpage. max_ber is the highest raw BER
  /// among them, which prices the page read that sources the data.
  struct VictimPage {
    BlockId block = kInvalidBlock;
    PageId page = 0;
    std::uint32_t count = 0;
    double max_ber = 0.0;
    std::array<nand::SlotWrite, nand::kMaxSubpagesPerPage> live;
    std::array<PhysicalAddress, nand::kMaxSubpagesPerPage> from;

    [[nodiscard]] std::span<const nand::SlotWrite> writes() const {
      return {live.data(), count};
    }
    [[nodiscard]] std::span<const PhysicalAddress> sources() const {
      return {from.data(), count};
    }
  };

  /// How commit_page() retires the old copies of the data it writes. Host
  /// writes supersede; every other commit is background relocation.
  enum class Retire : std::uint8_t {
    kSupersede,  // host write: the map names the old copy, if any, and
                 // the new version is the old copy's + 1 (1 if none)
    kSource,     // relocation: `from[i]` is the old copy of writes[i],
                 // whose version carries over
    kNone,       // staged eviction: retired, and its version captured,
                 // when it was staged
  };

  /// Scheme-specific write placement: map updates, old-version
  /// invalidation, metrics and program ops. The default is Baseline's:
  /// one request per fresh Work page, never a partial program.
  virtual void place_write(Lsn lsn, std::uint32_t count, SimTime now,
                           std::vector<PhysOp>& ops);

  /// Scheme-specific relocation of one victim page's live data during SLC
  /// GC; every slot in `src` must be retired when it returns. The default
  /// evicts the page to the MLC region.
  virtual void relocate_slc_page(const VictimPage& src, SimTime now,
                                 std::vector<PhysOp>& ops) {
    evict_page_to_mlc(src, now, ops);
  }

  /// Whether SLC GC must read a victim page out of the array before
  /// relocate_slc_page() can consume its data. True for every
  /// read-migrate-program scheme; IPS overrides to false because in-place
  /// reprogramming converts the cells without a channel round-trip, so no
  /// GC page read is emitted and relocation ops carry no read dependency.
  [[nodiscard]] virtual bool relocation_reads_source() const { return true; }

  /// Victim-selection policy for the SLC region.
  [[nodiscard]] virtual const ftl::GcPolicy& slc_policy() const = 0;

  /// Hook invoked when an SLC block is erased (clear side tables). The
  /// block's open pages are already closed.
  virtual void on_slc_block_erased(BlockId /*block*/) {}

  /// Hook invoked after program_new_slc_page() fills a fresh SLC page
  /// (host placement and GC moves; IPU tags the page's extent here).
  /// Appends into open pages and in-page updates do not fire it.
  virtual void on_slc_page_programmed(
      BlockId /*block*/, PageId /*page*/,
      std::span<const nand::SlotWrite> /*writes*/) {}

  /// Hook invoked whenever an SLC slot is invalidated (MGA clears its
  /// second-level table entry here).
  virtual void on_slc_slot_invalidated(const PhysicalAddress& /*addr*/) {}

  /// Hook for scheme-specific instruments. `registry` is null on detach;
  /// `labels` already carries {scheme=<name>}.
  virtual void on_attach_telemetry(telemetry::MetricsRegistry* /*registry*/,
                                   const telemetry::Labels& /*labels*/) {}

  /// Hooks for scheme-specific mutable state in warm-start checkpoints
  /// (side tables, open-page cursors, promotion counters). Baseline has
  /// none; MGA/IPU/IPS override both.
  virtual void save_scheme_state(io::StateSink& /*sink*/) const {}
  virtual void restore_scheme_state(io::StateSource& /*src*/) {}

  // ---- shared mechanisms available to subclasses -----------------------

  [[nodiscard]] std::uint32_t subpages_per_page() const { return spp_; }

  /// Next plane in round-robin order for new-page placement.
  std::uint32_t next_plane();

  /// The one page-commit primitive every program in the cache layer goes
  /// through (DESIGN.md §10, "One page commit"): retire the old copies as
  /// `retire` says, program `writes` into page (block, page), map every
  /// slot at its version, tally the region/host/level/GC-move metrics and
  /// emit the op. A kSupersede commit maps each write at the superseded
  /// version + 1, a kSource commit at the version its source retires
  /// with, and a kNone commit at `staged_versions[i]`, captured when the
  /// write was staged (empty for the other modes).
  /// A kReprogram commit is the IPS in-place switch: the source page is
  /// from[0]'s and the op carries no read dependency. Fires no hook.
  void commit_page(BlockId block, PageId page,
                   std::span<const nand::SlotWrite> writes, Retire retire,
                   std::span<const PhysicalAddress> from, SimTime now,
                   std::vector<PhysOp>& ops,
                   PhysOp::Kind kind = PhysOp::Kind::kProgram,
                   std::span<const std::uint32_t> staged_versions = {});

  /// Emit a read op of `subpages` subpages from one physical page of
  /// `block`, pricing ECC by the max raw BER across the read subpages.
  void emit_page_read(BlockId block, std::uint32_t subpages, double max_ber,
                      bool background, std::vector<PhysOp>& ops);

  /// Program the SLC slots [0, n) of a freshly allocated page of `plane`
  /// at `level` (after level fallback) with `writes`, whose slots must be
  /// 0..n-1. A host write passes no `from` and supersedes; a GC move
  /// names each source slot. Fires on_slc_page_programmed(). Returns the
  /// allocation, or nullopt (nothing written) when the SLC region is
  /// exhausted.
  std::optional<ftl::PageAlloc> program_new_slc_page(
      std::uint32_t plane, BlockLevel level,
      std::span<const nand::SlotWrite> writes,
      std::span<const PhysicalAddress> from, SimTime now,
      std::vector<PhysOp>& ops);

  /// A fresh dense page, plane-local when it can be: run MLC GC on
  /// `plane` and allocate there, else retry on the next round-robin
  /// plane. Aborts when no plane has one.
  ftl::PageAlloc allocate_dense_page(std::uint32_t plane, SimTime now,
                                     std::vector<PhysOp>& ops);

  /// Evict one victim page's live subpages to the MLC region (GC path).
  /// Evictions within one GC pass are *packed*: the controller buffers
  /// GC-out data and writes full MLC pages; the GC driver flushes the
  /// last partial batch when the pass ends.
  void evict_page_to_mlc(const VictimPage& src, SimTime now,
                         std::vector<PhysOp>& ops);

  /// Host-write LSNs [lsn, lsn + n), n <= subpages per page, into a fresh
  /// page at `level` on the next round-robin plane under new versions
  /// (one request per page, Figure 3's W1/W2/W3), falling back to
  /// direct_mlc_write() when the SLC region is exhausted.
  void write_fresh_page(Lsn lsn, std::uint32_t n, BlockLevel level,
                        SimTime now, std::vector<PhysOp>& ops);

  /// Write host data directly to MLC (fallback when the SLC region cannot
  /// take another page even after GC).
  void direct_mlc_write(Lsn lsn, std::uint32_t count, SimTime now,
                        std::vector<PhysOp>& ops);

  /// An SLC page that host appends fill slot by slot with partial
  /// programs (append_to_open_page).
  struct OpenPage {
    BlockId block = kInvalidBlock;
    PageId page = kInvalidPage;
    [[nodiscard]] bool valid() const { return block != kInvalidBlock; }
  };

  /// Host-append up to `max` subpages from `lsn` under new versions into
  /// the next round-robin plane's open Work page, opening a fresh one when
  /// it can take no more programs. Returns how many were written (0 when
  /// no page could be opened). Needs open_pages_ sized to the planes.
  std::uint32_t append_to_open_page(Lsn lsn, std::uint32_t max, SimTime now,
                                    std::vector<PhysOp>& ops);
  /// Open pages currently held, for inspect().
  [[nodiscard]] std::uint64_t open_page_count() const;
  /// Checkpoint form of open_pages_: u64 count, then per plane the block
  /// (u32), the page (u16) and two zero bytes.
  void save_open_pages(io::StateSink& sink) const;
  void restore_open_pages(io::StateSource& src);

  /// Run SLC / MLC GC passes on `plane` while below threshold (bounded
  /// passes per call).
  void maybe_slc_gc(std::uint32_t plane, SimTime now,
                    std::vector<PhysOp>& ops);
  void maybe_mlc_gc(std::uint32_t plane, SimTime now,
                    std::vector<PhysOp>& ops);

  /// Tally `n` subpages written by a partial (reprogram) operation.
  /// Subclasses call this wherever they program an already-programmed
  /// page; no-op until telemetry attaches.
  void count_partial_program(std::uint32_t n) {
    if (tl_partial_programs_) tl_partial_programs_->inc(n);
  }

  /// Tally `n` subpages ejected from the SLC cache into the dense region
  /// (metrics plus telemetry). The shared eviction flush calls this;
  /// schemes with their own SLC→MLC promotion path (IPS) call it too so
  /// the evicted_subpages family stays comparable across schemes.
  void count_evicted(std::uint32_t n) {
    metrics_.evicted_subpages += n;
    if (tl_evicted_) tl_evicted_->inc(n);
  }

  /// Index (into the current request's op vector) of the GC page read that
  /// sourced the data currently being relocated; kNoDependency outside GC
  /// victim processing. commit_page() attaches it to background programs
  /// so relocation writes wait for their source read in the controller.
  /// MLC GC nests inside SLC victim processing (eviction flush can trigger
  /// it), so mlc_gc_once() saves and restores the surrounding value.
  std::uint32_t gc_read_dep_ = PhysOp::kNoDependency;

  SsdConfig cfg_;
  nand::FlashArray array_;
  ftl::BlockManager bm_;
  ftl::DeviceMap map_;
  ecc::BerModel ber_model_;
  ecc::EccLatencyModel ecc_model_;
  ftl::GreedyPolicy greedy_;
  SchemeMetrics metrics_;
  /// Per-plane open pages of the schemes that append (MGA's aggregation
  /// pages, IPU's combine_cold pages); empty for the others.
  std::vector<OpenPage> open_pages_;
  /// Trace log adopted from the attached bundle (null when disabled);
  /// subclasses may emit their own category-filtered events through it.
  telemetry::TraceLog* tlog_ = nullptr;

 private:
  /// The page-at-a-time prefill oracle (tests/support/reference_paths.h).
  friend struct ReferencePrefill;

  /// Drop the previous version of `lsn` wherever it lives and return it
  /// (0 for a never-written LSN).
  std::uint32_t invalidate_previous(Lsn lsn);

  /// Retire one physical slot: invalidate in the array, clear the map,
  /// fire the SLC hook, and return the version the map held. The slot
  /// must be the current mapping of `lsn`.
  std::uint32_t retire_slot(Lsn lsn, const PhysicalAddress& addr);

  /// The one op builder: append an op on `block`'s chip and channel in
  /// its cell mode and return it. Background ops are GC work (kGc);
  /// foreground ones carry the current origin phase.
  PhysOp& emit_op(PhysOp::Kind kind, BlockId block, std::uint32_t subpages,
                  bool background, std::vector<PhysOp>& ops);

  /// Raw BER of a stored subpage right now.
  [[nodiscard]] double ber_of(const PhysicalAddress& addr) const;

  /// Write `writes` (slots 0..n-1) into a fresh MLC page: host writes
  /// (no `staged_versions`) stripe round-robin and supersede, evictions
  /// stay on `plane_hint` and were retired, at `staged_versions`, when
  /// staged.
  void program_mlc_page(std::span<const nand::SlotWrite> writes,
                        std::span<const std::uint32_t> staged_versions,
                        SimTime now, std::vector<PhysOp>& ops,
                        std::uint32_t plane_hint = UINT32_MAX);

  /// Program the staged evictions into packed MLC pages on `plane`.
  void flush_evictions(std::uint32_t plane, SimTime now,
                       std::vector<PhysOp>& ops);

  /// One GC pass on a plane's region; returns false if no victim.
  bool slc_gc_once(std::uint32_t plane, SimTime now, std::vector<PhysOp>& ops);
  /// One greedy MLC GC pass; returns false if no victim. maybe_mlc_gc()
  /// applies the write-amplification guard before calling it.
  bool mlc_gc_once(std::uint32_t plane, SimTime now, std::vector<PhysOp>& ops);

  /// The one victim-page scan: live slots and their max raw BER.
  [[nodiscard]] VictimPage scan_victim_page(BlockId block, PageId page) const;

  /// Erase a GC victim: the erase op waits for the last op the pass
  /// emitted after `pass_ops_start`, if any.
  void erase_victim(BlockId victim, std::size_t pass_ops_start, SimTime now,
                    std::vector<PhysOp>& ops);

  /// Evicted data waiting for flush_evictions(), in the packed layout it
  /// will be programmed in: entry j fills slot j mod subpages-per-page of
  /// the flush's (j / subpages-per-page)-th MLC page. Entry j's version,
  /// taken from the map as its source retired, is staged_versions_[j].
  std::vector<nand::SlotWrite> staged_evictions_;
  std::vector<std::uint32_t> staged_versions_;

  GcDecisionHook gc_decision_hook_;

  std::uint32_t spp_;
  std::uint32_t rr_plane_ = 0;
  OpOrigin fg_origin_ = OpOrigin::kHost;

  // Telemetry handles (null until attached).
  telemetry::Counter* tl_writes_hit_ = nullptr;    // update of SLC-cached data
  telemetry::Counter* tl_writes_miss_ = nullptr;   // new / non-cached data
  telemetry::Counter* tl_partial_programs_ = nullptr;
  telemetry::Counter* tl_evicted_ = nullptr;       // subpages SLC -> MLC
  telemetry::Counter* tl_gc_moved_ = nullptr;      // subpages moved within SLC
  telemetry::Counter* tl_direct_mlc_ = nullptr;    // host subpages bypassing SLC
  telemetry::Counter* tl_reads_slc_ = nullptr;
  telemetry::Counter* tl_reads_mlc_ = nullptr;
  telemetry::Counter* tl_reads_unmapped_ = nullptr;
  telemetry::Counter* tl_gc_slc_ = nullptr;        // GC episodes per region
  telemetry::Counter* tl_gc_mlc_ = nullptr;
  telemetry::Histogram* tl_read_ber_ = nullptr;
  telemetry::Histogram* tl_victim_util_ = nullptr;
};

}  // namespace ppssd::cache
