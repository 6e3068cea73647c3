// IPU: the paper's intra-page cache update scheme (Sections 3.1-3.3).
//
// Placement rules (Algorithm 1):
//  * new data -> a fresh page in a Work block, one request per page, the
//    page's remaining subpage slots reserved for that data's future
//    updates;
//  * an update whose previous version is cached -> partial-programmed
//    into the *same page* when a free slot and partial-program budget
//    remain (in-page disturb then only hits the just-invalidated old
//    version), otherwise relocated to a fresh page one block-level up
//    (Work -> Monitor -> Hot), which is how hot data is identified;
//  * GC uses the ISR policy (Eq. 1/2) and degraded movement: pages that
//    were updated in place stay at their level, never-updated pages sink
//    one level, and cold Work-level pages are ejected to the MLC region.
#pragma once

#include <memory>

#include "cache/scheme.h"
#include "ftl/hotness.h"
#include "ftl/subpage_mapping.h"

namespace ppssd::cache {

class IpuScheme final : public Scheme {
 public:
  explicit IpuScheme(const SsdConfig& cfg);

  [[nodiscard]] const char* name() const override { return "IPU"; }

  [[nodiscard]] const ftl::IpuOffsetTable& offsets() const {
    return offsets_;
  }

  /// Base entries plus the offset table's occupancy and the count of
  /// open combine_cold shared pages.
  void inspect(telemetry::introspect::StateSink& sink) const override;

  /// Ablation knobs (bench/ablations): disable pieces of the design —
  /// plus the paper's future-work extension (`combine_cold`).
  struct Options {
    bool use_isr_gc = true;       // false -> greedy victim selection
    bool use_levels = true;       // false -> single Work level
    bool use_intra_page = true;   // false -> every update relocates
    /// Section 5 future work: adaptively combine data predicted to be
    /// infrequently updated into shared Work pages (MGA-style appends),
    /// recovering page utilization at the cost of in-page disturb on the
    /// co-located cold data and per-slot mapping entries for those pages.
    bool combine_cold = false;

    /// Registry option-bag form (keys isr/lvl/ipp/cmb, values "0"/"1",
    /// fixed order — the encoding participates in experiment cache keys).
    [[nodiscard]] SchemeOptions to_scheme_options() const;
    [[nodiscard]] static Options from_scheme_options(
        const SchemeOptions& opts);
  };
  void set_options(const Options& opts);
  [[nodiscard]] const Options& options() const { return opts_; }

 protected:
  void place_write(Lsn lsn, std::uint32_t count, SimTime now,
                   std::vector<PhysOp>& ops) override;
  void relocate_slc_page(const VictimPage& src, SimTime now,
                         std::vector<PhysOp>& ops) override;
  [[nodiscard]] const ftl::GcPolicy& slc_policy() const override;
  void on_slc_block_erased(BlockId block) override;
  void on_slc_page_programmed(
      BlockId block, PageId page,
      std::span<const nand::SlotWrite> writes) override;
  void on_attach_telemetry(telemetry::MetricsRegistry* registry,
                           const telemetry::Labels& labels) override;
  void save_scheme_state(io::StateSink& sink) const override;
  void restore_scheme_state(io::StateSource& src) override;

 private:
  /// Serve the update run [lsn, lsn+n) whose previous versions all live in
  /// one SLC page; `n` is the run length cached_batch_len() resolved.
  void update_cached_run(Lsn lsn, std::uint32_t n, SimTime now,
                         std::vector<PhysOp>& ops);

  /// Length of the prefix of [lsn, lsn+max) whose cached copies sit
  /// contiguously in one SLC page (0 when lsn is not cached in SLC).
  [[nodiscard]] std::uint32_t cached_batch_len(Lsn lsn,
                                               std::uint32_t max) const;

  ftl::IpuOffsetTable offsets_;
  ftl::IsrPolicy isr_;
  Options opts_;
  /// combine_cold state: per-LSN write history. The shared cold pages are
  /// the base's open pages, sized to the planes only with combine_cold.
  std::unique_ptr<ftl::UpdateTracker> tracker_;
  // Telemetry handles (null until attached): IPU-specific placement paths.
  telemetry::Counter* tl_intra_page_ = nullptr;   // subpages updated in place
  telemetry::Counter* tl_level_climbs_ = nullptr; // hot relocations upward
  telemetry::Counter* tl_cold_appends_ = nullptr; // combine_cold subpages
};

}  // namespace ppssd::cache
