// Simulator configuration: geometry, timings, cache policy knobs.
//
// Defaults reproduce Table 2 of the paper ("Experimental settings of
// SSDsim"). scaled() derives a smaller device with identical ratios so the
// full benchmark matrix runs in minutes on a laptop; REPRO_FULL=1 switches
// the benches back to paper scale.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>

#include "common/types.h"
#include "common/units.h"

namespace ppssd {

/// Most subpages a page may hold: program write lists are fixed arrays of
/// this size, and it bounds a page's program count (DESIGN.md §10).
inline constexpr std::uint32_t kMaxSubpagesPerPage = 8;

/// Width of the owner-LSN field of a flash slot record (nand::SlotRecord):
/// a device's logical subpage count must fit it.
inline constexpr std::uint32_t kSlotOwnerBits = 30;

/// Physical organisation of the flash array.
///
/// total_blocks are striped over channels*chips_per_channel*dies_per_chip*
/// planes_per_die planes. Blocks are whole-plane entities as in SSDsim.
struct GeometryConfig {
  std::uint32_t channels = 8;
  std::uint32_t chips_per_channel = 4;
  std::uint32_t dies_per_chip = 2;
  std::uint32_t planes_per_die = 2;
  std::uint32_t total_blocks = 65536;       // Table 2: Block number
  std::uint32_t pages_per_mlc_block = 128;  // Table 2: SLC/MLC Page 64/128
  std::uint32_t pages_per_slc_block = 64;
  std::uint32_t page_bytes = 16 * kKiB;  // Table 2: Page size
  std::uint32_t subpage_bytes = static_cast<std::uint32_t>(kSubpageBytes);

  [[nodiscard]] std::uint32_t planes() const {
    return channels * chips_per_channel * dies_per_chip * planes_per_die;
  }
  [[nodiscard]] std::uint32_t chips() const {
    return channels * chips_per_channel;
  }
  [[nodiscard]] std::uint32_t subpages_per_page() const {
    return page_bytes / subpage_bytes;
  }
  /// Widths of the block, page and subpage fields of an ftl::DeviceMap
  /// slot code (DESIGN.md §10): enough bits for the largest index of
  /// each. The LSN's version takes the bits of the 32-bit entry above
  /// them.
  [[nodiscard]] std::uint32_t slot_block_bits() const {
    return total_blocks == 0
               ? 0
               : static_cast<std::uint32_t>(std::bit_width(total_blocks - 1));
  }
  [[nodiscard]] std::uint32_t slot_page_bits() const {
    const std::uint32_t pages =
        std::max(pages_per_mlc_block, pages_per_slc_block);
    return pages == 0 ? 0
                      : static_cast<std::uint32_t>(std::bit_width(pages - 1));
  }
  [[nodiscard]] std::uint32_t slot_subpage_bits() const {
    const std::uint32_t spp = subpages_per_page();
    return spp == 0 ? 0 : static_cast<std::uint32_t>(std::bit_width(spp - 1));
  }
  /// SLC-mode blocks per plane at `slc_ratio`: the first
  /// ceil(blocks_per_plane * slc_ratio) of each plane. Needs planes() > 0.
  [[nodiscard]] std::uint32_t slc_blocks_per_plane(double slc_ratio) const;
  /// Host-visible logical subpages at `slc_ratio`: the MLC region's
  /// subpages less the over-provisioned share, rounded down to whole
  /// pages. Needs planes() > 0 and subpages_per_page() > 0.
  [[nodiscard]] std::uint64_t logical_subpages(double slc_ratio) const;
  [[nodiscard]] std::uint64_t mlc_capacity_bytes() const {
    return static_cast<std::uint64_t>(total_blocks) * pages_per_mlc_block *
           page_bytes;
  }
};

/// NAND operation latencies (Table 2, values in ms there).
struct TimingConfig {
  SimTime slc_read = ms_to_ns(0.025);
  SimTime mlc_read = ms_to_ns(0.05);
  SimTime slc_write = ms_to_ns(0.3);
  SimTime mlc_write = ms_to_ns(0.9);
  SimTime erase = ms_to_ns(10.0);
  /// Bus transfer per subpage (not in Table 2; SSDsim uses ~25ns/byte ONFI;
  /// we fold it into a small per-subpage constant).
  SimTime transfer_per_subpage = us_to_ns(10.0);
  /// In-place SLC→dense reprogram (IPS, arXiv 2409.14360): the continued
  /// ISPP sequence on already-programmed cells costs about a dense page
  /// program — but no read, no channel transfer and no ECC round-trip.
  SimTime reprogram = ms_to_ns(0.9);
};

/// BCH ECC decode-latency bounds (Table 2) and codec parameters.
struct EccConfig {
  SimTime min_decode = ms_to_ns(0.0005);  // Table 2: ECC min time
  SimTime max_decode = ms_to_ns(0.0968);  // Table 2: ECC max time
  /// Correction capability in bits per codeword (one codeword per subpage).
  std::uint32_t t_per_codeword = 40;
  /// Codeword payload size in bytes (per-subpage codewords).
  std::uint32_t codeword_bytes = static_cast<std::uint32_t>(kSubpageBytes);
};

/// Raw bit-error-rate model calibration (Figure 2 anchors; see
/// ecc/ber_model.h for the functional form).
struct BerConfig {
  /// Conventional-programming raw BER of an MLC page at the anchor P/E.
  double mlc_anchor_ber = 2.8e-4;
  std::uint32_t anchor_pe = 4000;
  /// Growth exponent of BER with P/E cycles.
  double pe_exponent = 1.6;
  /// BER floor at P/E = 0 as a fraction of the anchor BER.
  double fresh_fraction = 0.12;
  /// BER of SLC-mode pages relative to native MLC pages at equal wear.
  /// SLC-mode blocks in a hybrid SSD are the *same* MLC cells operated at
  /// one bit per cell; the paper's Figure 2 statistics [19] are measured
  /// on such pages, so the default keeps the bases equal and lets the
  /// disturb terms differentiate the schemes (Figure 8's mechanism).
  double slc_factor = 1.0;
  /// Multiplicative penalty per partial-programming pass observed by data
  /// already resident in the same page (in-page disturb). Calibrated so a
  /// fully partially-programmed page at 4000 P/E reaches ~3.8e-4 (Fig. 2).
  double in_page_disturb_factor = 0.12;
  /// Penalty per program operation on a wordline-adjacent page.
  double neighbor_disturb_factor = 0.012;
  /// The in-page/neighbour penalties grow with wear; extra multiplier per
  /// anchor-normalised P/E ((pe/anchor)^disturb_pe_exponent).
  double disturb_pe_exponent = 0.5;
  /// Additive BER penalty (fraction of the page's base BER) on pages whose
  /// cells were converted in place from SLC state (IPS reprogramming):
  /// the continued ISPP sequence leaves wider threshold-voltage
  /// distributions than a fresh dense program.
  double reprogram_penalty = 0.3;
};

/// SLC-mode cache policy knobs.
struct CacheConfig {
  double slc_ratio = 0.05;     // Table 2: SLC mode ratio
  double gc_threshold = 0.05;  // Table 2: GC threshold (free-block fraction)
  /// Manufacturer limit on partial programs per SLC page (Section 1).
  std::uint32_t max_partial_programs = 4;
  /// Controller GC scheduling: background (GC/migration) flash ops are
  /// interleaved with host commands at most this many per host request,
  /// instead of monopolising chips in one burst. 0 = run GC ops inline.
  std::uint32_t gc_interleave_ops = 1;
  /// Fraction of SLC blocks assignable to Monitor/Hot levels each (IPU).
  double monitor_ratio = 0.25;
  double hot_ratio = 0.25;
};

/// Device wear state.
struct WearConfig {
  std::uint32_t initial_pe_cycles = 4000;  // paper default; Sec. 4.5 sweeps
  std::uint32_t slc_endurance = 100000;    // SLC-mode endures ~10x MLC [8]
  std::uint32_t mlc_endurance = 10000;
};

/// Top-level simulator configuration.
struct SsdConfig {
  GeometryConfig geometry;
  TimingConfig timing;
  EccConfig ecc;
  BerConfig ber;
  CacheConfig cache;
  WearConfig wear;

  /// Paper-scale configuration (Table 2 verbatim).
  [[nodiscard]] static SsdConfig paper();

  /// Proportionally scaled-down device: same ratios, `total_blocks` blocks.
  [[nodiscard]] static SsdConfig scaled(std::uint32_t total_blocks);

  /// Number of SLC-mode cache blocks implied by geometry and slc_ratio.
  [[nodiscard]] std::uint32_t slc_block_count() const;

  /// Validates internal consistency; returns an error message or empty.
  [[nodiscard]] std::string validate() const;
};

}  // namespace ppssd
