#include "common/config.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

namespace ppssd {

namespace {
/// Fraction of MLC capacity hidden from the host for GC headroom.
constexpr double kOverProvision = 0.05;
}  // namespace

std::uint32_t GeometryConfig::slc_blocks_per_plane(double slc_ratio) const {
  return static_cast<std::uint32_t>(
      std::ceil((total_blocks / planes()) * slc_ratio));
}

std::uint64_t GeometryConfig::logical_subpages(double slc_ratio) const {
  const std::uint32_t per_plane = total_blocks / planes();
  const std::uint32_t slc = slc_blocks_per_plane(slc_ratio);
  const std::uint64_t mlc_blocks =
      static_cast<std::uint64_t>(per_plane - std::min(slc, per_plane)) *
      planes();
  const std::uint64_t mlc_subpages =
      mlc_blocks * pages_per_mlc_block * subpages_per_page();
  const auto logical =
      static_cast<std::uint64_t>(mlc_subpages * (1.0 - kOverProvision));
  return logical - logical % subpages_per_page();
}

SsdConfig SsdConfig::paper() { return SsdConfig{}; }

SsdConfig SsdConfig::scaled(std::uint32_t total_blocks) {
  SsdConfig cfg;
  cfg.geometry.total_blocks = total_blocks;
  // Preserve the paper's 512 blocks per plane so the per-plane cache
  // structure (26 SLC-mode blocks per plane at 5%) matches paper scale.
  // Shed intra-chip parallelism (dies, planes) before chips/channels: the
  // paper's differentiation depends on its 32 independent chips, so a
  // scaled device keeps as many chips as the block budget allows.
  const std::uint32_t target_planes = std::max(1u, total_blocks / 512);
  while (cfg.geometry.planes() > target_planes) {
    if (cfg.geometry.dies_per_chip > 1) {
      cfg.geometry.dies_per_chip /= 2;
    } else if (cfg.geometry.planes_per_die > 1) {
      cfg.geometry.planes_per_die /= 2;
    } else if (cfg.geometry.chips_per_channel > 1) {
      cfg.geometry.chips_per_channel /= 2;
    } else if (cfg.geometry.channels > 1) {
      cfg.geometry.channels /= 2;
    } else {
      break;
    }
  }
  return cfg;
}

std::uint32_t SsdConfig::slc_block_count() const {
  return static_cast<std::uint32_t>(geometry.total_blocks * cache.slc_ratio);
}

std::string SsdConfig::validate() const {
  std::ostringstream err;
  const auto& g = geometry;
  if (g.channels == 0 || g.chips_per_channel == 0 || g.dies_per_chip == 0 ||
      g.planes_per_die == 0) {
    err << "geometry dimensions must be nonzero; ";
  }
  if (g.total_blocks == 0 || g.planes() == 0 ||
      g.total_blocks % g.planes() != 0) {
    err << "total_blocks (" << g.total_blocks
        << ") must be a positive multiple of plane count (" << g.planes()
        << "); ";
  }
  if (g.page_bytes == 0 || g.subpage_bytes == 0 ||
      g.page_bytes % g.subpage_bytes != 0) {
    err << "page_bytes must be a positive multiple of subpage_bytes; ";
  } else if (g.subpages_per_page() > kMaxSubpagesPerPage) {
    err << "page_bytes / subpage_bytes (" << g.subpages_per_page()
        << ") exceeds " << kMaxSubpagesPerPage << " subpages per page; ";
  }
  if (g.pages_per_slc_block == 0 || g.pages_per_mlc_block == 0) {
    err << "pages per block must be nonzero; ";
  } else if (g.subpage_bytes != 0) {
    // The flat page row takes a 32-bit page index (bounded here with
    // every block at the larger page count).
    const std::uint64_t pages =
        std::uint64_t{g.total_blocks} *
        std::max(g.pages_per_slc_block, g.pages_per_mlc_block);
    if (pages > std::numeric_limits<std::uint32_t>::max()) {
      err << "device has more pages (" << pages
          << ") than a 32-bit page index; ";
    }
    // A 32-bit device-map entry holds the slot code and at least one bit
    // of the LSN's version above it.
    const std::uint32_t code_bits =
        g.slot_block_bits() + g.slot_page_bits() + g.slot_subpage_bits();
    if (code_bits >= 32) {
      err << "total_blocks (" << g.total_blocks << ") needs a " << code_bits
          << "-bit slot code (" << g.slot_block_bits() << " block, "
          << g.slot_page_bits() << " page, " << g.slot_subpage_bits()
          << " subpage bits), which leaves no version bit in a 32-bit map "
             "entry; ";
    }
  }
  if (cache.slc_ratio <= 0.0 || cache.slc_ratio >= 1.0) {
    err << "slc_ratio must be in (0,1); ";
  } else if (g.planes() != 0 && g.subpage_bytes != 0 &&
             g.subpages_per_page() != 0) {
    // A flash slot record keeps its owner LSN in kSlotOwnerBits bits.
    const std::uint64_t lsns = g.logical_subpages(cache.slc_ratio);
    if (lsns > (std::uint64_t{1} << kSlotOwnerBits)) {
      err << "logical subpage count (" << lsns << ") does not fit the "
          << kSlotOwnerBits << "-bit owner field of a slot record; ";
    }
  }
  if (cache.gc_threshold <= 0.0 || cache.gc_threshold >= 1.0) {
    err << "gc_threshold must be in (0,1); ";
  }
  if (cache.max_partial_programs == 0) {
    err << "max_partial_programs must be >= 1; ";
  }
  if (slc_block_count() < 8) {
    err << "slc region too small (<8 blocks): enlarge total_blocks or "
           "slc_ratio; ";
  }
  if (cache.monitor_ratio + cache.hot_ratio >= 1.0) {
    err << "monitor_ratio + hot_ratio must leave room for Work blocks; ";
  }
  if (ecc.min_decode > ecc.max_decode) {
    err << "ECC min_decode must not exceed max_decode; ";
  }
  if (ecc.t_per_codeword == 0) {
    err << "ECC t_per_codeword must be >= 1; ";
  }
  if (ber.mlc_anchor_ber <= 0.0 || ber.mlc_anchor_ber >= 1.0) {
    err << "mlc_anchor_ber must be in (0,1); ";
  }
  if (ber.anchor_pe == 0) {
    err << "anchor_pe must be nonzero; ";
  }
  return err.str();
}

}  // namespace ppssd
